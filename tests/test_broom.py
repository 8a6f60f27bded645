import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    BroomSchedule,
    InfeasibleScheduleError,
    build_broom_conjugation,
    solve_h_sequence,
    two_level_kernel_structure,
)


def test_schedule_validation():
    with pytest.raises(ValueError):
        BroomSchedule(lambdas=(0.0,))
    with pytest.raises(ValueError):
        BroomSchedule(lambdas=(1.0,))
    with pytest.raises(ValueError):
        BroomSchedule(lambdas=())
    sched = BroomSchedule(lambdas=(0.5, 0.25))
    assert sched.n == 2
    assert sched.targets() == pytest.approx([3.0, 15.0])


def test_single_step_closed_form():
    h = solve_h_sequence(BroomSchedule(lambdas=(0.5,)))
    # ||h_1||^2 = (1 - 1/4) / (1/4) = 3, so h_1 = sqrt(3) f_1
    assert h.coords[0][0] == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert h.s_squared == (pytest.approx(3.0),)
    assert all(s2 > 0 for s2 in h.s_squared)


def test_two_step_closed_form():
    h = solve_h_sequence(BroomSchedule(lambdas=(0.5, 0.5)))
    assert h.t_rows[0] == ()
    assert h.t_rows[1][0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert h.s_squared[1] == pytest.approx(8.0 / 3.0, abs=1e-14)


def test_vectors_solve_the_pairwise_constraints():
    lambdas = (0.5, 0.25, 0.125)
    h = solve_h_sequence(BroomSchedule(lambdas=lambdas))
    vecs = [h.vector(i) for i in range(1, 4)]
    for i, lam_i in enumerate(lambdas):
        norm_sq = float(np.vdot(vecs[i], vecs[i]).real)
        assert norm_sq == pytest.approx((1 - lam_i**2) / lam_i**2, rel=1e-12)
        for j in range(i):
            inner = float(np.vdot(vecs[j], vecs[i]).real)
            assert inner == pytest.approx(-1.0, abs=1e-12)


def test_steep_schedule_invariants_hold_tightly():
    sched = BroomSchedule(lambdas=tuple(10.0 ** (-i) for i in range(1, 7)))
    h = solve_h_sequence(sched)
    assert all(s2 > 0 for s2 in h.s_squared)
    assert h.gram_offdiag_residual() <= 1e-9
    assert h.norm_residual() <= 1e-9


def test_infeasible_schedule_reports_step_and_deficit():
    with pytest.raises(InfeasibleScheduleError) as err:
        solve_h_sequence(BroomSchedule(lambdas=(0.9, 0.9)))
    assert err.value.step == 2
    assert err.value.deficit == pytest.approx(4.0286, abs=1e-3)
    assert "step 2" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False), min_size=1, max_size=6
    )
)
def test_feasible_iff_squared_mass_below_one(lambdas):
    mass = sum(x * x for x in lambdas)
    if abs(mass - 1.0) < 1e-9:
        return  # borderline cases are numerically ambiguous
    sched = BroomSchedule(lambdas=tuple(lambdas))
    if mass < 1.0:
        h = solve_h_sequence(sched)
        assert all(s2 > 0 for s2 in h.s_squared)
    else:
        with pytest.raises(InfeasibleScheduleError):
            solve_h_sequence(sched)


def test_doc_round_trip_fields():
    h = solve_h_sequence(BroomSchedule(lambdas=(0.5, 0.5)))
    doc = h.to_doc()
    assert doc["lambdas"] == [0.5, 0.5]
    assert all(s2 > 0 for s2 in doc["s_squared"])
    assert doc["norm_residual"] <= 1e-12


def test_embedding_default_teeth_count():
    emb = build_broom_conjugation(BroomSchedule(lambdas=(0.5, 0.25)))
    assert emb.report["n"] == 2
    assert emb.report["teeth"] == 5
    assert emb.report["passed"]


def test_embedding_checks_are_tight():
    sched = BroomSchedule(lambdas=(0.5, 0.25, 0.2, 0.1))
    emb = build_broom_conjugation(sched, n_teeth=12)
    rep = emb.report
    assert rep["teeth"] == 12
    for key in (
        "g_norm_residual",
        "g_orthogonality_residual",
        "g_f0_residual",
        "f_basis_orthonormality_residual",
        "f_basis_f0_residual",
    ):
        assert rep[key] <= 1e-8, key
    assert rep["max_intertwining_residual"] <= 1e-15
    assert len(rep["intertwining_residuals"]) == 5  # e_0 and the four mapped teeth


def test_embedding_images_match_shift_action():
    from treeshift import build_shift

    sched = BroomSchedule(lambdas=(0.5, 0.25))
    emb = build_broom_conjugation(sched)
    s = build_shift(emb.tree, emb.weights)
    # S maps the root image into the tooth span and each tooth image back
    # onto a multiple of the root image: S C e_j = C S* e_j exactly
    assert np.linalg.norm(s.matrix @ emb.images["0"]) == 0.0
    for j in (1, 2):
        lhs = s.matrix @ emb.images[str(j)]
        rhs = emb.weights[str(j)] * emb.images["0"]
        assert np.linalg.norm(lhs - rhs) <= 1e-15
    # the root image is the normalized image of e_0 under S itself
    assert np.linalg.norm(s.matrix @ np.eye(s.n, dtype=complex)[0] - emb.f0) <= 1e-12


def test_single_tooth_embedding_is_exact():
    emb = build_broom_conjugation(BroomSchedule(lambdas=(0.5,)))
    assert emb.report["g_norm_residual"] == 0.0
    assert emb.report["max_intertwining_residual"] == 0.0


def test_embedding_rejects_narrow_broom():
    with pytest.raises(ValueError, match="need at least 9 teeth for N = 4, got 8"):
        build_broom_conjugation(
            BroomSchedule(lambdas=(0.5, 0.25, 0.2, 0.1)), n_teeth=8
        )


def test_embedding_with_precomputed_h():
    sched = BroomSchedule(lambdas=(0.5, 0.25))
    h = solve_h_sequence(sched)
    emb = build_broom_conjugation(sched, h=h)
    assert emb.report["passed"]


def test_two_level_structure_equal_weights():
    info = two_level_kernel_structure((1.0, 1.0), (1.0, 1.0))
    assert info["dim_ker_s"] == 2 and info["expected_dim_ker_s"] == 2
    assert info["dim_ker_s_star"] == 2 and info["expected_dim_ker_s_star"] == 2
    assert info["distance_ker_s_vs_h2"] <= 1e-10
    assert info["distance_ker_s_star_perp_vs_f1_plus_h2"] <= 1e-10
    assert info["passed"]


def test_two_level_structure_single_tooth():
    info = two_level_kernel_structure((2.0,), (3.0,))
    assert info["dim_ker_s"] == 1
    assert info["dim_ker_s_star"] == 1
    assert info["passed"]


def test_two_level_structure_random_weights(rng):
    n = 5
    level1 = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n))
    level2 = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n))
    info = two_level_kernel_structure(level1, level2)
    assert info["dim_ker_s"] == n
    assert info["dim_ker_s_star"] == n
    assert info["distance_ker_s_vs_h2"] <= 1e-10
    assert info["distance_ker_s_star_perp_vs_f1_plus_h2"] <= 1e-10


def test_two_level_structure_rejects_zero_weight():
    with pytest.raises(ValueError, match="zero weight at vertex 1,2"):
        two_level_kernel_structure((1.0, 0.0), (1.0, 1.0))


def test_two_level_structure_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        two_level_kernel_structure((1.0, 1.0), (1.0,))
