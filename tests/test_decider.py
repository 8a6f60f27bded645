import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift
from treeshift import (
    DeciderOptions,
    build_shift,
    decide_cs,
    dump_json,
    generate_binary,
    generate_path,
    generate_two_branch,
    kernel_obstruction,
    numerical_rank,
    positivize_weights,
    random_tree,
    random_weights,
    reevaluate_obstruction,
    sylvester_space,
    unitary_search,
    verify_c_symmetry,
    word_trace_obstruction,
    word_value,
)
from treeshift import decider
from treeshift.decider import _gauged, _one_shot_certificate, _sylvester_nullspace
from conftest import random_complex
from oracles import (
    dense_joint_sylvester_nullspace,
    dense_sylvester_nullspace,
    exact_joint_sylvester_space,
    exact_rank,
    reference_sylvester_nullspace,
    sequential_word_trace_obstruction,
)

DATA = Path(__file__).with_name("data")


def path3_shift(lam1, lam2):
    return build_shift(generate_path(3), {"1": lam1, "2": lam2})


def test_options_doc_round_trip():
    opts = DeciderOptions(tol=1e-9, seed=3)
    doc = opts.to_doc()
    assert doc["tol"] == 1e-9
    assert doc["seed"] == 3
    assert set(doc) == {"tol", "rank_rtol", "max_word_len", "seed"}


def test_kernel_obstruction_never_fires_on_shifts(y_shift, trunked_y_shift):
    # dim ker M^m always equals dim ker (M*)^m for a single matrix, so the
    # rank check can only trip on data where the two sides are inconsistent
    assert kernel_obstruction(y_shift.matrix) is None
    assert kernel_obstruction(trunked_y_shift.matrix) is None


def test_kernel_obstruction_zero_matrix():
    assert kernel_obstruction(np.zeros((3, 3), dtype=complex)) is None


def test_word_value_anchors():
    t = path3_shift(1.0, 2.0)
    word = ["T", "T", "T*", "T", "T*", "T*"]
    assert word_value(t.matrix, word) == pytest.approx(16.0, abs=1e-12)
    assert word_value(t.matrix, word[::-1]) == pytest.approx(4.0, abs=1e-12)


def test_word_value_matches_pure_python(rng):
    from oracles import complex_word_trace

    m = random_complex(rng, (4, 4))
    for word in (["T"], ["T", "T*"], ["T*", "T", "T", "T*"], ["T", "T*", "T*"]):
        fast = word_value(m, word)
        slow = complex_word_trace(m.tolist(), word)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


def test_word_trace_obstruction_found():
    t = path3_shift(1.0, 2.0)
    witness = word_trace_obstruction(t.matrix)
    assert witness is not None
    assert witness["word"] == ["T", "T", "T*", "T", "T*", "T*"]
    trace = complex(*witness["trace"])
    trace_rev = complex(*witness["trace_reversed"])
    assert trace == pytest.approx(16.0, abs=1e-12)
    assert trace_rev == pytest.approx(4.0, abs=1e-12)
    assert witness["margin"] > witness["threshold"]


def test_word_trace_obstruction_absent_on_equal_weights():
    t = path3_shift(1.0, 1.0)
    assert word_trace_obstruction(t.matrix) is None


def test_word_trace_obstruction_zero_matrix():
    assert word_trace_obstruction(np.zeros((2, 2), dtype=complex)) is None


def test_word_trace_minimal_length():
    # the shortest separating word for the weighted path has six letters,
    # so capping the search below that must come back empty
    t = path3_shift(1.0, 2.0)
    assert word_trace_obstruction(t.matrix, max_len=5) is None


def bitwise(doc):
    # floats by their bits, so that 0.0 and -0.0 differ and NaN equals NaN
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {k: bitwise(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [bitwise(v) for v in doc]
    return doc


def word_case(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    if kind == "tree":
        tree = random_tree(rng, max_vertices=10)
        return build_shift(tree, random_weights(rng, tree)).matrix
    if kind == "dense":
        return random_complex(rng, (n, n))
    if kind == "one":
        return random_complex(rng, (1, 1))
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "symmetric":
        a = random_complex(rng, (n, n))
        return a + a.T
    # Q N Q* with N strictly lower triangular: nilpotent up to rounding
    q, _r = np.linalg.qr(random_complex(rng, (n, n)))
    return q @ np.tril(random_complex(rng, (n, n)), -1) @ q.conj().T


WORD_TOLS = (1e-10, 1e-14, 1e-16, 0.0)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["tree", "dense", "one", "zero", "symmetric", "nilpotent"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.sampled_from(WORD_TOLS),
)
def test_word_trace_screen_matches_sequential_search(kind, seed, max_len, tol):
    m = word_case(kind, seed)
    got = word_trace_obstruction(m, max_len=max_len, tol=tol)
    want = sequential_word_trace_obstruction(m, max_len=max_len, tol=tol)
    assert bitwise(got) == bitwise(want)


@pytest.mark.parametrize("shift", [1.0 - 1e-12, 1.0, 1.0 + 1e-12])
@pytest.mark.parametrize("seed", range(6))
def test_word_trace_screen_at_the_threshold(seed, shift):
    # put the threshold within 1e-12 of a witness's margin, where the screened
    # gap and the exact one can fall on opposite sides of it
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_vertices=10)
    m = build_shift(tree, random_weights(rng, tree)).matrix
    if seed % 2:
        m = m + 1e-3 * random_complex(rng, m.shape)
    witness = sequential_word_trace_obstruction(m)
    assert witness is not None
    length = len(witness["word"])
    scale = max(1.0, float(np.linalg.norm(m)) ** length)
    tol = witness["margin"] * shift / (10.0 * scale)
    got = word_trace_obstruction(m, tol=tol)
    want = sequential_word_trace_obstruction(m, tol=tol)
    assert bitwise(got) == bitwise(want)
    if shift < 1.0:
        assert got["word"] == witness["word"]


def test_word_stage_survives_overflowing_powers():
    # ||T||_F^L overflows from L = 4: those thresholds are inf, not an error
    tree = generate_two_branch(1, 2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    weights["1,1"] = 1e100
    s = build_shift(tree, weights)
    assert decide_cs(s).kind in ("cs", "not_cs", "undetermined")
    got = word_trace_obstruction(s.matrix)
    assert bitwise(got) == bitwise(sequential_word_trace_obstruction(s.matrix))
    ok, _margin = reevaluate_obstruction(
        s, {"kind": "word_trace", "witness": {"word": ["T", "T", "T*", "T*"]}}
    )
    assert not ok


def test_sylvester_space_zero_operator():
    space = sylvester_space(np.zeros((2, 2), dtype=complex))
    assert len(space) == 3
    for i, a in enumerate(space):
        assert np.linalg.norm(a - a.T) <= 1e-12
        for j, b in enumerate(space):
            inner = np.vdot(a, b)
            assert abs(inner - (1.0 if i == j else 0.0)) <= 1e-10


def test_sylvester_space_path2():
    t = build_shift(generate_path(2), {"1": 1.0})
    space = sylvester_space(t.matrix)
    assert len(space) == 2
    for a in space:
        assert np.linalg.norm(t.matrix @ a - a @ t.matrix.T) <= 1e-10


def test_sylvester_space_members_solve_the_equation(y_shift):
    for a in sylvester_space(y_shift.matrix):
        assert np.linalg.norm(y_shift.matrix @ a - a @ y_shift.matrix.T) <= 1e-10
        assert np.linalg.norm(a - a.T) <= 1e-12


def sylvester_case(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind.startswith("dense"):
        n = int(kind[-1])
        return random_complex(rng, (n, n))
    if kind == "symmetric":
        a = random_complex(rng, (int(rng.integers(2, 7)),) * 2)
        return a + a.T
    if kind.startswith("ones"):
        tree = generate_two_branch(
            *{"ones25": (2, 5), "ones33": (3, 3), "ones36": (3, 6)}[kind]
        )
        return build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()}).matrix
    if kind == "split":
        # a direct sum whose second summand lies below the global rank cut
        # but not below a cut taken relative to its own blocks
        big, small = (sylvester_case("tree", s) for s in rng.integers(2**32, size=2))
        m = np.zeros((len(big) + len(small),) * 2, dtype=complex)
        m[: len(big), : len(big)] = big
        m[len(big):, len(big):] = 1e-11 * small
        return m
    tree = random_tree(rng, max_vertices=12)
    weights = random_weights(rng, tree)
    if kind == "tree_zero":
        labels = sorted(weights)
        weights[labels[int(rng.integers(len(labels)))]] = 0.0
    return build_shift(tree, weights).matrix


def null_projector(basis: np.ndarray) -> np.ndarray:
    flat = basis.reshape(basis.shape[0], basis.shape[1] * basis.shape[2])
    return flat.T @ flat.conj()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        ["tree", "tree_zero", "split", "ones25", "ones36", "dense4", "dense5"]
    ),
    st.integers(0, 2**32 - 1),
)
def test_block_sylvester_solve_matches_dense_reference(kind, seed):
    m = sylvester_case(kind, seed)
    space, sigma = _sylvester_nullspace((m,), 1e-10)
    ref, ref_sigma = dense_sylvester_nullspace(m, 1e-10)
    assert space.shape == ref.shape
    assert sigma.shape == ref_sigma.shape
    assert sigma[0] == pytest.approx(ref_sigma[0], rel=1e-12, abs=0.0)
    if ref.shape[0] == 0:
        assert sigma[-1] == pytest.approx(ref_sigma[-1], rel=1e-12, abs=0.0)
    assert np.abs(null_projector(space) - null_projector(ref)).max() <= 1e-10


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        ["tree", "split", "ones25", "ones33", "symmetric", "dense4", "dense5"]
    ),
    st.integers(0, 2**32 - 1),
)
def test_block_joint_solve_matches_dense_reference(kind, seed):
    m = sylvester_case(kind, seed)
    space, sigma = _sylvester_nullspace((m, m.conj().T), 1e-10)
    ref, ref_sigma = dense_joint_sylvester_nullspace(m, 1e-10)
    assert space.shape == ref.shape
    assert sigma.shape == ref_sigma.shape
    assert sigma[0] == pytest.approx(ref_sigma[0], rel=1e-12, abs=0.0)
    if ref.shape[0] == 0:
        assert sigma[-1] == pytest.approx(ref_sigma[-1], rel=1e-12, abs=0.0)
    assert np.abs(null_projector(space) - null_projector(ref)).max() <= 1e-10


def bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def solver_case(kind: str, seed: int) -> np.ndarray:
    """Inputs of the stacked solver: a tree shift with random phases or with
    a zero weight, a dense matrix, or the real ``|T|`` of a tree shift."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return random_complex(rng, (int(rng.integers(2, 7)),) * 2)
    if kind == "real_dense":
        return rng.standard_normal((int(rng.integers(2, 7)),) * 2)
    if kind == "ones":
        tree = random_tree(rng, max_vertices=12)
        m = build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()}).matrix
    else:
        m = sylvester_case("tree_zero" if kind.endswith("zero") else "tree", seed)
    return np.abs(m) if kind.startswith("real") or kind == "ones" else m


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        ["tree", "tree_zero", "dense", "real_tree", "real_tree_zero", "ones", "real_dense"]
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_stacked_solve_matches_the_per_block_reference(kind, seed, joint):
    # complex systems: bit for bit the basis and singular values of one SVD
    # per block; real ones: the dimension of the dense kron oracles
    m = solver_case(kind, seed)
    mats = (m, m.conj().T) if joint else (m,)
    space, sigma = _sylvester_nullspace(mats, 1e-10)
    if m.dtype == complex:
        ref, ref_sigma = reference_sylvester_nullspace(mats, 1e-10)
        assert bits(space) == bits(ref)
        assert bits(sigma) == bits(ref_sigma)
    else:
        assert space.dtype == np.float64
        dense = dense_joint_sylvester_nullspace if joint else dense_sylvester_nullspace
        ref, _ref_sigma = dense(m, 1e-10)
        assert space.shape == ref.shape
        assert np.abs(null_projector(space) - null_projector(ref)).max() <= 1e-10


def test_polar_factor_survives_gesdd_nonconvergence():
    # LAPACK gesdd raises "SVD did not converge" on this 27x27 matrix, whose
    # singular values are tightly clustered in [0.855, 1.154], when OpenBLAS
    # runs on one thread.  It came from a mirror-violating (6, 10) two-branch
    # tree during the unitary search.
    script = (
        "import sys, numpy as np\n"
        "from treeshift.decider import _polar_factor\n"
        "a = np.load(sys.argv[1])\n"
        "p, _s = _polar_factor(a)\n"
        "h = p.conj().T @ a\n"
        "print(np.linalg.norm(p @ p.conj().T - np.eye(a.shape[0])),"
        " np.linalg.norm(h - h.conj().T) / np.linalg.norm(a))\n"
    )
    src = str(Path(treeshift.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(DATA / "polar_gesdd_nonconvergence.npy")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    unitary, hermitian = (float(x) for x in run.stdout.split())
    assert unitary <= 1e-12
    assert hermitian <= 1e-12


def test_unitary_search_identity_direction():
    n = 2
    space = [np.eye(n, dtype=complex) / np.sqrt(n)]
    found = unitary_search(space, seed=0)
    assert found is not None
    # the only unitaries in the span are unimodular multiples of I
    off = found - np.diag(np.diag(found))
    assert np.linalg.norm(off) <= 1e-8
    assert abs(abs(found[0, 0]) - 1.0) <= 1e-8
    assert abs(found[0, 0] - found[1, 1]) <= 1e-8


def test_unitary_search_finds_exchange():
    t = build_shift(generate_path(2), {"1": 1.0})
    space = sylvester_space(t.matrix)
    found = unitary_search(space, seed=0)
    assert found is not None
    assert np.linalg.norm(found @ found.conj().T - np.eye(2)) <= 1e-8
    assert np.linalg.norm(found - found.T) <= 1e-8
    assert np.linalg.norm(t.matrix @ found - found @ t.matrix.T) <= 1e-8


def test_unitary_search_empty_on_skew_space():
    # no unitary lies in the span of a rank-one symmetric projector direction
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    assert unitary_search([e11 * 0.0], seed=0) is None
    t = path3_shift(1.0, 2.0)
    assert unitary_search(sylvester_space(t.matrix), seed=0) is None


def test_decide_cs_branching_example(y_shift):
    verdict = decide_cs(y_shift)
    assert verdict.kind == "cs"
    assert verdict.certificate is not None
    assert verdict.residuals["intertwining"] <= 1e-10
    report = verify_c_symmetry(y_shift, verdict.certificate)
    assert report.passed


def test_decide_cs_trunked_branching_not_cs(trunked_y_shift):
    verdict = decide_cs(trunked_y_shift)
    assert verdict.kind == "not_cs"
    assert verdict.obstruction["kind"] == "word_trace"
    witness = verdict.obstruction["witness"]
    assert witness["word"] == ["T", "T", "T*", "T", "T*", "T*"]
    trace = complex(*witness["trace"])
    trace_rev = complex(*witness["trace_reversed"])
    assert trace == pytest.approx(5.0, abs=1e-12)
    assert trace_rev == pytest.approx(4.0, abs=1e-12)


def test_decide_cs_weighted_path_not_cs():
    verdict = decide_cs(path3_shift(1.0, 2.0))
    assert verdict.kind == "not_cs"
    assert verdict.obstruction["kind"] == "word_trace"


def test_decide_cs_equal_weight_path_cs():
    verdict = decide_cs(path3_shift(1.0, 1.0))
    assert verdict.kind == "cs"


def test_decide_cs_binary_equal_weights():
    tree = generate_binary(2)
    s = build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()})
    verdict = decide_cs(s)
    assert verdict.kind == "cs"
    assert verify_c_symmetry(s, verdict.certificate).passed


def test_decide_cs_one_by_one():
    verdict = decide_cs(np.zeros((1, 1), dtype=complex))
    assert verdict.kind == "cs"


def test_decide_cs_deterministic(trunked_y_shift, y_shift):
    for s in (trunked_y_shift, y_shift):
        first = dump_json(decide_cs(s).to_doc())
        second = dump_json(decide_cs(s).to_doc())
        assert first == second


def test_decide_cs_gauge_invariant(rng):
    tree = generate_path(4)
    weights = {
        v: complex(rng.standard_normal(), rng.standard_normal())
        for v in tree.nonroot_vertices()
    }
    s = build_shift(tree, weights)
    positive, _gauge = positivize_weights(tree, weights)
    s_pos = build_shift(tree, positive)
    assert decide_cs(s).kind == decide_cs(s_pos).kind


def phased_tree_shifts(count=30, seed=7):
    """Random trees with random phases; every third has one zero weight."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        tree = random_tree(rng, max_vertices=10)
        weights = random_weights(rng, tree)
        if rng.random() < 0.5:  # equal moduli: complex symmetric more often
            weights = {v: w / abs(w) for v, w in weights.items()}
        if k % 3 == 2:
            weights[sorted(weights)[int(rng.integers(len(weights)))]] = 0.0
        yield build_shift(tree, weights)


def test_a_shift_and_its_bare_matrix_give_the_same_report():
    kinds = set()
    for s in phased_tree_shifts():
        doc = dump_json(decide_cs(s).to_doc())
        assert dump_json(decide_cs(s.matrix, basis=s.basis).to_doc()) == doc
        kinds.add(decide_cs(s).kind)
    assert kinds == {"cs", "not_cs"}


def test_verdict_kind_does_not_depend_on_phases_or_arithmetic(monkeypatch):
    # the phases gauge away, a zero weight included; and the real path on |T|
    # decides as the complex path on T does
    shifts = list(phased_tree_shifts())
    real = [decide_cs(s) for s in shifts]
    for s, verdict in zip(shifts, real):
        assert decide_cs(np.abs(s.matrix)).kind == verdict.kind
        if verdict.kind == "cs":
            assert verify_c_symmetry(s, verdict.certificate).passed
        else:
            ok, _margin = reevaluate_obstruction(s, verdict.obstruction)
            assert ok
    monkeypatch.setattr(decider, "tree_gauge", lambda m: None)
    for s, verdict in zip(shifts, real):
        assert decide_cs(s).kind == verdict.kind


def test_verdict_doc_shape(y_shift):
    doc = decide_cs(y_shift).to_doc()
    assert set(doc) == {
        "verdict",
        "certificate",
        "obstruction",
        "residuals",
        "diagnostics",
        "seed",
        "options",
    }
    assert doc["verdict"] == "cs"
    assert doc["obstruction"] is None
    assert doc["certificate"]["basis"] == list(y_shift.basis)


def test_reevaluate_word_trace(trunked_y_shift):
    verdict = decide_cs(trunked_y_shift)
    ok, margin = reevaluate_obstruction(trunked_y_shift, verdict.obstruction)
    assert ok
    assert margin == pytest.approx(1.0, abs=1e-12)


def test_reevaluate_rejects_stale_witness(y_shift):
    stale = {
        "kind": "word_trace",
        "witness": {"word": ["T", "T", "T*", "T", "T*", "T*"]},
    }
    ok, margin = reevaluate_obstruction(y_shift, stale)
    assert not ok
    assert margin <= 1e-10


def test_reevaluate_unknown_kind(y_shift):
    with pytest.raises(ValueError, match="unknown obstruction"):
        reevaluate_obstruction(y_shift, {"kind": "nonsense", "witness": {}})


RANK_CUTS_BELOW_NOISE = (1e-10, 1e-17, 0.0)


def complex_symmetric_matrices():
    # [[1, 2], [2, 3]] plus 40 random A + A^T, n = 2..8
    rng = np.random.default_rng(0)
    mats = [np.array([[1, 2], [2, 3]], dtype=complex)]
    for k in range(40):
        a = random_complex(rng, (2 + k % 7,) * 2)
        mats.append(a + a.T)
    return mats


def test_complex_symmetric_matrices_never_not_cs_at_any_rank_cut():
    # T = T^T is certified by complex conjugation, so no rank cut, however
    # far below the rounding noise, may turn it into a not_cs verdict
    for rank_rtol in RANK_CUTS_BELOW_NOISE:
        opts = DeciderOptions(rank_rtol=rank_rtol)
        for i, t in enumerate(complex_symmetric_matrices()):
            verdict = decide_cs(t, opts)
            assert verdict.kind != "not_cs", (rank_rtol, i, verdict.obstruction)
            if verdict.kind == "cs":
                assert verify_c_symmetry(t, verdict.certificate).passed


def test_complex_symmetric_matrices_certified_below_the_noise_floor():
    # the rank cut is floored at the rounding noise, so the identity stays in
    # the Sylvester space of T = T^T and the search still finds a certificate
    for rank_rtol in (1e-17, 0.0):
        opts = DeciderOptions(rank_rtol=rank_rtol)
        for i, t in enumerate(complex_symmetric_matrices()):
            verdict = decide_cs(t, opts)
            assert verdict.kind == "cs", (rank_rtol, i)
            assert verify_c_symmetry(t, verdict.certificate).passed


@pytest.mark.parametrize("rank_rtol", [1e-14, 1e-16])
def test_not_cs_witnesses_replay_under_tight_rank_cuts(rank_rtol):
    # Q N Q* with N strictly lower triangular is nilpotent up to rounding;
    # a rank cut below that rounding must not yield a witness that fails to
    # replay from the matrix
    rng = np.random.default_rng(0)
    opts = DeciderOptions(rank_rtol=rank_rtol)
    for k in range(20):
        n = 3 + k % 5
        q, _r = np.linalg.qr(random_complex(rng, (n, n)))
        t = q @ np.tril(random_complex(rng, (n, n)), -1) @ q.conj().T
        verdict = decide_cs(t, opts)
        if verdict.kind == "not_cs":
            ok, margin = reevaluate_obstruction(t, verdict.obstruction, verdict.options)
            assert ok, (k, verdict.obstruction)
            assert margin == verdict.residuals["witness_margin"]


def ones_two_branch(kappa, theta, bump=None):
    """All-ones two-branch tree and its rational weights, one optionally
    changed to ``bump = (vertex, value)``."""
    tree = generate_two_branch(kappa, theta)
    weights = {v: Fraction(1) for v in tree.nonroot_vertices()}
    if bump is not None:
        weights[bump[0]] = Fraction(bump[1])
    return tree, weights


# no word of up to 8 letters separates these; each W is one singular line
STRUCTURE_CASES = [(3, 3, None), (2, 4, None), (2, 5, None), (2, 4, ("1,1", 2))]


@pytest.mark.parametrize("kappa, theta, bump", STRUCTURE_CASES)
def test_structure_witness_matches_exact_rational_oracle(kappa, theta, bump):
    tree, weights = ones_two_branch(kappa, theta, bump)
    exact = exact_joint_sylvester_space(tree, weights)
    assert len(exact) == 1
    element = exact[0]
    assert exact_rank(element) < tree.n
    s = build_shift(tree, {v: float(w) for v, w in weights.items()})
    verdict = decide_cs(s)
    assert verdict.kind == "not_cs"
    assert verdict.obstruction["kind"] == "structure"
    witness = verdict.obstruction["witness"]
    assert witness["dim"] == len(exact)
    assert witness["spread"] <= 1e-12  # the exact element is singular
    assert verdict.diagnostics["sylvester_dim"] == 1
    # the computed element spans the exact line and has its rank
    space, _sigma = _sylvester_nullspace(
        (s.matrix, s.matrix.conj().T), 1e-10
    )
    b = np.array(element, dtype=float)
    assert abs(np.vdot(b, space[0])) / np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
    assert numerical_rank(space[0]) == exact_rank(element)


def random_tree_matrices(count=60, seed=5, max_vertices=10):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        tree = random_tree(rng, max_vertices=max_vertices)
        mats.append(build_shift(tree, random_weights(rng, tree)).matrix)
    return mats


def structure_witnesses():
    # all-ones and bumped two-branch trees at scale 1, and random trees at
    # 1e-8, where no word gap clears the threshold's absolute floor
    for kappa, theta, bump in STRUCTURE_CASES:
        tree, weights = ones_two_branch(kappa, theta, bump)
        yield build_shift(tree, {v: float(w) for v, w in weights.items()}).matrix
    for m in random_tree_matrices():
        yield 1e-8 * m


def test_structure_witnesses_replay_and_fail_on_a_cs_matrix():
    dims = set()
    for m in structure_witnesses():
        verdict = decide_cs(m)
        if verdict.kind != "not_cs":
            continue
        assert verdict.obstruction["kind"] == "structure"
        dims.add(verdict.obstruction["witness"]["dim"])
        ok, margin = reevaluate_obstruction(m, verdict.obstruction, verdict.options)
        assert ok and math.isfinite(margin)
        assert margin == verdict.residuals["witness_margin"]
        # the equal-weight path of the same size is complex symmetric
        path = generate_path(m.shape[0])
        cs = build_shift(path, {v: 1.0 for v in path.nonroot_vertices()})
        ok, margin = reevaluate_obstruction(cs, verdict.obstruction, verdict.options)
        assert not ok and math.isfinite(margin)
    assert dims == {0, 1}


SCALES = (1e-150, 1e-8, 1.0, 1e8, 1e150)


def verdict_key(verdict):
    # kind and, for a structure witness, the dimension of W
    obstruction = verdict.obstruction or {}
    return verdict.kind, obstruction.get("kind"), obstruction.get("witness", {}).get("dim")


def test_structure_verdicts_do_not_depend_on_scale():
    # at c = 1 the random trees go to the word stage first; at the other
    # scales a word gap rarely clears its threshold (an absolute floor below,
    # an overflowing power above) and the structure stage decides
    for kappa, theta, bump in STRUCTURE_CASES:
        tree, weights = ones_two_branch(kappa, theta, bump)
        m = build_shift(tree, {v: float(w) for v, w in weights.items()}).matrix
        keys = {verdict_key(decide_cs(c * m)) for c in SCALES}
        assert keys == {("not_cs", "structure", 1)}
    recovered = 0
    for m in random_tree_matrices():
        kinds = {
            c: verdict_key(decide_cs(c * m)) for c in SCALES
        }
        structure = {k for k in kinds.values() if k[1] == "structure"}
        if structure:
            assert kinds[1.0][0] == "not_cs"
            assert len(structure) == 1
            assert all(kinds[c] in structure for c in (1e-150, 1e-8, 1e150))
            recovered += 1
        assert {k[0] for k in kinds.values()} <= {kinds[1.0][0], "undetermined"}
    # the parent of this stage returned undetermined on all of these at 1e-8
    assert recovered >= 40


def test_one_shot_certificate_exists_iff_the_search_finds_one():
    # the polar factor of one generic element of W against the reference
    # multi-start search, on the same basis of W(|T|)
    mats = [s.matrix for s in phased_tree_shifts(count=24, seed=11)]
    for kappa, theta, bump in STRUCTURE_CASES:
        tree, weights = ones_two_branch(kappa, theta, bump)
        mats.append(build_shift(tree, {v: float(w) for v, w in weights.items()}).matrix)
    found = set()
    for m in mats:
        work, gauge = _gauged(m)
        assert gauge is not None
        space, _sigma = _sylvester_nullspace((work, work.T), 1e-10)
        basis = tuple(str(i) for i in range(m.shape[0]))
        cert, _report, _spread = _one_shot_certificate(space, gauge, m, basis, 0, 1e-10)
        searched = unitary_search(space, seed=0)
        assert (cert is not None) == (searched is not None)
        found.add(cert is not None)
    assert found == {True, False}


@pytest.mark.parametrize("eps", [1e-9, 1e-8])
def test_structure_stage_leaves_a_narrow_gap_undetermined(eps):
    # T0 = A + A^T is complex symmetric; T0 + eps E has dim W = 0 here, but
    # its smallest kept singular value is only ~eps, under 1e3 times the cut,
    # so W = {0} is not a witness
    rng = np.random.default_rng(0)
    for k in range(8):
        n = 3 + k % 4
        a = random_complex(rng, (n, n))
        t0 = a + a.T
        e = random_complex(rng, (n, n))
        t = t0 + eps * np.linalg.norm(t0) * e / np.linalg.norm(e)
        verdict = decide_cs(t)
        assert verdict.kind == "undetermined", (k, verdict.obstruction)
        assert verdict.diagnostics["sylvester_dim"] <= 1
