"""End-to-end checklist for the package's headline guarantees.

Each test prints a single PASS or FAIL line, so ``pytest -v`` doubles as a
human-readable scorecard.  The heavyweight audit reports are built once per
module and shared across the criteria that consume them.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from treeshift import (
    BroomSchedule,
    TwoBranchWeights,
    build_broom_conjugation,
    build_shift,
    conjugation_from_matrix,
    cross_validate,
    decide_cs,
    dump_json,
    generate_path,
    generate_two_branch,
    kernel_table,
    reevaluate_obstruction,
    solve_h_sequence,
    soundness_fuzz,
    two_branch_conjugation,
    two_level_kernel_structure,
    verify_c_symmetry,
    word_trace_obstruction,
)
from treeshift.serialize import pair_to_complex
from oracles import complex_word_trace, exact_kernel_dim, fraction_transpose, shift_matrix_fraction

SQRT2 = math.sqrt(2.0)

GRID = [(0, 1), (1, 2), (2, 3), (3, 4)]
GRID_SEED = 414
FUZZ_SEED = 606
AUDIT_SEED = 808


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:02d}] PASS  {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def grid_report():
    return cross_validate("two-branch", GRID, samples=20, seed=GRID_SEED, tol=1e-8)


@pytest.fixture(scope="module")
def fuzz_report():
    return soundness_fuzz(instances=200, seed=FUZZ_SEED, max_vertices=15, tol=1e-8)


def run_audit_pair():
    two_branch = cross_validate(
        "two-branch",
        [(0, 2)],
        samples=6,
        seed=AUDIT_SEED,
        tol=1e-8,
        anchors={(0, 2): [(1.0, SQRT2)]},
    )
    binary = cross_validate(
        "binary",
        [2],
        samples=6,
        seed=AUDIT_SEED,
        tol=1e-8,
        anchors={2: [(1.0, 1.0)]},
    )
    return two_branch, binary


@pytest.fixture(scope="module")
def audit_reports():
    return run_audit_pair()


@criterion(1, "golden branching example: printed conjugation verifies, decider agrees")
def test_criterion_01(y_shift):
    basis = list(y_shift.basis)
    e = np.eye(4, dtype=complex)
    i0, i11, i21, i22 = (basis.index(v) for v in ("0", "1,1", "2,1", "2,2"))
    images = [
        ("0", e[i22]),
        ("1,1", (e[i21] - e[i11]) / SQRT2),
        ("2,1", (e[i11] + e[i21]) / SQRT2),
        ("2,2", e[i0]),
    ]
    # the images are listed in basis order; column k of C's matrix is C e_k
    assert [label for label, _image in images] == basis
    conj = conjugation_from_matrix(np.column_stack([image for _label, image in images]), y_shift.basis)
    report = verify_c_symmetry(y_shift, conj, tol=1e-12)
    assert report.passed
    assert report.residual <= 1e-12

    verdict = decide_cs(y_shift)
    assert verdict.kind == "cs"
    assert verify_c_symmetry(y_shift, verdict.certificate, tol=1e-10).passed


@criterion(2, "trunked golden example: kernel dims (3,3) at power 2 and a recomputable not_cs witness")
def test_criterion_02(trunked_y_shift):
    # A recorded expectation of dims (3, 4) at power 2 with a kernel-dimension
    # obstruction was dropped: for a finite square matrix rank(M^m) equals
    # rank((M^m)*), so dim ker S^m = dim ker S*^m at every power and (3, 4)
    # cannot occur.  The table is pinned against exact rational ranks instead,
    # and non-symmetry against a word-trace witness: a complex symmetric T has
    # tr w(T, T*) = tr of the reversed word, so unequal traces rule it out.
    tree = trunked_y_shift.tree
    exact = shift_matrix_fraction(tree, {v: Fraction(1) for v in tree.nonroot_vertices()})
    exact_adj = fraction_transpose(exact)
    n = trunked_y_shift.n
    table = kernel_table(trunked_y_shift, max_power=n)
    assert table.rows == tuple(
        (m, exact_kernel_dim(exact, m), exact_kernel_dim(exact_adj, m)) for m in range(1, n + 1)
    )
    assert table.rows[1] == (2, 3, 3)

    verdict = decide_cs(trunked_y_shift)
    assert verdict.kind == "not_cs"
    obstruction = verdict.obstruction
    assert obstruction["kind"] != "kernel_dim"
    ok, margin = reevaluate_obstruction(trunked_y_shift, obstruction)
    assert ok
    assert margin >= 1.0 - 1e-12

    assert obstruction["kind"] == "word_trace"
    witness = obstruction["witness"]
    word = list(witness["word"])
    slow = complex_word_trace(exact, word)
    slow_rev = complex_word_trace(exact, word[::-1])
    assert (slow, slow_rev) == (5, 4)
    assert complex(*witness["trace"]) == pytest.approx(slow, abs=1e-12)
    assert complex(*witness["trace_reversed"]) == pytest.approx(slow_rev, abs=1e-12)
    assert margin == pytest.approx(abs(slow - slow_rev), abs=1e-12)


@criterion(3, "kernel dimensions on two-branch trees match closed-form counts")
def test_criterion_03():
    rng = np.random.default_rng(31)
    for kappa in range(0, 4):
        for theta in range(1, 5):
            tree = generate_two_branch(kappa, theta)
            depths = sorted({tree.depth_of(v) for v in tree.nonroot_vertices()})
            level = {d: float(rng.uniform(0.5, 2.0)) for d in depths}
            weights = {v: level[tree.depth_of(v)] for v in tree.nonroot_vertices()}
            s = build_shift(tree, weights)
            for m, dim_ker, dim_ker_adj in kernel_table(s, max_power=s.n).rows:
                want_ker = 2 * min(m, theta) + max(0, min(m - theta, kappa + 1))
                want_adj = min(m, kappa + theta + 1) + min(m, theta)
                assert dim_ker == want_ker, (kappa, theta, m)
                assert dim_ker_adj == want_adj, (kappa, theta, m)


@criterion(4, "adjacent-size grid: printed condition and decider agree on all instances")
def test_criterion_04(grid_report):
    summary = grid_report["summary"]
    assert summary["instances"] == 80
    assert summary["agreements"] == 80
    assert summary["disagreements"] == []
    assert summary["all_disagreements_certified"]
    assert summary["agreement_matrix"]["oracle_undetermined"] == 0
    for record in grid_report["instances"]:
        assert record["certified"]


@criterion(5, "constructed conjugation succeeds on every satisfying grid instance")
def test_criterion_05(grid_report):
    checked = 0
    for record in grid_report["instances"]:
        if not record["printed_condition"]["satisfied"]:
            continue
        kappa = record["params"]["kappa"]
        theta = record["params"]["theta"]
        weights = {k: pair_to_complex(v) for k, v in record["weights"].items()}
        trunk = tuple(weights[str(l)] for l in range(-kappa + 1, 1))
        branch = tuple(weights[f"1,{j}"] for j in range(1, theta + 1))
        w = TwoBranchWeights(kappa=kappa, theta=theta, trunk=trunk, branch=branch)
        conj = two_branch_conjugation(w)
        s = build_shift(generate_two_branch(kappa, theta), w.to_assignment())
        report = verify_c_symmetry(s, conj, tol=1e-10)
        assert report.passed, (kappa, theta)
        assert report.residual <= 1e-10 * max(1.0, float(np.linalg.norm(s.matrix)))
        checked += 1
    assert checked >= 40


@criterion(6, "random-tree fuzz: every certificate re-verifies, every witness re-fires")
def test_criterion_06(fuzz_report):
    assert sum(fuzz_report["counts"].values()) == 200
    assert fuzz_report["failed_certificates"] == 0
    assert fuzz_report["failed_obstructions"] == 0
    assert fuzz_report["worst_certificate_residual"] <= 1e-8
    assert fuzz_report["pairing_checked"] > 0
    assert fuzz_report["pairing_contradictions"] == 0


@criterion(7, "weighted path word-trace witness: traces 16 vs 4")
def test_criterion_07():
    s = build_shift(generate_path(3), {"1": 1.0, "2": 2.0})
    verdict = decide_cs(s)
    assert verdict.kind == "not_cs"
    # a path is one chain, decided by its reversal before any word
    assert verdict.obstruction["kind"] == "chain_reversal"
    assert verdict.obstruction["witness"]["weights"] == [1.0, 2.0]
    assert reevaluate_obstruction(s, verdict.obstruction)[0]
    witness = word_trace_obstruction(s)
    assert complex(*witness["trace"]) == pytest.approx(16.0, abs=1e-12)
    assert complex(*witness["trace_reversed"]) == pytest.approx(4.0, abs=1e-12)

    s_eq = build_shift(generate_path(3), {"1": 1.0, "2": 1.0})
    verdict_eq = decide_cs(s_eq)
    assert verdict_eq.kind == "cs"
    assert verify_c_symmetry(s_eq, verdict_eq.certificate, tol=1e-10).passed


@criterion(8, "audit reports exist and every printed-vs-oracle disagreement is certified")
def test_criterion_08(audit_reports):
    two_branch, binary = audit_reports
    for report in (two_branch, binary):
        assert report["summary"]["instances"] > 0
        assert report["summary"]["all_disagreements_certified"]
        for record in report["instances"]:
            assert record["certified"]

    # the anchored instances must be present with their exact moduli
    anchored = two_branch["instances"][0]
    mods = sorted(abs(pair_to_complex(p)) for p in anchored["weights"].values())
    assert mods == pytest.approx([1.0, 1.0, SQRT2, SQRT2])
    anchored_bin = binary["instances"][0]
    mods_bin = {abs(pair_to_complex(p)) for p in anchored_bin["weights"].values()}
    assert mods_bin == {1.0}


@criterion(9, "steep broom schedule: feasible, tight Gram invariants, orthonormal images")
def test_criterion_09():
    sched = BroomSchedule(lambdas=tuple(10.0 ** (-i) for i in range(1, 7)))
    h = solve_h_sequence(sched)
    assert all(s2 > 0 for s2 in h.s_squared)
    assert h.gram_offdiag_residual() <= 1e-9
    assert h.norm_residual() <= 1e-9

    emb = build_broom_conjugation(sched, h=h, n_teeth=13, tol=1e-8)
    rep = emb.report
    assert rep["teeth"] == 13
    assert rep["g_norm_residual"] <= 1e-9
    assert rep["g_orthogonality_residual"] <= 1e-9
    assert rep["g_f0_residual"] <= 1e-9
    assert len(rep["intertwining_residuals"]) == 7  # e_0 .. e_6
    assert rep["max_intertwining_residual"] <= 1e-8


@criterion(10, "two-level broom kernels land on the predicted subspaces")
def test_criterion_10():
    rng = np.random.default_rng(101)
    for n in range(1, 6):
        level1 = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n))
        level2 = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n))
        info = two_level_kernel_structure(level1, level2, tol=1e-10)
        assert info["dim_ker_s"] == info["expected_dim_ker_s"] == n
        assert info["dim_ker_s_star"] == info["expected_dim_ker_s_star"]
        assert info["distance_ker_s_vs_h2"] <= 1e-10
        assert info["distance_ker_s_star_perp_vs_f1_plus_h2"] <= 1e-10
        assert info["passed"]


@criterion(11, "same-seed reruns reproduce the reports byte for byte")
def test_criterion_11(grid_report, fuzz_report, audit_reports):
    grid_again = cross_validate("two-branch", GRID, samples=20, seed=GRID_SEED, tol=1e-8)
    assert dump_json(grid_again) == dump_json(grid_report)

    fuzz_again = soundness_fuzz(instances=200, seed=FUZZ_SEED, max_vertices=15, tol=1e-8)
    assert dump_json(fuzz_again) == dump_json(fuzz_report)

    audits_again = run_audit_pair()
    assert dump_json(audits_again[0]) == dump_json(audit_reports[0])
    assert dump_json(audits_again[1]) == dump_json(audit_reports[1])
