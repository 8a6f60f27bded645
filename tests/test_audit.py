import numpy as np
import pytest

from treeshift import (
    binary_cs_condition,
    build_shift,
    cross_validate,
    decide_cs,
    dump_json,
    generate_binary,
    soundness_fuzz,
    two_branch_cs_condition,
    verify_c_symmetry,
)
from treeshift.audit import (
    random_tree,
    random_weights,
    sample_binary_weights,
    sample_two_branch_weights,
    two_branch_mirror_classes,
)


def test_random_tree_is_valid(rng):
    from treeshift import validate_tree

    for _ in range(20):
        tree = random_tree(rng, max_vertices=12)
        assert 2 <= tree.n <= 12
        assert validate_tree(tree).ok


def test_random_weights_cover_all_nonroot_vertices(rng):
    tree = random_tree(rng, max_vertices=9)
    weights = random_weights(rng, tree)
    assert set(weights) == set(tree.nonroot_vertices())
    assert all(abs(w) > 0.1 for w in weights.values())


def test_mirror_classes_adjacent_sizes():
    classes, pairs = two_branch_mirror_classes(2, 3)
    # trunk indices -1, 0 pair with arm tail indices 3, 2; index 1 is free
    assert {frozenset((a, b)) for a, b, _ in pairs} >= {
        frozenset((-1, 3)),
        frozenset((0, 2)),
    }
    root_of_one, ratio_of_one = classes[1]
    assert root_of_one == 1 and ratio_of_one == 1.0


def test_mirror_classes_trivial_cell():
    _classes, pairs = two_branch_mirror_classes(0, 1)
    assert pairs == []


def test_mirror_classes_wide_gap_carries_sqrt2():
    _classes, pairs = two_branch_mirror_classes(0, 2)
    ratios = [r for _a, _b, r in pairs]
    assert any(abs(r - np.sqrt(2.0)) < 1e-12 or abs(r - 1 / np.sqrt(2.0)) < 1e-12 for r in ratios)


def test_satisfying_samples_satisfy(rng):
    for kappa, theta in ((0, 1), (1, 2), (2, 3), (0, 2)):
        w = sample_two_branch_weights(kappa, theta, rng, satisfying=True)
        assert two_branch_cs_condition(w).satisfied or (kappa, theta) == (0, 2)
        # the operator itself is complex symmetric in every sampled case
        from treeshift import generate_two_branch, two_branch_conjugation

        conj = two_branch_conjugation(w)
        s = build_shift(generate_two_branch(kappa, theta), w.to_assignment())
        assert verify_c_symmetry(s, conj, tol=1e-8).passed


def test_violating_samples_violate(rng):
    for kappa, theta in ((1, 2), (2, 3), (3, 4)):
        w = sample_two_branch_weights(kappa, theta, rng, satisfying=False)
        assert not two_branch_cs_condition(w).satisfied


def test_binary_satisfying_sampler_yields_cs(rng):
    w = sample_binary_weights(2, rng, satisfying=True)
    tree = generate_binary(2)
    s = build_shift(tree, w.to_assignment())
    assert decide_cs(s).kind == "cs"


def test_binary_violating_sampler_yields_not_cs(rng):
    w = sample_binary_weights(2, rng, satisfying=False)
    tree = generate_binary(2)
    s = build_shift(tree, w.to_assignment())
    assert decide_cs(s).kind == "not_cs"
    assert not binary_cs_condition(w).satisfied


def test_cross_validate_two_branch_report():
    report = cross_validate("two-branch", [(0, 1), (1, 2)], samples=6, seed=5)
    assert report["family"] == "two-branch"
    assert report["summary"]["instances"] == 12
    assert report["summary"]["agreements"] + len(report["summary"]["disagreements"]) == 12
    assert report["summary"]["all_disagreements_certified"]
    matrix = report["summary"]["agreement_matrix"]
    assert sum(matrix.values()) == 12
    for record in report["instances"]:
        assert record["certified"]
        assert set(record) >= {
            "params",
            "weights",
            "printed_condition",
            "decider",
            "pairing",
            "agree",
            "certified",
        }


def test_cross_validate_is_deterministic():
    a = cross_validate("two-branch", [(1, 2)], samples=4, seed=9)
    b = cross_validate("two-branch", [(1, 2)], samples=4, seed=9)
    assert dump_json(a) == dump_json(b)


def test_cross_validate_refuses_an_unknown_family():
    with pytest.raises(ValueError, match="^unknown family 'path'$"):
        cross_validate("path", [2], samples=1)


def test_cross_validate_binary_cells():
    report = cross_validate("binary", [2], samples=4, seed=3)
    assert report["summary"]["instances"] == 4
    assert report["summary"]["all_disagreements_certified"]


def test_cross_validate_empty_grid():
    for family in ("two-branch", "binary"):
        report = cross_validate(family, [], samples=4, seed=0)
        assert report["summary"]["instances"] == 0
        assert report["cells"] == [] and report["instances"] == []
        assert report["summary"]["agreement_matrix"] == {
            "printed_true_oracle_cs": 0,
            "printed_true_oracle_not_cs": 0,
            "printed_false_oracle_cs": 0,
            "printed_false_oracle_not_cs": 0,
            "oracle_undetermined": 0,
        }


def test_cross_validate_rejects_oversized_cell():
    with pytest.raises(ValueError, match="127"):
        cross_validate("binary", [7], samples=1, seed=0)


def test_cross_validate_anchors_are_included():
    anchors = {(0, 2): [(1.0, np.sqrt(2.0))]}
    report = cross_validate("two-branch", [(0, 2)], samples=2, seed=1, anchors=anchors)
    first = report["instances"][0]
    assert first["params"] == {"kappa": 0, "theta": 2}
    mods = sorted(abs(complex(*pair)) for pair in first["weights"].values())
    assert mods == pytest.approx([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)])
    # the stated test turns the anchor away yet the decider certifies it
    assert first["printed_condition"]["satisfied"] is False
    assert first["decider"]["verdict"] == "cs"
    assert first["agree"] is False
    assert first["certified"] is True
    assert any(not r["agree"] for r in report["instances"])
    assert report["summary"]["all_disagreements_certified"]


def test_large_weight_certificate_is_recorded_as_certified():
    # at weights 1e9 the certificate's residual (~5e-6) is far above tol in
    # absolute terms but within tol ||T||_F, the bound verify_c_symmetry uses
    report = cross_validate("binary", [2], samples=0, anchors={2: [(1e9, 1e9)]})
    (record,) = report["instances"]
    assert record["decider"]["verdict"] == "cs"
    assert record["certification"]["residual"] > report["tol"]
    assert record["certified"] is True


def test_soundness_fuzz_small_run():
    report = soundness_fuzz(instances=40, seed=11, max_vertices=10)
    counts = report["counts"]
    assert sum(counts.values()) == 40
    assert report["failed_certificates"] == 0
    assert report["failed_obstructions"] == 0
    assert report["pairing_contradictions"] == 0
    assert report["pairing_checked"] > 0
    assert report["worst_certificate_residual"] <= 1e-8


def test_soundness_fuzz_deterministic():
    a = soundness_fuzz(instances=15, seed=2, max_vertices=8)
    b = soundness_fuzz(instances=15, seed=2, max_vertices=8)
    assert dump_json(a) == dump_json(b)
