import math

import numpy as np
import pytest

from treeshift import (
    BinaryWeights,
    BlockDecomposition,
    DirectedTree,
    FamilyConditionError,
    TwoBranchWeights,
    binary_cs_condition,
    build_shift,
    chains_to_matrix,
    classify_tree_family,
    decide_cs,
    decompose_equal_weight_tree,
    generate_binary,
    generate_broom,
    generate_path,
    generate_two_branch,
    generate_two_level_broom,
    is_palindromic,
    positivize_weights,
    random_tree,
    reversal_pairing_conjugation,
    sample_binary_weights,
    sample_two_branch_weights,
    two_branch_conjugation,
    two_branch_cs_condition,
    two_branch_phase_sequences,
    verify_c_symmetry,
)
from treeshift.decider import _chains as reduced_chains
from treeshift.families import _reversal_flip
from treeshift.shift import _forest, twin_reduction

SQRT2 = math.sqrt(2.0)


def tb(kappa, theta, trunk, branch):
    return TwoBranchWeights(kappa=kappa, theta=theta, trunk=tuple(trunk), branch=tuple(branch))


# ---------------------------------------------------------------- conditions


@pytest.mark.parametrize("build, field", [
    (lambda: TwoBranchWeights(kappa=-1, theta=2, trunk=(), branch=(1.0,)), "kappa"),
    (lambda: TwoBranchWeights(kappa=1, theta=0, trunk=(1.0,), branch=()), "theta"),
    (lambda: BinaryWeights(kappa=1, levels=(1.0,)), "kappa"),
    (lambda: BinaryWeights(kappa=-1, levels=()), "kappa"),
], ids=["two-branch-kappa-1", "two-branch-theta0", "binary-kappa1", "binary-kappa-1"])
def test_family_weights_refuse_parameters_their_trees_refuse(build, field):
    # the generators refuse these sizes; the weights used to accept them
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        build()


def test_two_branch_weights_accessors():
    w = tb(1, 2, (2.0,), (3.0, 5.0))
    assert w.weight(0) == 2.0
    assert w.weight(1) == 3.0
    assert w.weight(2) == 5.0
    assert w.in_range(-0) and w.in_range(2) and not w.in_range(3)


def test_two_branch_satisfied_palindrome():
    report = two_branch_cs_condition(tb(1, 2, (1.0,), (5.0, 1.0)))
    assert report.satisfied
    assert all(c["holds"] for c in report.clauses)


def test_two_branch_violated_names_first_clause():
    report = two_branch_cs_condition(tb(1, 2, (1.0,), (1.0, 2.0)))
    assert not report.satisfied
    failing = [c for c in report.clauses if not c["holds"]]
    assert failing
    assert failing[0]["j"] == 1


def test_two_branch_armless_sqrt2_rejected_by_stated_test():
    # moduli (1, sqrt(2)) make the operator complex symmetric, yet the
    # stated inequality set for theta - kappa != 1 turns it away; the
    # cross-validation report records this as a certified disagreement
    report = two_branch_cs_condition(tb(0, 2, (), (1.0, SQRT2)))
    assert not report.satisfied


def test_two_branch_excluded_index_is_logged():
    report = two_branch_cs_condition(tb(2, 4, (1.0, 1.0), (1.0, 1.0, 1.0, 1.0)))
    assert any(item.get("excluded_by_printed_set") for item in report.skipped)
    assert all("clause" in item and "j" in item for item in report.skipped)


def test_two_branch_report_doc():
    doc = two_branch_cs_condition(tb(1, 2, (1.0,), (5.0, 1.0))).to_doc()
    assert set(doc) == {"satisfied", "clauses", "skipped"}


def test_binary_condition_kappa2():
    report = binary_cs_condition(BinaryWeights(kappa=2, levels=(1.0, 2.0)))
    assert not report.satisfied
    by_l = {c["l"]: c["holds"] for c in report.clauses}
    assert by_l[0] is True
    assert by_l[1] is False
    assert any(item.get("out_of_range_indices") for item in report.skipped)


def test_binary_condition_unsatisfiable_for_deep_trees(rng):
    # 2|w| = |w'| comparisons chain into a contradiction once kappa >= 2
    for kappa in (2, 3, 4):
        levels = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(kappa))
        report = binary_cs_condition(BinaryWeights(kappa=kappa, levels=levels))
        assert not report.satisfied


def test_is_palindromic():
    assert is_palindromic((1.0, 2.0, 1.0))
    assert is_palindromic((3.0,))
    assert not is_palindromic((1.0, 2.0))
    assert is_palindromic((1.0, -2.0, 1j))  # moduli only


# ----------------------------------------------------- phase recursions


def test_phase_sequences_positive_palindrome_are_ones():
    # trunk and arm tail share one modulus; the first arm weight is free
    deltas, gammas = two_branch_phase_sequences(tb(2, 3, (1.0, 1.0), (5.0, 1.0, 1.0)))
    assert np.allclose(deltas, 1.0, atol=1e-12)
    assert np.allclose(gammas, 1.0, atol=1e-12)


def test_phase_sequences_unimodular_for_complex_weights():
    phases = np.exp(1j * np.array([0.3, 1.1, -0.7, 2.0, 0.1]))
    w = tb(2, 3, (phases[0], phases[1]), (5.0 * phases[2], phases[3], phases[4]))
    deltas, gammas = two_branch_phase_sequences(w)
    assert np.allclose(np.abs(deltas), 1.0, atol=1e-12)
    assert np.allclose(np.abs(gammas), 1.0, atol=1e-12)


def test_phase_sequences_report_failing_step():
    with pytest.raises(FamilyConditionError, match="j=1"):
        two_branch_phase_sequences(tb(1, 2, (1.0,), (1.0, 2.0)))


# ------------------------------------------------------- constructions


def test_two_branch_conjugation_equal_weights():
    w = tb(1, 2, (1.0,), (1.0, 1.0))
    conj = two_branch_conjugation(w)
    s = build_shift(generate_two_branch(1, 2), w.to_assignment())
    report = verify_c_symmetry(s, conj, tol=1e-12)
    assert report.passed


def test_two_branch_conjugation_random_satisfying(rng):
    # adjacent sizes: trunk and the arm tail share one modulus, the first
    # arm weight is unconstrained
    for kappa, theta in ((1, 2), (2, 3), (0, 1)):
        a = float(rng.uniform(0.6, 1.8))
        b = float(rng.uniform(0.6, 1.8))
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=kappa + theta))
        trunk = tuple(a * p for p in phases[:kappa])
        branch = tuple(m * p for m, p in zip([b] + [a] * (theta - 1), phases[kappa:]))
        w = tb(kappa, theta, trunk, branch)
        conj = two_branch_conjugation(w)
        s = build_shift(generate_two_branch(kappa, theta), w.to_assignment())
        assert verify_c_symmetry(s, conj, tol=1e-10).passed


def test_two_branch_conjugation_random_satisfying_wide_gap(rng):
    # non-adjacent sizes additionally pin the first arm modulus to the
    # common level divided by sqrt(2)
    for kappa, theta in ((0, 2), (1, 3)):
        a = float(rng.uniform(0.6, 1.8))
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=kappa + theta))
        trunk = tuple(a * p for p in phases[:kappa])
        branch = tuple(
            m * p for m, p in zip([a / SQRT2] + [a] * (theta - 1), phases[kappa:])
        )
        w = tb(kappa, theta, trunk, branch)
        conj = two_branch_conjugation(w)
        s = build_shift(generate_two_branch(kappa, theta), w.to_assignment())
        assert verify_c_symmetry(s, conj, tol=1e-10).passed


def test_two_branch_conjugation_wide_gap_sqrt2_case():
    # kappa = 0, theta = 2 with moduli (1, sqrt(2)): the arm-vs-trunk
    # comparison degenerates to sqrt(2)|w_1| = |w_2|
    w = tb(0, 2, (), (1.0, SQRT2))
    conj = two_branch_conjugation(w)
    s = build_shift(generate_two_branch(0, 2), w.to_assignment())
    assert verify_c_symmetry(s, conj, tol=1e-10).passed


def test_two_branch_conjugation_failure_names_step():
    with pytest.raises(FamilyConditionError, match="j=1"):
        two_branch_conjugation(tb(1, 2, (1.0,), (1.0, 2.0)))


# ------------------------------------------------------- classification


def test_classify_generated_trees():
    kind, params = classify_tree_family(generate_two_branch(2, 3))
    assert kind == "two_branch"
    assert params["kappa"] == 2 and params["theta"] == 3

    kind, params = classify_tree_family(generate_binary(3))
    assert kind == "binary"
    assert params["kappa"] == 3

    kind, params = classify_tree_family(generate_path(5))
    assert kind == "path"
    assert len(params["order"]) == 5


def test_classify_rejects_other_shapes():
    assert classify_tree_family(generate_broom(3)) is None
    assert classify_tree_family(generate_two_level_broom(3)) is None


def test_classify_two_armed_second_level_broom_is_two_branch():
    # with exactly two teeth the two-level broom is the same shape as the
    # trunkless two-branch tree with arms of length two
    kind, params = classify_tree_family(generate_two_level_broom(2))
    assert kind == "two_branch"
    assert params["kappa"] == 0 and params["theta"] == 2


def test_classify_ignores_labels():
    edges = [("r", "x"), ("r", "y"), ("x", "u"), ("y", "v")]
    tree = DirectedTree.from_edges(edges, root="r")
    kind, params = classify_tree_family(tree)
    assert kind == "two_branch"
    assert params["kappa"] == 0 and params["theta"] == 2


def test_classify_unbalanced_arms_rejected():
    edges = [("0", "a"), ("0", "b"), ("a", "c")]
    assert classify_tree_family(DirectedTree.from_edges(edges, root="0")) is None


def _edges_tree(*edges):
    return DirectedTree.from_edges(edges, root="r")


@pytest.mark.parametrize(
    "tree, expected",
    [
        # profile [2, 1, 2]: two branching levels, but not every level
        (_edges_tree(("r", "a"), ("r", "b"), ("a", "c"), ("b", "d"), ("c", "e"),
                     ("c", "f"), ("d", "g"), ("d", "h")), None),
        # profile [1, 2, 2]
        (_edges_tree(("r", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"),
                     ("c", "f"), ("c", "g")), None),
        (DirectedTree(vertices=("r",), edges=(), root="r"), ("path", {"order": ("r",)})),
        (generate_broom(2), ("two_branch", {"kappa": 0, "theta": 1})),
        (generate_broom(3), None),
        (generate_two_level_broom(2), ("two_branch", {"kappa": 0, "theta": 2})),
        # not trees: a vertex with two parents, and a back edge
        (_edges_tree(("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")), None),
        (_edges_tree(("r", "a"), ("a", "b"), ("b", "a")), None),
    ],
    ids=["profile-2-1-2", "profile-1-2-2", "single-vertex", "root-two-leaves",
         "broom-3", "two-level-broom-2", "two-parents", "back-edge"],
)
def test_classify_by_level_profile(tree, expected):
    result = classify_tree_family(tree)
    if expected is None:
        assert result is None
    else:
        family, info = result
        assert family == expected[0]
        assert {key: info[key] for key in expected[1]} == expected[1]


# ------------------------------------------------------- decompositions


def test_decompose_two_branch_chains():
    tree = generate_two_branch(1, 2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    dec = decompose_equal_weight_tree(tree, weights)
    mods = [tuple(abs(x) for x in chain) for chain in dec.chains]
    assert mods == [(1.0, pytest.approx(SQRT2), 1.0), (1.0,)]
    assert dec.residual <= 1e-12


def test_decompose_binary_chains():
    tree = generate_binary(2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    dec = decompose_equal_weight_tree(tree, weights)
    mods = sorted(tuple(abs(x) for x in chain) for chain in dec.chains)
    expected = sorted(
        [
            (pytest.approx(SQRT2), pytest.approx(SQRT2)),
            (pytest.approx(SQRT2),),
            (),
            (),
        ]
    )
    assert len(mods) == 4
    assert mods[0] == () and mods[1] == ()
    assert list(mods[2]) == [pytest.approx(SQRT2)]
    assert list(mods[3]) == [pytest.approx(SQRT2), pytest.approx(SQRT2)]
    assert dec.residual <= 1e-12


def test_decompose_path_is_identity_chain():
    tree = generate_path(3)
    weights = {"1": 1.5, "2": 2.5}
    dec = decompose_equal_weight_tree(tree, weights)
    assert [tuple(c) for c in dec.chains] == [(1.5, 2.5)]


def test_decompose_transform_is_unitary():
    tree = generate_binary(2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    dec = decompose_equal_weight_tree(tree, weights)
    u = dec.transform
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-12


def test_decompose_conjugates_the_shift():
    tree = generate_two_branch(1, 2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    s = build_shift(tree, weights)
    dec = decompose_equal_weight_tree(tree, weights)
    block = chains_to_matrix(dec.chains)
    assert np.linalg.norm(dec.transform.conj().T @ s.matrix @ dec.transform - block) <= 1e-12


def test_decompose_requires_generation_constant_weights():
    tree = generate_binary(2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    weights["2,4"] = 3.0
    with pytest.raises(ValueError, match="generation"):
        decompose_equal_weight_tree(tree, weights)


def test_decompose_rejects_unsupported_shape():
    tree = generate_broom(3)
    with pytest.raises(ValueError, match="family"):
        decompose_equal_weight_tree(tree, {v: 1.0 for v in tree.nonroot_vertices()})


def _closed_form_cases(rng):
    """(tree, weights, chains) with the chains the decomposition's docstring
    states, for seeded complex generation weights."""

    def draw(count):
        return [complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
                for _ in range(count)]

    for kappa in range(0, 5):
        for theta in range(1, 7):
            w = tb(kappa, theta, draw(kappa), draw(theta))
            branch = [w.weight(j) for j in range(2, theta + 1)]
            chains = [tuple(w.trunk) + (SQRT2 * w.weight(1),) + tuple(branch), tuple(branch)]
            yield generate_two_branch(kappa, theta), w.to_assignment(), chains
    for kappa in range(2, 6):
        w = BinaryWeights(kappa, tuple(draw(kappa)))
        links = [SQRT2 * w.weight(level) for level in range(1, kappa + 1)]
        chains = [tuple(links)]
        for k in range(kappa):
            chains += [tuple(links[k + 1 :])] * 2**k
        yield generate_binary(kappa), w.to_assignment(), chains
    for n in range(1, 9):
        values = draw(n - 1)
        yield generate_path(n), {str(i + 1): x for i, x in enumerate(values)}, [tuple(values)]


def test_decompose_gives_the_closed_form_chains(rng):
    for tree, weights, chains in _closed_form_cases(rng):
        dec = decompose_equal_weight_tree(tree, weights)
        assert [tuple(chain) for chain in dec.chains] == chains
        u = dec.transform
        assert np.linalg.norm(u.T @ u - np.eye(tree.n)) <= 1e-13
        scale = np.linalg.norm(build_shift(tree, weights).matrix)
        assert dec.residual <= 1e-12 * scale
        assert np.linalg.norm(u.T @ dec.matrix @ u - chains_to_matrix(chains)) <= 1e-12 * scale


def test_chains_to_matrix_blocks():
    m = chains_to_matrix([(2.0,), (3.0, 4.0)])
    expected = np.zeros((5, 5), dtype=complex)
    expected[1, 0] = 2.0
    expected[3, 2] = 3.0
    expected[4, 3] = 4.0
    assert np.array_equal(m, expected)


# ------------------------------------------------------------ pairings


def test_reversal_pairing_cs_on_equal_weight_two_branch():
    tree = generate_two_branch(1, 2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    conj = reversal_pairing_conjugation(tree, weights)
    assert conj is not None
    s = build_shift(tree, weights)
    assert verify_c_symmetry(s, conj, tol=1e-10).passed


def test_reversal_pairing_cs_flips_palindromes_and_refuses_a_mirror_pair():
    # no family tree has a mirror pair (its chains are tails of the first),
    # so the oracle flips each chain and has no cross flip between two
    def hand_built(chains):
        m = chains_to_matrix(chains)
        n = m.shape[0]
        return BlockDecomposition(
            transform=np.eye(n), chains=tuple(chains),
            basis=tuple(str(i) for i in range(n)), matrix=m, residual=0.0,
        )

    def flipped(dec):
        return _reversal_flip(dec, dict.fromkeys(dec.basis, 1.0), lambda: dec.matrix, 1e-10)

    dec = hand_built([(1.0, SQRT2, 1.0), (2.0,)])
    conj = flipped(dec)
    assert verify_c_symmetry(dec.matrix, conj).passed
    assert flipped(hand_built([(1.0, 2.0), (2.0, 1.0)])) is None


def test_reversal_pairing_conjugation_none_for_unequal_binary():
    tree = generate_binary(2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    for v in tree.at_depth(2):
        weights[v] = 2.0
    assert reversal_pairing_conjugation(tree, weights) is None


def test_reversal_pairing_handles_complex_gauge(rng):
    tree = generate_binary(2)
    weights = {}
    for d in (1, 2):
        for v in tree.at_depth(d):
            weights[v] = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
    conj = reversal_pairing_conjugation(tree, weights)
    assert conj is not None
    s = build_shift(tree, weights)
    assert verify_c_symmetry(s, conj, tol=1e-10).passed


def test_reversal_pairing_agrees_with_decider(rng):
    """On generation-constant family trees the pairing test is a full oracle."""
    for trial in range(30):
        choice = trial % 3
        if choice == 0:
            tree = generate_two_branch(int(rng.integers(0, 3)), int(rng.integers(1, 4)))
        elif choice == 1:
            tree = generate_binary(int(rng.integers(2, 4)))
        else:
            tree = generate_path(int(rng.integers(2, 6)))
        depths = sorted({tree.depth_of(v) for v in tree.nonroot_vertices()})
        level_values = {
            d: complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
            for d in depths
        }
        weights = {v: level_values[tree.depth_of(v)] for v in tree.nonroot_vertices()}
        s = build_shift(tree, weights)
        conj = reversal_pairing_conjugation(tree, weights)
        verdict = decide_cs(s)
        if conj is not None:
            assert verify_c_symmetry(s, conj, tol=1e-8).passed
            assert verdict.kind == "cs"
        else:
            assert verdict.kind == "not_cs"


def test_reversal_pairing_conjugation_gauges_back_the_positive_certificate(rng):
    """The end-to-end oracle builds one certificate: the gauge ``D A D`` of
    the positive-weight pairing ``A``, bit for bit."""
    for kappa in (2, 3):
        tree = generate_binary(kappa)
        weights = sample_binary_weights(kappa, rng, satisfying=True).to_assignment()
        positive, gauge = positivize_weights(tree, weights)
        base = reversal_pairing_conjugation(tree, positive)
        conj = reversal_pairing_conjugation(tree, weights)
        d = np.array([gauge[v] for v in tree.vertices])
        assert np.array_equal(conj.matrix, (d[:, None] * base.matrix) * d[None, :])
        assert conj.basis == tuple(tree.vertices)


def _family_cases(rng):
    """Paths (n 2-8), two-branch (kappa 0-4, theta 1-6) and binary (kappa
    2-5) trees with random generation-constant complex weights, half of them
    drawn to pass the reversal pairing."""
    for satisfying in (True, False):
        for n in range(2, 9):
            mods = 0.5 + 1.5 * rng.random(n - 1)
            if satisfying:
                mods = np.minimum(mods, mods[::-1])
            phases = np.exp(2j * np.pi * rng.random(n - 1))
            tree = generate_path(n)
            yield tree, {v: complex(mods[int(v) - 1] * phases[int(v) - 1])
                         for v in tree.nonroot_vertices()}
        for kappa in range(0, 5):
            for theta in range(1, 7):
                w = sample_two_branch_weights(kappa, theta, rng, satisfying)
                yield generate_two_branch(kappa, theta), w.to_assignment()
        for kappa in range(2, 6):
            w = sample_binary_weights(kappa, rng, satisfying)
            yield generate_binary(kappa), w.to_assignment()


def test_family_chains_of_equal_length_are_equal_and_the_flip_is_the_oracle(rng):
    """Every chain after the first is a tail of it, so no two chains can be
    mirror images without each being a palindrome: flipping every chain is
    the whole pairing oracle on these trees."""
    palindromic = 0
    for tree, weights in _family_cases(rng):
        chains = _chains(tree, weights)
        by_length = {}
        for chain in chains:
            assert by_length.setdefault(len(chain), chain) == chain
        conj = reversal_pairing_conjugation(tree, weights)
        assert (conj is not None) == all(is_palindromic(c) for c in chains)
        if conj is not None:
            palindromic += 1
            assert verify_c_symmetry(build_shift(tree, weights), conj).passed
    assert palindromic >= 30


def test_twin_reduced_chains_of_equal_length_carry_equal_weights(rng):
    """The decider's twin reduction shares the fact: when it splits a tree
    shift into chains, chains of one length carry the same weights."""
    cases = list(_family_cases(rng))
    for _ in range(300):
        tree = random_tree(rng, max_vertices=15)
        # few distinct weights, so that sibling subtrees are often twins
        weights = {v: float(rng.choice((1.0, 2.0))) for v in tree.nonroot_vertices()}
        cases.append((tree, weights))
    reached = compared = 0
    for tree, weights in cases:
        red = twin_reduction(_forest(np.abs(build_shift(tree, weights).matrix)))
        chains = reduced_chains(red.parent)
        if chains is None:
            continue
        reached += 1
        by_length = {}
        for chain in chains:
            links = red.weights[chain[1:]]
            if len(chain) > 1 and len(chain) in by_length:
                compared += 1
            assert np.array_equal(by_length.setdefault(len(chain), links), links)
    assert reached >= 100 and compared >= 5


def test_two_branch_conjugation_failing_the_certificate_check_is_a_family_error():
    # the phase recursion accepts these moduli within rtol = 1e-9, but the
    # assembled matrix misses unitarity by 1.4e-9, beyond tol = 1e-10
    with pytest.raises(FamilyConditionError, match="not a conjugation"):
        two_branch_conjugation(tb(1, 2, (1.0,), (1.0, 1.0000000005)))


def _chains(tree, weights):
    positive, _gauge = positivize_weights(tree, weights)
    return decompose_equal_weight_tree(tree, positive).chains


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_modulus_comparisons_do_not_depend_on_scale(scale):
    """Scaling every weight changes neither printed criterion nor which
    chains are palindromic; the comparisons used to turn absolute below
    modulus 1."""
    rng = np.random.default_rng(0)
    cases = []
    for kappa in range(1, 4):
        for theta in range(1, 6):
            for satisfying in (True, False):
                w = sample_two_branch_weights(kappa, theta, rng, satisfying)
                scaled = tb(
                    kappa, theta,
                    [scale * x for x in w.trunk], [scale * x for x in w.branch],
                )
                tree = generate_two_branch(kappa, theta)
                cases.append((tree, w, scaled, two_branch_cs_condition))
    for kappa in range(2, 5):
        for satisfying in (True, False):
            w = sample_binary_weights(kappa, rng, satisfying)
            scaled = BinaryWeights(kappa, tuple(scale * x for x in w.levels))
            cases.append((generate_binary(kappa), w, scaled, binary_cs_condition))
    for tree, w, scaled, condition in cases:
        assert condition(scaled).satisfied == condition(w).satisfied
        assert [is_palindromic(c) for c in _chains(tree, scaled.to_assignment())] == [
            is_palindromic(c) for c in _chains(tree, w.to_assignment())
        ]


def test_tiny_path_weights_get_no_pairing_certificate():
    # (1, 2) is not palindromic at any scale; at 1e-12 an absolute modulus
    # comparison and verify_c_symmetry's absolute floor both let it through
    tree = generate_path(3)
    assert not is_palindromic((1e-12, 2e-12))
    assert reversal_pairing_conjugation(tree, {"1": 1.0, "2": 2.0}) is None
    assert reversal_pairing_conjugation(tree, {"1": 1e-12, "2": 2e-12}) is None


def test_pairing_oracle_answer_does_not_depend_on_scale():
    """Bumping one weight breaks generation constancy at every scale; the
    generation check and the decomposition residual used to be absolute
    below modulus 1, so at 1e-13 the bumped tree got a certificate."""
    rng = np.random.default_rng(3)
    cases = []
    for kappa in range(2, 5):
        w = sample_binary_weights(kappa, rng, satisfying=True)
        cases.append((generate_binary(kappa), w.to_assignment(), f"{kappa},{2**kappa}"))
    for kappa in range(0, 3):
        for theta in range(1, 4):
            w = sample_two_branch_weights(kappa, theta, rng, satisfying=True)
            cases.append((generate_two_branch(kappa, theta), w.to_assignment(), f"2,{theta}"))
    for tree, weights, bumped in cases:
        for bump in (1.0, 2.0):
            base = dict(weights, **{bumped: bump * weights[bumped]})
            expected = reversal_pairing_conjugation(tree, base) is None
            assert expected == (bump != 1.0)
            for c in (1e-13, 1e13):
                scaled = {v: c * x for v, x in base.items()}
                assert (reversal_pairing_conjugation(tree, scaled) is None) == expected


def test_pairing_oracle_terminates_on_a_graph_with_a_cycle():
    # the oracle positivizes before the decomposition checks the shape, so
    # the gauge walk must not follow the back edge forever
    tree = DirectedTree(
        vertices=("r", "a", "b"), edges=(("r", "a"), ("a", "b"), ("b", "a")), root="r"
    )
    assert reversal_pairing_conjugation(tree, {"a": 1.0, "b": 1.0}) is None
