import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    DirectedTree,
    WeightError,
    build_shift,
    decide_cs,
    dump_json,
    generate_binary,
    generate_broom,
    generate_path,
    generate_two_branch,
    kernel_table,
    numerical_rank,
    positivize_weights,
)
from treeshift import shift
from treeshift.shift import _forest, tree_gauge, twin_reduction

from conftest import forest_matrix
from oracles import (
    dense_shift_fill,
    exact_kernel_dim,
    per_group_twin_q,
    reference_twin_walk,
    shift_matrix_fraction,
)

SQRT2 = math.sqrt(2.0)


def test_path_matrix():
    s = build_shift(generate_path(2), {"1": 1.0})
    assert s.basis == ("0", "1")
    assert np.array_equal(s.matrix, np.array([[0, 0], [1, 0]], dtype=complex))


def test_branching_matrix(y_shift):
    m = y_shift.matrix
    # column of the root feeds both children, column of "2,1" feeds "2,2"
    assert np.array_equal(m[:, 0], np.array([0, 1, 1, 0], dtype=complex))
    assert np.allclose(m[:, 2], np.array([0, 0, 0, SQRT2]), atol=0)
    assert np.array_equal(m[:, 1], np.zeros(4))
    assert np.array_equal(m[:, 3], np.zeros(4))


def test_broom_matrix():
    s = build_shift(generate_broom(2), {"1": 1.0, "2": 1.0})
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = 1
    expected[2, 0] = 1
    assert np.array_equal(s.matrix, expected)


def test_missing_weight_rejected():
    with pytest.raises(WeightError, match="missing weight for vertex 1"):
        build_shift(generate_path(2), {})


def test_kernel_table_refuses_a_non_square_matrix_and_no_power():
    with pytest.raises(ValueError, match="^expected a nonempty square matrix$"):
        kernel_table(np.zeros((2, 3)), max_power=1)
    with pytest.raises(ValueError, match="^max_power must be at least 1$"):
        kernel_table(build_shift(generate_path(3), {"1": 1.0, "2": 2.0}), max_power=0)


def test_positivize_refuses_a_missing_weight():
    with pytest.raises(WeightError, match="^missing weight for vertex 2$"):
        positivize_weights(generate_path(3), {"1": 1.0})


def test_root_weight_rejected():
    with pytest.raises(WeightError, match="root"):
        build_shift(generate_path(2), {"0": 1.0, "1": 1.0})


def test_unknown_vertex_weight_rejected():
    with pytest.raises(WeightError, match="unknown"):
        build_shift(generate_path(2), {"1": 1.0, "9": 2.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_non_finite_weight_rejected_naming_vertex(bad):
    with pytest.raises(WeightError, match="non-finite weight .* vertex 2"):
        build_shift(generate_path(3), {"1": 1.0, "2": bad})


def test_nilpotency_is_exact(rng):
    for trial in range(10):
        n = int(rng.integers(2, 10))
        parents = [int(rng.integers(0, k)) for k in range(1, n)]
        edges = [(str(p), str(k + 1)) for k, p in enumerate(parents)]
        tree = DirectedTree(vertices=[str(i) for i in range(n)], edges=edges, root="0")
        weights = {str(i): complex(rng.integers(1, 5)) for i in range(1, n)}
        s = build_shift(tree, weights)
        power = np.linalg.matrix_power(s.matrix, tree.depth + 1)
        assert np.count_nonzero(power) == 0


def test_kernel_table_against_exact_rank(rng):
    """Numerical kernel dimensions must match exact rational arithmetic."""
    for trial in range(12):
        n = int(rng.integers(2, 11))
        parents = [int(rng.integers(0, k)) for k in range(1, n)]
        edges = [(str(p), str(k + 1)) for k, p in enumerate(parents)]
        tree = DirectedTree(vertices=[str(i) for i in range(n)], edges=edges, root="0")
        weights = {str(i): Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4))) for i in range(1, n)}
        s = build_shift(tree, {k: float(v) for k, v in weights.items()})
        table = kernel_table(s, max_power=n)
        exact = shift_matrix_fraction(tree, weights)
        exact_adj = [[exact[j][i] for j in range(n)] for i in range(n)]
        for m, dim_ker, dim_ker_adj in table.rows:
            assert dim_ker == exact_kernel_dim(exact, m)
            assert dim_ker_adj == exact_kernel_dim(exact_adj, m)


def test_kernel_table_trunked_branching(trunked_y_shift):
    table = kernel_table(trunked_y_shift, max_power=4)
    assert table.rows == ((1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 5))


def test_kernel_table_branching_arm_counts():
    s = build_shift(generate_two_branch(1, 2), {v: 1.0 for v in ("0", "1,1", "1,2", "2,1", "2,2")})
    table = kernel_table(s, max_power=1)
    assert table.rows == ((1, 2, 2),)


def test_kernel_dims_nondecreasing_and_saturating(y_shift):
    # S^n = 0, so the table saturates by power n, and a longer one is refused
    n = y_shift.n
    table = kernel_table(y_shift, max_power=n)
    dims = [row[1] for row in table.rows]
    dims_adj = [row[2] for row in table.rows]
    assert dims == sorted(dims) and dims_adj == sorted(dims_adj)
    assert dims[-1] == n and dims_adj[-1] == n
    with pytest.raises(ValueError, match=f"^max_power must be at most the size {n}"):
        kernel_table(y_shift, max_power=n + 1)


def test_kernel_closed_forms_for_two_branch(rng):
    """dim ker S^m and S*^m on branching trees follow closed-form counts."""
    for kappa in range(0, 4):
        for theta in range(1, 5):
            tree = generate_two_branch(kappa, theta)
            weights = {v: float(rng.uniform(0.5, 2.0)) for v in tree.nonroot_vertices()}
            s = build_shift(tree, weights)
            table = kernel_table(s, max_power=s.n)
            for m, dim_ker, dim_ker_adj in table.rows:
                want_ker = 2 * min(m, theta) + max(0, min(m - theta, kappa + 1))
                want_adj = min(m, kappa + theta + 1) + min(m, theta)
                assert dim_ker == want_ker, (kappa, theta, m)
                assert dim_ker_adj == want_adj, (kappa, theta, m)
                assert dim_ker == want_adj  # the two counts coincide at every power


def test_numerical_rank_scale_invariance():
    m = np.array([[1e-9, 0.0], [0.0, 2e-9]])
    assert numerical_rank(m) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


def noisy_nilpotents(count):
    # Q N Q* with N strictly lower triangular: one Jordan block, up to rounding
    rng = np.random.default_rng(0)
    for k in range(count):
        n = 3 + k % 5
        shape = (n, n)
        q, _r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        lower = np.tril(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), -1)
        yield q @ lower @ q.conj().T


@pytest.mark.parametrize("rtol", [1e-16, 0.0])
def test_rank_cuts_below_the_noise_are_floored(rtol):
    for t in noisy_nilpotents(20):
        assert numerical_rank(t, rtol) == t.shape[0] - 1


def test_kernel_table_of_a_tree_shift_reads_no_rounding():
    # 1e-200 squared underflows, yet T^2 has rank 2 on the path 0 -> .. -> 3
    s = build_shift(generate_path(4), {"1": 1.0, "2": 1e-200, "3": 1e-200})
    assert np.count_nonzero(s.matrix @ s.matrix) == 1
    assert kernel_table(s, max_power=4).rows == tuple((m, m, m) for m in range(1, 5))


def test_twin_reduction_of_a_star_is_one_edge_and_isolated_leaves():
    s = build_shift(generate_broom(4), {str(k): float(k) for k in range(1, 5)})
    red = twin_reduction(_forest(np.abs(s.matrix)))
    assert "q" not in vars(red)  # built on first use
    assert red.split == 3
    # the leaves merge into the first, with edge ||(1, 2, 3, 4)|| = sqrt 30
    assert red.parent.tolist() == [-1, 0, -1, -1, -1]
    assert red.weights.tolist() == [0.0, math.sqrt(30.0), 0.0, 0.0, 0.0]
    r = forest_matrix(red)
    assert np.allclose(red.q.T @ red.q, np.eye(5), rtol=0, atol=1e-15)
    assert np.allclose(red.q.T @ np.abs(s.matrix) @ red.q, r, rtol=0, atol=1e-14)


def test_twin_reduction_without_twins_is_the_identity():
    s = build_shift(generate_path(4), {"1": 1.0, "2": 2.0, "3": 3.0})
    m = np.abs(s.matrix)
    red = twin_reduction(_forest(m))
    assert red.split == 0
    assert np.array_equal(red.q, np.eye(4)) and np.array_equal(forest_matrix(red), m)


def nested_twin_matrix(seed, copies, leaves, roots):
    """A real forest of ``roots`` equal-shaped trees.  Below each root,
    level ``d`` holds a group of ``copies[d]`` equal subtrees (the block of
    the next level) beside ``leaves[d]`` sibling leaves, every edge with
    its own random weight, so twins differ in their edge weights only."""
    rng = np.random.default_rng(seed)

    def block(depth):
        # (edges as (parent, child, weight) on local indices, size)
        if depth == len(copies):
            return [], 1
        inner, size = block(depth + 1)
        edges, n = [], 1
        for _copy in range(copies[depth]):
            edges.append((0, n, rng.uniform(0.5, 2.0)))
            edges += [(n + p, n + c, w) for p, c, w in inner]
            n += size
        for _leaf in range(leaves[depth]):
            edges.append((0, n, rng.uniform(0.5, 2.0)))
            n += 1
        return edges, n

    edges, size = block(0)
    m = np.zeros((roots * size, roots * size))
    for k in range(roots):
        for p, c, w in edges:
            m[k * size + c, k * size + p] = w
    return m


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(1, 3).flatmap(
        lambda depth: st.tuples(
            st.lists(st.integers(2, 3), min_size=depth, max_size=depth),
            st.lists(st.integers(0, 3), min_size=depth, max_size=depth),
        )
    ),
    roots=st.integers(1, 2),
)
def test_q_builds_the_reflectors_of_a_copy_count_at_once_bit_for_bit(seed, shape, roots):
    copies, leaves = shape
    m = nested_twin_matrix(seed, copies, leaves, roots)
    red = twin_reduction(_forest(m))
    # the deepest copies are leaves, twins of the leaves beside them
    groups = {*copies[:-1], copies[-1] + leaves[-1], *(k for k in leaves[:-1] if k > 1)}
    assert {len(units[0]) for _cols, units in red.merges} == groups
    want = per_group_twin_q(m.shape[0], red.merges)
    assert red.q.tobytes() == want.tobytes()


def test_twin_reduction_needs_a_real_tree_shift():
    with pytest.raises(ValueError, match="^not a tree shift: row 0 has more than one nonzero$"):
        twin_reduction(_forest(np.ones((3, 3))))
    with pytest.raises(ValueError, match="real"):
        twin_reduction(_forest(np.zeros((2, 2), dtype=complex)))


def test_positivize_path():
    s = build_shift(generate_path(3), {"1": 1j, "2": -2.0})
    positive, gauge = positivize_weights(s.tree, {"1": 1j, "2": -2.0})
    assert positive == {"1": pytest.approx(1.0), "2": pytest.approx(2.0)}
    d = np.diag([gauge[v] for v in s.basis])
    s_pos = build_shift(s.tree, positive)
    assert np.linalg.norm(d.conj().T @ s.matrix @ d - s_pos.matrix) <= 1e-12


def test_positivize_broom():
    tree = generate_broom(2)
    positive, gauge = positivize_weights(tree, {"1": -1.0, "2": 1j})
    assert positive == {"1": pytest.approx(1.0), "2": pytest.approx(1.0)}
    s = build_shift(tree, {"1": -1.0, "2": 1j})
    d = np.diag([gauge[v] for v in s.basis])
    s_pos = build_shift(tree, positive)
    assert np.linalg.norm(d.conj().T @ s.matrix @ d - s_pos.matrix) <= 1e-12


def test_positivize_already_positive_is_identity():
    tree = generate_path(3)
    weights = {"1": 1.5, "2": 0.25}
    positive, gauge = positivize_weights(tree, weights)
    assert positive == {"1": 1.5, "2": 0.25}
    assert all(g == 1.0 for g in gauge.values())


def test_positivize_random_gauge_is_unimodular(rng):
    tree = generate_two_branch(1, 2)
    weights = {
        v: complex(rng.standard_normal(), rng.standard_normal())
        for v in tree.nonroot_vertices()
    }
    positive, gauge = positivize_weights(tree, weights)
    for v, val in positive.items():
        assert val == pytest.approx(abs(weights[v]))
    for g in gauge.values():
        assert abs(abs(g) - 1.0) <= 1e-12


def test_positivize_rejects_zero_weight():
    with pytest.raises(WeightError, match="zero"):
        positivize_weights(generate_path(2), {"1": 0.0})


def test_tree_gauge_makes_every_weight_its_modulus(rng):
    tree = generate_two_branch(2, 3)
    weights = {
        v: complex(rng.standard_normal(), rng.standard_normal())
        for v in tree.nonroot_vertices()
    }
    s = build_shift(tree, weights)
    d = tree_gauge(_forest(s.matrix))
    assert np.allclose(np.abs(d), 1.0, rtol=0.0, atol=1e-15)
    gauged = d.conj()[:, None] * s.matrix * d[None, :]
    assert np.abs(gauged - np.abs(s.matrix)).max() <= 1e-14 * np.abs(s.matrix).max()
    # the same phases as positivize_weights, for nonzero weights
    _positive, gauge = positivize_weights(tree, weights)
    assert np.abs(d - [gauge[v] for v in s.basis]).max() <= 1e-15


def test_tree_gauge_starts_afresh_below_a_zero_weight():
    s = build_shift(generate_path(4), {"1": 1j, "2": 0.0, "3": -1.0})
    assert np.array_equal(tree_gauge(_forest(s.matrix)), [1.0, 1j, 1.0, -1.0])


@pytest.mark.parametrize(
    "m",
    [
        np.array([[0, 0], [1, 1]]),  # two nonzeros in a row
        np.array([[1.0]]),  # a nonzero diagonal entry
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),  # a cycle of two
        np.ones((3, 3)),
        np.array([[0, 0, 1], [0, 0, 0]]),  # not square: a column past the last row
        np.zeros((0, 0)),
        np.zeros(3),
    ],
)
def test_tree_gauge_rejects_what_is_no_tree_shift(m):
    with pytest.raises(ValueError, match="^not a tree shift: "):
        tree_gauge(_forest(m))


def planted_forest(seed):
    """Parent pointers and real weights of a random forest with planted twin
    groups: under random vertices, 2 or 3 copies of one random subtree (equal
    weights inside, unequal weights on the edges into the copies), long
    chains, and a few roots beside the first; vertices are numbered in a
    random order."""
    rng = np.random.default_rng(seed)
    up, w = [-1], [0.0]

    def grow(p, weight):
        up.append(p)
        w.append(weight)
        return len(up) - 1

    def copy_subtree(shape, p, weight):
        # shape: (weights of the children, their shapes)
        v = grow(p, weight)
        for child_weight, child in shape:
            copy_subtree(child, v, child_weight)

    def random_shape(size):
        kids, left = [], size - 1
        while left > 0:
            take = int(rng.integers(1, left + 1))
            kids.append((float(rng.choice([1.0, 1.5, 2.0])), random_shape(take)))
            left -= take
        return tuple(kids)

    for _ in range(int(rng.integers(1, 6))):
        kind = rng.integers(4)
        p = int(rng.integers(len(up)))
        if kind == 0:  # a twin group of 2 or 3 copies
            shape = random_shape(int(rng.integers(1, 6)))
            for _copy in range(int(rng.integers(2, 4))):
                copy_subtree(shape, p, float(rng.choice([0.5, 1.0, 1.5, 2.0])))
        elif kind == 1:  # a long chain
            for _step in range(int(rng.integers(5, 40))):
                p = grow(p, float(rng.choice([1.0, 2.0])))
        elif kind == 2:  # a random subtree
            copy_subtree(random_shape(int(rng.integers(1, 8))), p, float(rng.uniform(0.5, 2.0)))
        else:  # another root
            grow(-1, 0.0)
    order = rng.permutation(len(up))  # old vertex -> new number
    parent = np.full(len(up), -1, dtype=np.intp)
    weights = np.zeros(len(up))
    for v, p in enumerate(up):
        parent[order[v]] = order[p] if p >= 0 else -1
        weights[order[v]] = w[v]
    return parent, weights


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_twin_reduction_walks_as_the_reference_walk(seed):
    # the walk lists a copy's columns only at its merge; its reduction is
    # the one of the walk that copied every subtree's list level by level
    parent, weights = planted_forest(seed)
    _parent, levels, height = shift._pattern_forest(parent.tobytes())
    red = twin_reduction(shift.Forest(_parent, levels, height, weights))
    up, w, split, merges = reference_twin_walk(parent.tolist(), [l.tolist() for l in levels], weights)
    assert red.parent.tolist() == up
    assert red.weights.tobytes() == np.array(w).tobytes()
    assert red.split == split
    assert list(red.merges) == merges


LABELS = ("-2", "1,3", "a", "0", "10", "2", "b,c", "-1,4", "x", "3", "1,10", "7")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_shift_reads_its_forest_as_its_matrix_does(seed):
    # a ShiftMatrix holds parents and weights: its forest is the one read
    # off its matrix, the matrix is the entry-by-entry fill it replaced, bit
    # for bit (zero weights of either sign included), and a decision on it
    # is the one on the matrix, up to the certificate's labels
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, len(LABELS) + 1))
    labels = [str(x) for x in rng.permutation(LABELS)[:n]]
    edges = [(labels[int(rng.integers(v))], labels[v]) for v in range(1, n)]
    order = rng.permutation(n)
    tree = DirectedTree(tuple(labels[i] for i in order), tuple(edges), labels[0])
    equal = rng.random() < 0.5  # equal moduli: cs verdicts too
    weights = {}
    for v in tree.nonroot_vertices():
        modulus = 1.0 if equal else float(rng.uniform(0.5, 2.0))
        weights[v] = complex(modulus * np.exp(2j * np.pi * rng.random()))
        if rng.random() < 0.15:
            weights[v] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)][rng.integers(4)]
    s = build_shift(tree, weights)
    m = s.matrix
    assert m.tobytes() == dense_shift_fill(tree, weights).tobytes()
    ours, theirs = s.forest, _forest(m)
    for a, b in zip(ours, theirs):
        if isinstance(a, tuple):
            assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    doc, bare = decide_cs(s).to_doc(), decide_cs(m).to_doc()
    if doc["certificate"] is not None:
        assert doc["certificate"]["basis"] == list(s.basis)
        doc["certificate"]["basis"] = bare["certificate"]["basis"]
    assert dump_json(doc) == dump_json(bare)


def test_build_shift_of_binary_kappa_12_allocates_no_dense_matrix():
    # 8191 vertices: a dense complex matrix would take 1 GiB
    tree = generate_binary(12)
    weights = dict.fromkeys(tree.nonroot_vertices(), 1.0)
    tracemalloc.start()
    try:
        s = build_shift(tree, weights)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert s.n == 8191 and kernel_table(s, 12).rows[-1] == (12, 8190, 8190)
