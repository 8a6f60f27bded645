import math
from fractions import Fraction

import numpy as np
import pytest

from treeshift import (
    DirectedTree,
    WeightError,
    adjoint,
    build_shift,
    generate_broom,
    generate_path,
    generate_two_branch,
    kernel_table,
    numerical_rank,
    positivize_weights,
)
from treeshift.shift import tree_gauge, twin_reduction

from oracles import exact_kernel_dim, shift_matrix_fraction

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
    with pytest.raises(ValueError, match="^kernel_table needs a square matrix$"):
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


def test_adjoint_matrix(y_shift):
    a = adjoint(y_shift)
    assert np.array_equal(a.matrix, y_shift.matrix.conj().T)
    assert adjoint(a).matrix is not y_shift.matrix
    assert np.array_equal(adjoint(a).matrix, y_shift.matrix)


def test_adjoint_moves_child_to_parent():
    s = build_shift(generate_path(3), {"1": 2j, "2": 3.0})
    a = adjoint(s)
    e1 = np.zeros(3, dtype=complex)
    e1[1] = 1
    assert np.array_equal(a.matrix @ e1, np.array([-2j, 0, 0]))


def test_nilpotency_is_exact(rng):
    for trial in range(10):
        n = int(rng.integers(2, 10))
        parents = [int(rng.integers(0, k)) for k in range(1, n)]
        edges = [(str(p), str(k + 1)) for k, p in enumerate(parents)]
        tree = DirectedTree.from_edges(edges, root="0", vertices=[str(i) for i in range(n)])
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
        tree = DirectedTree.from_edges(edges, root="0", vertices=[str(i) for i in range(n)])
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
    table = kernel_table(y_shift, max_power=6)
    dims = [row[1] for row in table.rows]
    dims_adj = [row[2] for row in table.rows]
    assert dims == sorted(dims) and dims_adj == sorted(dims_adj)
    assert dims[-1] == y_shift.n and dims_adj[-1] == y_shift.n


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
        n = t.shape[0]
        assert numerical_rank(t, rtol) == n - 1
        table = kernel_table(t, max_power=n, rtol=rtol)
        assert table.rows[0] == (1, 1, 1)
        assert all(dim_ker == dim_ker_adj for _m, dim_ker, dim_ker_adj in table.rows)


def test_kernel_table_of_a_noisy_nilpotent_saturates():
    # each power cut at its own sigma_max read (5, 0, 0), (6, 1, 1), ... once
    # the power was rounding noise; the reference ||T / sigma_max||^m = 1
    # reads the nilpotent's true kernels
    rng = np.random.default_rng(5)
    shape = (5, 5)
    q, _r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    lower = np.tril(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), -1)
    table = kernel_table(q @ lower @ q.conj().T, max_power=8)
    assert table.rows == tuple((m, min(m, 5), min(m, 5)) for m in range(1, 9))


def test_kernel_table_of_a_tree_shift_reads_no_rounding():
    # 1e-200 squared underflows, yet T^2 has rank 2 on the path 0 -> .. -> 3
    s = build_shift(generate_path(4), {"1": 1.0, "2": 1e-200, "3": 1e-200})
    assert np.count_nonzero(s.matrix @ s.matrix) == 1
    assert kernel_table(s, max_power=4).rows == tuple((m, m, m) for m in range(1, 5))


def test_twin_reduction_of_a_star_is_one_edge_and_isolated_leaves():
    s = build_shift(generate_broom(4), {str(k): float(k) for k in range(1, 5)})
    red = twin_reduction(np.abs(s.matrix))
    assert "q" not in vars(red) and "r" not in vars(red)  # built on first use
    assert red.split == 3
    # the leaves merge into the first, with edge ||(1, 2, 3, 4)|| = sqrt 30
    assert red.parent.tolist() == [-1, 0, -1, -1, -1]
    assert red.r[1, 0] == math.sqrt(30.0)
    assert np.count_nonzero(red.r) == 1
    assert np.allclose(red.q.T @ red.q, np.eye(5), rtol=0, atol=1e-15)
    assert np.allclose(red.q.T @ np.abs(s.matrix) @ red.q, red.r, rtol=0, atol=1e-14)
    assert red.weights.tolist() == [0.0, math.sqrt(30.0), 0.0, 0.0, 0.0]


def test_twin_reduction_without_twins_is_the_identity():
    s = build_shift(generate_path(4), {"1": 1.0, "2": 2.0, "3": 3.0})
    m = np.abs(s.matrix)
    red = twin_reduction(m)
    assert red.split == 0
    assert np.array_equal(red.q, np.eye(4)) and np.array_equal(red.r, m)


def test_twin_reduction_needs_a_real_tree_shift():
    assert twin_reduction(np.ones((3, 3))) is None
    with pytest.raises(ValueError, match="real"):
        twin_reduction(np.zeros((2, 2), dtype=complex))


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
    d = tree_gauge(s.matrix)
    assert np.allclose(np.abs(d), 1.0, rtol=0.0, atol=1e-15)
    gauged = d.conj()[:, None] * s.matrix * d[None, :]
    assert np.abs(gauged - np.abs(s.matrix)).max() <= 1e-14 * np.abs(s.matrix).max()
    # the same phases as positivize_weights, for nonzero weights
    _positive, gauge = positivize_weights(tree, weights)
    assert np.abs(d - [gauge[v] for v in s.basis]).max() <= 1e-15


def test_tree_gauge_starts_afresh_below_a_zero_weight():
    s = build_shift(generate_path(4), {"1": 1j, "2": 0.0, "3": -1.0})
    assert np.array_equal(tree_gauge(s.matrix), [1.0, 1j, 1.0, -1.0])


@pytest.mark.parametrize(
    "m",
    [
        np.array([[0, 0], [1, 1]]),  # two nonzeros in a row
        np.array([[1.0]]),  # a nonzero diagonal entry
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),  # a cycle of two
        np.ones((3, 3)),
    ],
)
def test_tree_gauge_rejects_what_is_no_tree_shift(m):
    assert tree_gauge(m) is None
