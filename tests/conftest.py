import math

import numpy as np
import pytest

from treeshift import DirectedTree, build_shift

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def y_tree():
    """Four vertices: root with a leaf child and a two-vertex arm."""
    return DirectedTree(
        vertices=("0", "1,1", "2,1", "2,2"),
        edges=(("0", "1,1"), ("0", "2,1"), ("2,1", "2,2")),
        root="0",
    )


@pytest.fixture
def y_weights():
    return {"1,1": 1.0, "2,1": 1.0, "2,2": SQRT2}


@pytest.fixture
def y_shift(y_tree, y_weights):
    return build_shift(y_tree, y_weights)


@pytest.fixture
def trunked_y_tree():
    """The same shape with one trunk vertex grafted above the root."""
    return DirectedTree(
        vertices=("-1", "0", "1,1", "2,1", "2,2"),
        edges=(("-1", "0"), ("0", "1,1"), ("0", "2,1"), ("2,1", "2,2")),
        root="-1",
    )


@pytest.fixture
def trunked_y_shift(trunked_y_tree):
    weights = {v: 1.0 for v in trunked_y_tree.nonroot_vertices()}
    return build_shift(trunked_y_tree, weights)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def forest_matrix(tree) -> np.ndarray:
    """The dense shift of a forest given by its parent pointers and edge
    weights (a ``shift.Forest`` or a ``TwinReduction``): entry ``(v,
    parent[v])`` is ``weights[v]``, every other entry 0."""
    n = tree.parent.size
    m = np.zeros((n, n), dtype=tree.weights.dtype)
    has = np.flatnonzero(tree.parent >= 0)
    m[has, tree.parent[has]] = tree.weights[has]
    return m
