"""Metamorphic properties of decide_cs on random small tree shifts.

Each property transforms a matrix in a way whose effect on complex symmetry
is known, and checks that the verdict kind follows: a relabelling ``P T P^T``
and a phase gauge ``D* T D`` change nothing, ``T + T^T`` is complex
symmetric (and a tree shift only when ``T`` is a sum of chains), and
``T + T`` is complex symmetric exactly when ``T`` is.  Every
verdict on a transformed matrix must also stand on its own: a ``cs``
certificate verifies against that matrix, and a ``not_cs`` witness replays
on it.

The trees have at most 10 vertices, moduli from {0.5, 1, sqrt 2, 2} and
phases from the fourth roots of unity, so that equal moduli are equal
floats, and copies of one subtree are planted under one vertex, so that the
twin reduction has twins to merge.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import decide_cs, reevaluate_obstruction, verify_c_symmetry

MODULI = (0.5, 1.0, math.sqrt(2.0), 2.0)
PHASES = (1.0, 1j, -1.0, -1j)


@st.composite
def tree_matrices(draw):
    """A tree shift ``m[child, parent] = weight`` with vertices in creation
    order: a random tree of ``base`` vertices, then ``copies`` copies of one
    random subtree of ``size`` vertices hung from one vertex of it."""
    base = draw(st.integers(1, 6))
    size = draw(st.integers(1, 3))
    copies = draw(st.integers(0, (10 - base) // size))

    def weight():
        return draw(st.sampled_from(MODULI)) * draw(st.sampled_from(PHASES))

    edges = [(draw(st.integers(0, k - 1)), k, weight()) for k in range(1, base)]
    inner = [(draw(st.integers(0, k - 1)), k, weight()) for k in range(1, size)]
    host, top = draw(st.integers(0, base - 1)), weight()
    n = base
    for _copy in range(copies):
        edges.append((host, n, top))
        edges += [(n + p, n + c, w) for p, c, w in inner]
        n += size
    m = np.zeros((n, n), dtype=complex)
    for p, c, w in edges:
        m[c, p] = w
    return m


def relabelled(m, order):
    return m[np.ix_(order, order)]


def direct_sum(a, b):
    n = a.shape[0]
    m = np.zeros((n + b.shape[0], n + b.shape[0]), dtype=complex)
    m[:n, :n], m[n:, n:] = a, b
    return m


def checked_kind(m) -> str:
    """The verdict kind of ``m``, after checking that its certificate or
    witness stands on ``m``."""
    verdict = decide_cs(m)
    if verdict.kind == "cs":
        assert verify_c_symmetry(m, verdict.certificate).passed
    elif verdict.kind == "not_cs":
        assert reevaluate_obstruction(m, verdict.obstruction, verdict.options)[0]
    return verdict.kind


@settings(max_examples=500, deadline=None, derandomize=True)
@given(m=tree_matrices(), data=st.data())
def test_a_relabelling_keeps_the_verdict_kind(m, data):
    order = data.draw(st.permutations(range(m.shape[0])))
    assert checked_kind(relabelled(m, list(order))) == checked_kind(m)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(m=tree_matrices(), data=st.data())
def test_a_phase_gauge_keeps_the_verdict_kind(m, data):
    n = m.shape[0]
    angles = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    d = np.exp(2j * np.pi * np.array(angles))
    gauged = d.conj()[:, None] * m * d[None, :]
    assert checked_kind(gauged) == checked_kind(m)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(m=tree_matrices())
def test_a_sum_with_the_transpose_is_cs(m):
    # T^T is a tree shift when no vertex has two children, that is when T
    # is a sum of chains; any other T + T^T is no tree shift and is refused
    if np.count_nonzero(m, axis=0).max() <= 1:
        assert checked_kind(direct_sum(m, m.T)) == "cs"
    else:
        with pytest.raises(ValueError, match="^not a tree shift: row "):
            decide_cs(direct_sum(m, m.T))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(m=tree_matrices())
def test_a_sum_of_two_copies_has_the_kind_of_one(m):
    assert checked_kind(direct_sum(m, m)) == checked_kind(m)
