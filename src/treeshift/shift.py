"""Dense matrix realizations of weighted shifts on rooted trees.

A weight assignment puts one complex number on every non-root vertex.  The
shift sends the basis vector of a vertex ``u`` to the weighted sum of the
basis vectors of its children: column ``u`` of the matrix has entry
``weights[v]`` in row ``v`` for each child ``v`` of ``u``.  Equivalently
``(S f)(v) = weights[v] * f(parent(v))`` for non-root ``v`` and ``(S f)(root) = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trees import DirectedTree

__all__ = [
    "ShiftMatrix",
    "WeightError",
    "build_shift",
    "adjoint",
    "KernelTable",
    "kernel_table",
    "numerical_rank",
    "positivize_weights",
    "tree_gauge",
]


class WeightError(ValueError):
    """A weight assignment does not match the tree's non-root vertex set, or
    carries a non-finite weight."""


@dataclass(frozen=True, eq=False)
class ShiftMatrix:
    """A shift realized as a dense complex matrix over a fixed basis order."""

    tree: DirectedTree
    basis: tuple[str, ...]
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return len(self.basis)

    def index_of(self, label: str) -> int:
        return self.basis.index(label)


def build_shift(tree: DirectedTree, weights: dict) -> ShiftMatrix:
    """Assemble the dense matrix of the weighted shift.

    Raises :class:`WeightError` if a non-root vertex has no weight or a
    non-finite one, if the root is given one, or if a weight references an
    unknown vertex.
    """
    nonroot = set(tree.nonroot_vertices())
    for v in sorted(nonroot):
        if v not in weights:
            raise WeightError(f"missing weight for vertex {v}")
        if not np.isfinite(complex(weights[v])):
            raise WeightError(f"non-finite weight {weights[v]!r} for vertex {v}")
    if tree.root in weights:
        raise WeightError(f"weight supplied for root {tree.root}")
    for label in sorted(weights):
        if label not in nonroot:
            raise WeightError(f"weight supplied for unknown vertex {label}")
    n = tree.n
    m = np.zeros((n, n), dtype=complex)
    for v in nonroot:
        p = tree.parent_of(v)
        m[tree.index_of(v), tree.index_of(p)] = complex(weights[v])
    return ShiftMatrix(tree=tree, basis=tuple(tree.vertices), matrix=m)


def adjoint(s: ShiftMatrix) -> ShiftMatrix:
    """Conjugate transpose over the same basis: the adjoint gathers children,
    ``(S* f)(v) = sum over children u of v of conj(weights[u]) f(u)``."""
    return ShiftMatrix(tree=s.tree, basis=s.basis, matrix=s.matrix.conj().T.copy())


def _rank_above_cut(sigma: np.ndarray, size: int, rtol: float, sigma_ref: float) -> int:
    """The one rank rule: the count of ``sigma`` above
    ``max(rtol, size * eps) * sigma_ref``, where ``size`` is the matrix's
    larger dimension (its rounding noise floors the cut, as numpy's
    ``matrix_rank`` does) and ``sigma_ref`` its largest singular value."""
    cut = max(rtol, size * np.finfo(float).eps) * sigma_ref
    return int(np.count_nonzero(sigma > cut))


def numerical_rank(m: np.ndarray, rtol: float = 1e-10) -> int:
    """Rank by SVD with the relative threshold ``rtol * sigma_max``, floored
    at the rounding noise ``max(rows, cols) * eps``."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    sigma = np.linalg.svd(m, compute_uv=False)
    return _rank_above_cut(sigma, max(m.shape), rtol, sigma[0])


@dataclass(frozen=True)
class KernelTable:
    """Rows ``(m, dim ker S^m, dim ker S*^m)`` for m = 1..max_power."""

    rows: tuple[tuple[int, int, int], ...]

    def to_doc(self) -> dict:
        return {
            "rows": [
                {"power": m, "dim_ker": dk, "dim_ker_adjoint": dka}
                for m, dk, dka in self.rows
            ]
        }


def kernel_table(s, max_power: int, rtol: float = 1e-10) -> KernelTable:
    """Numerical kernel dimensions of the first ``max_power`` powers.

    Powers are accumulated on a spectrally normalized copy so that rank
    decisions are scale-free.  ``(S*)^m = (S^m)*`` has the rank of ``S^m``,
    so one SVD per power gives both columns; two SVDs could round a singular
    value near the cut to opposite sides and report unequal dimensions.
    """
    t = s.matrix if isinstance(s, ShiftMatrix) else np.asarray(s, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("kernel_table needs a square matrix")
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    n = t.shape[0]
    sigma = np.linalg.svd(t, compute_uv=False) if n else np.zeros(0)
    scale = sigma[0] if sigma.size and sigma[0] > 0 else 1.0
    tn = t / scale
    rows = []
    power = np.eye(n, dtype=complex)
    for m in range(1, max_power + 1):
        power = power @ tn
        nullity = n - numerical_rank(power, rtol)
        rows.append((m, nullity, nullity))
    return KernelTable(rows=tuple(rows))


def positivize_weights(
    tree: DirectedTree, weights: dict
) -> tuple[dict[str, float], dict[str, complex]]:
    """Diagonal unitary gauge making every weight positive.

    Returns ``(positive_weights, gauge)`` where ``gauge`` maps each vertex to
    a unimodular diagonal entry ``d_v`` with ``d_root = 1`` and
    ``d_v = weights[v] * d_parent / |weights[v]|``.  With ``D = diag(d)`` the
    matrices satisfy ``D^* S D = S_positive``.  Zero weights are rejected.
    """
    for v in tree.nonroot_vertices():
        if v not in weights:
            raise WeightError(f"missing weight for vertex {v}")
        if weights[v] == 0:
            raise WeightError(f"zero weight at vertex {v} cannot be positivized")
    gauge: dict[str, complex] = {tree.root: 1.0 + 0.0j}
    positive: dict[str, float] = {}
    frontier = [tree.root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in tree.children_of(u):
                if v in gauge:  # reached twice: the edges are no tree; do not loop
                    continue
                w = complex(weights[v])
                positive[v] = abs(w)
                gauge[v] = w * gauge[u] / abs(w)
                nxt.append(v)
        frontier = nxt
    return positive, gauge


def tree_gauge(m: np.ndarray) -> Optional[np.ndarray]:
    """The gauge of :func:`positivize_weights`, read off a matrix alone.

    ``m`` is the matrix of a tree shift (a forest, in general) when each row
    has at most one nonzero, in the column of the row's parent, and the
    parent pointers close no cycle; a nonzero diagonal entry is a cycle of
    length one.  Returns the unimodular ``d`` with ``d_v = 1`` at a vertex
    whose row is zero and ``d_v = m[v, p] d_p / |m[v, p]|`` at a vertex with
    parent ``p``, so that ``conj(d_v) m[v, p] d_p = |m[v, p]|`` and
    ``D* m D = |m|``; or ``None`` when ``m`` is no tree shift.  A zero weight
    leaves a zero row, which the matrix cannot tell from a root, so its
    vertex starts afresh at phase 1.
    """
    nonzero = m != 0
    if np.any(np.count_nonzero(nonzero, axis=1) > 1):
        return None
    parent = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1)
    d = np.ones(m.shape[0], dtype=complex)
    known = parent < 0
    todo = np.flatnonzero(~known)
    while todo.size:
        ready = todo[known[parent[todo]]]
        if not ready.size:
            return None  # the remaining parent pointers run in a cycle
        w = m[ready, parent[ready]]
        d[ready] = w * d[parent[ready]] / np.abs(w)
        known[ready] = True
        todo = todo[~known[todo]]
    return d
