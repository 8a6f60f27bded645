"""Weighted shifts on rooted trees, held as parents and weights, and their
dense matrices, built only when a step needs one.

A weight assignment puts one complex number on every non-root vertex.  The
shift sends the basis vector of a vertex ``u`` to the weighted sum of the
basis vectors of its children: column ``u`` of the matrix has entry
``weights[v]`` in row ``v`` for each child ``v`` of ``u``.  Equivalently
``(S f)(v) = weights[v] * f(parent(v))`` for non-root ``v`` and ``(S f)(root) = 0``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .trees import DirectedTree, _check_size

__all__ = [
    "ShiftMatrix",
    "WeightError",
    "build_shift",
    "KernelTable",
    "kernel_table",
    "positivize_weights",
    "tree_gauge",
    "TwinReduction",
    "twin_reduction",
]


class WeightError(ValueError):
    """A weight assignment does not match the tree's non-root vertex set, or
    carries a non-finite weight."""


@dataclass(frozen=True, eq=False)
class ShiftMatrix:
    """A weighted shift on ``tree`` over the basis order ``basis``, held as
    its forest: ``parent[v]``, the index of the parent of vertex ``v``, and
    ``weights[v]``, the complex weight of the edge into ``v`` (0 at the
    root).  A zero weight leaves a zero row, which the matrix cannot tell
    from a root, so its vertex has parent -1, as :func:`_forest` reads it.

    The dense ``n x n`` :attr:`matrix` is built on first use, and refused
    above the vertex bound of :mod:`~treeshift.trees` (8192); :attr:`forest`
    needs nothing of size ``n^2``.
    """

    tree: DirectedTree
    basis: tuple[str, ...]
    parent: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def forest(self) -> "Forest":
        """The :class:`Forest` that :func:`_forest` reads off :attr:`matrix`,
        read from the parents instead."""
        parent, levels, height = _pattern_forest(self.parent.tobytes())
        return Forest(parent, levels, height, np.where(parent >= 0, self.weights, 0))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix: ``weights[v]`` at row ``v`` and the column of
        ``v``'s parent in the tree; :class:`ValueError` above the vertex
        bound, before anything is allocated."""
        n = self.n
        _check_size(n)
        m = np.zeros((n, n), dtype=complex)
        child = np.flatnonzero(self.parent >= 0)
        m[child, self.parent[child]] = self.weights[child]
        # a zero weight of negative sign has no parent in the forest; it is
        # written at its tree edge, as every other weight is
        w = self.weights
        for v in np.flatnonzero((self.parent < 0) & (np.signbit(w.real) | np.signbit(w.imag))):
            m[v, self.tree.index_of(self.tree.parent_of(self.basis[v]))] = w[v]
        return m


def build_shift(tree: DirectedTree, weights: dict) -> ShiftMatrix:
    """The weighted shift of ``weights`` on ``tree``, as parents and weights.

    Allocates nothing of size ``n^2``; the dense matrix is built on first
    use of :attr:`ShiftMatrix.matrix`, which refuses a tree above the vertex
    bound.  Raises :class:`WeightError` if a non-root vertex has no weight
    or a non-finite one, if the root is given one, or if a weight
    references an unknown vertex; the first such vertex in label order is
    named.
    """
    vertices, root, index = tree.vertices, tree.root, tree._index
    n = len(vertices)
    # the weights name exactly the non-root vertices: only then are they
    # read in vertex order; any other assignment is checked label by label
    if not (len(weights) == n - 1 and root not in weights and weights.keys() <= index.keys()):
        _check_weights(tree, weights)
    values = list(map(weights.get, vertices))
    if root in index:
        values[index[root]] = 0.0
    values = list(map(complex, values))
    # a NaN or an infinity makes the sum so; an overflowing sum of finite
    # weights only sends them through the check, which passes
    if not cmath.isfinite(sum(values)):
        _check_weights(tree, weights)
    w = np.array(values, dtype=complex)
    parent = np.array(
        list(map(index.get, map(tree._parent.get, vertices), repeat(-1))), dtype=np.intp
    )
    if 0 in values:
        parent[w == 0] = -1
    return ShiftMatrix(tree=tree, basis=vertices, parent=parent, weights=w)


def _check_weights(tree: DirectedTree, weights: dict) -> None:
    """Raise the :class:`WeightError` of :func:`build_shift` for the first
    vertex, in label order, whose weight is missing or not finite, then
    for a weighted root, then for the first unknown label."""
    nonroot = set(tree.nonroot_vertices())
    for v in sorted(nonroot):
        if v not in weights:
            raise WeightError(f"missing weight for vertex {v}")
        if not cmath.isfinite(complex(weights[v])):
            raise WeightError(f"non-finite weight {weights[v]!r} for vertex {v}")
    if tree.root in weights:
        raise WeightError(f"weight supplied for root {tree.root}")
    for label in sorted(weights):
        if label not in nonroot:
            raise WeightError(f"weight supplied for unknown vertex {label}")


def _rank_cut(size: int, rtol: float, sigma_ref: float) -> float:
    """The cut of the one rank rule, ``max(rtol, size * eps) * sigma_ref``,
    where ``size`` is the matrix's larger dimension (its rounding noise
    floors the cut, as numpy's ``matrix_rank`` does) and ``sigma_ref`` its
    largest singular value; the rank counts the singular values above it."""
    return max(rtol, size * np.finfo(float).eps) * sigma_ref


def _rank_above_cut(sigma: np.ndarray, size: int, rtol: float, sigma_ref: float) -> int:
    """The one rank rule: the count of ``sigma`` above :func:`_rank_cut`."""
    return int(np.count_nonzero(sigma > _rank_cut(size, rtol, sigma_ref)))


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


def kernel_table(s, max_power: int) -> KernelTable:
    """Kernel dimensions of the first ``max_power`` powers of a tree shift.

    ``(S*)^m = (S^m)*`` has the rank of ``S^m``, so one rank gives both
    columns.  The columns of ``S^m`` have disjoint supports, and column
    ``u`` is nonzero exactly when a path of ``m`` edges runs down from
    ``u``; the rank is read off that count, with no rounding and no cut.
    ``S^n = 0`` for ``n`` vertices, so :class:`ValueError` refuses a
    ``max_power`` above ``n`` (or below 1), a matrix that is not finite
    (see :func:`_as_matrix`) and one that is no tree shift (see
    :func:`_forest`).  A :class:`ShiftMatrix` is read from its parents, with
    no ``n x n`` array.
    """
    is_shift = isinstance(s, ShiftMatrix)
    t = None if is_shift else _as_matrix(s)
    n = s.n if is_shift else t.shape[0]
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    if max_power > n:
        raise ValueError(f"max_power must be at most the size {n}: S^{n} = 0")
    height = (s.forest if is_shift else _forest(t)).height
    # ranks[m] counts the vertices of height at least m
    ranks = np.bincount(height, minlength=max_power + 1)[::-1].cumsum()[::-1].tolist()
    powers = range(1, max_power + 1)
    return KernelTable(rows=tuple((m, n - ranks[m], n - ranks[m]) for m in powers))


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


class Forest(NamedTuple):
    """The forest of a tree shift, read off its matrix by :func:`_forest` or
    from the parents of a :class:`ShiftMatrix`."""

    parent: np.ndarray
    levels: tuple[np.ndarray, ...]
    height: np.ndarray
    weights: np.ndarray


def _as_matrix(t) -> np.ndarray:
    """The matrix of ``t``, a float64 one as it is and any other as complex,
    checked to be square, nonempty and finite."""
    m = t.matrix if isinstance(t, ShiftMatrix) else np.asarray(t)
    if m.dtype != np.float64:
        m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    finite = np.isfinite(m)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"matrix entry ({row}, {col}) is not finite: {m[row, col]}")
    return m


def _forest(m: np.ndarray) -> Forest:
    """The :class:`Forest` of a tree-shift matrix, the package's one check
    of a matrix as a tree shift.

    ``m`` is the matrix of a tree shift (a forest, in general) when each row
    has at most one nonzero, in the column of the row's parent, and the
    parent pointers close no cycle; a nonzero diagonal entry is a cycle of
    length one; else :class:`ValueError` names a row with two nonzeros or a
    vertex on a cycle.  ``parent[v]`` is the row's nonzero column, -1 at a
    zero row (a root), and ``weights[v] = m[v, parent[v]]``, 0 at a root;
    the rest is read from the parents by :func:`_pattern_forest`, as for a
    :class:`ShiftMatrix`.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"not a tree shift: shape {m.shape} is not square and nonempty")
    nonzero = m != 0
    count = np.count_nonzero(nonzero, axis=1)
    if count.max(initial=0) > 1:
        raise ValueError(f"not a tree shift: row {count.argmax()} has more than one nonzero")
    parent = np.where(count > 0, nonzero.argmax(axis=1), -1).astype(np.intp)
    parent, levels, height = _pattern_forest(parent.tobytes())
    weights = np.where(parent >= 0, m[np.arange(parent.size), parent], 0)
    return Forest(parent, levels, height, weights)


@functools.lru_cache(maxsize=64)
def _pattern_forest(
    parents: bytes,
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """The parent pointers with the bytes ``parents`` (``intp``, -1 at a
    root), ``levels[d]``, the vertices at depth ``d``, roots first, each
    level in ascending order, and ``height[v]``, the length of the longest
    path down from ``v``; :class:`ValueError` names a vertex on a cycle.

    Cached by the parents' ``8 n`` bytes, as :func:`~treeshift.decider._plan`
    is, so the arrays are read-only.
    """
    parent = np.frombuffer(parents, dtype=np.intp)
    up = parent.tolist()
    depth = [-1] * len(up)  # -2 marks the vertices of the walk in progress
    for v, p in enumerate(up):
        if depth[v] >= 0:
            continue
        walk = [v]
        depth[v] = -2
        while p >= 0 and depth[p] == -1:
            depth[p] = -2
            walk.append(p)
            p = up[p]
        if p >= 0 and depth[p] == -2:
            raise ValueError(f"not a tree shift: vertex {p} lies on a cycle")
        d = depth[p] if p >= 0 else -1
        for u in reversed(walk):
            d += 1
            depth[u] = d
    # the vertices by depth, each level ascending; a level is a view of it
    order = np.argsort(np.array(depth, dtype=np.intp), kind="stable")
    order.flags.writeable = False
    stops = np.cumsum(np.bincount(depth, minlength=1)).tolist()
    levels = tuple(order[a:b] for a, b in zip([0, *stops[:-1]], stops))
    height = [0] * len(up)
    for v in reversed(order.tolist()):  # children before their parents
        p = up[v]
        if p >= 0 and height[p] <= height[v]:
            height[p] = height[v] + 1
    height = np.array(height, dtype=np.intp)
    height.flags.writeable = False
    return parent, levels, height


def tree_gauge(forest: Forest) -> np.ndarray:
    """The gauge of :func:`positivize_weights`, read off the :class:`Forest`
    of a tree shift ``m`` alone.

    Returns the unimodular ``d`` with ``d_v = 1`` at a root and ``d_v =
    w_v d_p / |w_v|`` at a vertex with parent ``p`` and edge weight ``w_v =
    m[v, p]``, so that ``conj(d_v) m[v, p] d_p = |m[v, p]|`` and ``D* m D =
    |m|``.  A zero weight leaves a zero row, which the matrix cannot tell
    from a root, so its vertex starts afresh at phase 1.
    """
    parent, levels, _height, w = forest
    d = np.ones(parent.size, dtype=complex)
    for level in levels[1:]:
        d[level] = w[level] * d[parent[level]] / np.abs(w[level])
    return d


@dataclass(frozen=True, eq=False)
class TwinReduction:
    """``R = Q^T M Q``, a real tree shift ``M`` split at its twin subtrees.

    ``R`` is the forest shift with parent pointers ``parent`` (-1 at a
    root) and ``weights``, the weight of the edge into each vertex (0 at a
    root, and nonzero elsewhere), as in a :class:`Forest`; no dense ``R``
    is formed.  ``split`` counts the copies split off.  ``q``, real
    orthogonal, is built on first use by replaying ``merges``, the
    Householder products of the walk in its order; at ``split = 0`` it is
    the identity.  The reflectors of all merges with one copy count come
    from one :func:`_reflectors` call, whose rows are computed
    independently, so ``q`` is the one a call per merge group gives.
    """

    parent: np.ndarray
    weights: np.ndarray
    split: int
    merges: tuple

    @functools.cached_property
    def q(self) -> np.ndarray:
        units_of: dict = {}  # copy count -> the units of its merges, in walk order
        for _cols, units in self.merges:
            units_of.setdefault(len(units[0]), []).extend(units)
        reflectors = {r: _reflectors(np.array(units)) for r, units in units_of.items()}
        taken = dict.fromkeys(reflectors, 0)  # the rows used so far
        q = np.eye(self.parent.size)
        for cols, units in self.merges:
            r = len(units[0])
            h = reflectors[r][taken[r] : taken[r] + len(units)]
            taken[r] += len(units)
            cols = np.array(cols).transpose(0, 2, 1)
            q[:, cols] = q[:, cols] @ h
        return q


def _reflectors(a: np.ndarray) -> np.ndarray:
    """Real orthogonal (Householder) matrices whose first columns are the
    unit rows of ``a``: ``I - 2 v v^T / v^T v`` with ``v = a - e_1``, whose
    first entry is formed without cancellation."""
    tail = np.einsum("gi,gi->g", a[:, 1:], a[:, 1:])
    v = a.copy()
    v[:, 0] = np.where(a[:, 0] <= 0, a[:, 0] - 1.0, -tail / (1.0 + np.abs(a[:, 0])))
    vv = v[:, 0] ** 2 + tail
    scale = np.divide(2.0, vv, out=np.zeros_like(vv), where=vv > 0)
    return np.eye(a.shape[1]) - scale[:, None, None] * v[:, :, None] * v[:, None, :]


def _preorder(v: int, kept: list) -> list[int]:
    """The vertices of ``v``'s subtree in canonical preorder: ``v``, then
    the subtree of each of its ``kept`` children in turn."""
    out, stack = [], [v]
    while stack:
        v = stack.pop()
        while True:  # down the first children, the later ones stacked
            out.append(v)
            children = kept[v]
            if not children:
                break
            if len(children) > 1:
                stack += children[:0:-1]
            v = children[0]
    return out


def twin_reduction(forest: Forest) -> Optional[TwinReduction]:
    """Split a real tree shift ``M``, given by its :class:`Forest`, into
    smaller tree shifts at its twins.

    Siblings are twins when their subtrees below the edge are equal as
    weighted rooted trees, compared on the exact float weights; sibling
    leaves always are.  For ``r`` twins with edge weights ``lambda``, let
    ``H`` be real orthogonal with first column ``lambda / ||lambda||``.
    Mapping each vertex ``x`` of the common subtree ``S`` by ``e_(x,j) =
    sum_k H[k, j] e_(x_k)`` leaves one copy of ``S`` under the parent with
    edge ``||lambda||`` (``j = 0``) and splits off ``r - 1`` copies of ``S``
    with no incoming edge (``j >= 1``, as ``lambda`` is orthogonal to
    ``H[:, j]``) (Jablonski-Jung-Stochel 2012).  Applied bottom-up, with the
    subtrees keyed as they are reduced, this gives ``Q^T M Q = R = T_red +
    sum_j S_j^(+m_j)``, an orthogonal direct sum of tree shifts.  Twins are
    matched exactly, never within a tolerance: a tolerance would split a
    different matrix, while a missed twin only costs time.

    The walk yields the reduced parents and weights and records each merge:
    the columns of its copies' vertices and its unit ``lambda``, grouped per
    level by shape, since the merges of a level touch disjoint columns.  A
    copy's columns, its subtree in canonical preorder (children by key), are
    listed only when a merge records them, so the walk takes time linear in
    the vertices and the recorded columns, not in depth times size.
    ``Q`` is the identity times one product per group, in walk order, and
    is formed only when asked for.  Returns ``None`` when a merged weight
    overflows.  Raises :class:`ValueError` when the weights are complex.
    """
    parent, levels, _height, w = forest
    if np.iscomplexobj(w):
        raise ValueError("twin_reduction needs real weights, such as those of |T|")
    n = parent.size
    # the reduced forest, as lists while the loop reads and writes entries
    up, w = parent.tolist(), np.asarray(w, dtype=float).tolist()
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(up):
        if p >= 0:
            kids[p].append(v)
    split = 0
    ids: dict = {}  # subtree shape -> its key
    key = [0] * n  # the key of each vertex's subtree below its edge
    kept = kids[:]  # each vertex's children left in place, in canonical order
    # (depth, copies, vertices per copy) -> ([columns], [unit]), bottom-up
    shapes: dict = {}
    # the stem, a lone root and its line of only children, comes last in the
    # walk and has no siblings: its keys would be compared with none, and
    # every shape below it is numbered first, so the walk stops at its
    # lowest vertex
    top = 0
    while top + 1 < len(levels) and levels[top].size == levels[top + 1].size == 1:
        top += 1
    for depth in range(len(levels) - 1, top - 1, -1):
        for u in levels[depth].tolist():
            children = kids[u]
            if not children:
                key[u] = ids.setdefault((), len(ids))
                continue
            if len(children) == 1:  # one child: no twins, no groups
                c = children[0]
                key[u] = ids.setdefault(((w[c], key[c]),), len(ids))
                continue
            groups: dict = {}
            for c in children:
                groups.setdefault(key[c], []).append(c)
            shape, first = [], []
            # twins are merged, so the kept children have distinct keys and
            # their order by key is canonical
            for k in sorted(groups):
                twins = groups[k]
                c = twins[0]
                if len(twins) > 1:
                    lam = [w[t] for t in twins]
                    w[c] = math.hypot(*lam)
                    copies = [_preorder(t, kept) for t in twins]
                    cols, units = shapes.setdefault(
                        (depth, len(twins), len(copies[0])), ([], [])
                    )
                    cols.append(copies)
                    units.append([x / w[c] for x in lam])
                    for t in twins[1:]:
                        w[t], up[t] = 0.0, -1
                    split += len(twins) - 1
                shape.append((w[c], k))
                first.append(c)
            key[u] = ids.setdefault(tuple(shape), len(ids))
            kept[u] = first
    w = np.array(w)
    if not np.isfinite(w).all():
        return None
    return TwinReduction(
        parent=np.array(up), weights=w, split=split, merges=tuple(shapes.values())
    )
