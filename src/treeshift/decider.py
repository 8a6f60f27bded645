"""Decision pipeline for complex symmetry of a weighted shift on a finite
rooted tree, or forest.

Every entry point takes a tree shift only: a
:class:`~treeshift.shift.ShiftMatrix`, whose forest is read from its
parents, or a matrix, which :func:`~treeshift.shift._forest` checks; any
other matrix raises :class:`ValueError`.  A call reads the forest once and
hands it, through :func:`_prepared`, to every stage but the words.  The
chain decision and the ``chain_reversal`` replay need no ``n x n`` array,
so a tree above the vertex bound of :mod:`~treeshift.trees` is refused only
after them, before the first step that needs one.  The pipeline has three
steps, and each can decide:

1. the twin reduction
   (:func:`~treeshift.shift.twin_reduction`), which splits ``|T|`` into an
   orthogonal direct sum ``R = Q^T |T| Q`` of smaller tree shifts, and,
   when every summand is a chain, the exact chain decision: a sum of chains
   is complex symmetric iff every weight sequence occurs as often as its
   reversal.  When every chain reads the same backwards, the direct sum of
   the flips is the certificate; when the reversal of some chain lies far
   from every chain of its length, that chain is a ``not_cs`` witness
   (kind ``chain_reversal``).  Anything else falls through,
2. traces of words in ``T`` and ``T*`` compared against their reversals
   (equal for any operator unitarily equivalent to its transpose, hence for
   every complex symmetric one); a gap is a ``not_cs`` witness,
3. the joint space ``W = {A = A^T : T A = A T^T, T* A = A conj(T)}`` of
   ``R``.

The chain decision needs the reduced parents and weights only; ``Q`` is
formed only to carry a certificate back.  On a connected tree every chain
of ``R`` is a tail of the root chain, so chains of one length are equal, a
chain that is no palindrome has no reversed partner, and the decision
never falls through for want of one; only a forest (a zero weight, or a
raw forest matrix) can hold mirror pairs ``S + rev(S)``, which the solve
certifies.  A ``chain_reversal`` witness records the chain's weights, the
gap between its reversal and the nearest chain of its length relative to
the largest weight, and the threshold ``1e3 tol`` (see :func:`_chain_tol`);
a gap below it (a near miss) falls through.  The replay reduces the matrix
again, without ``Q``, finds the chain and recomputes the gap.

A tree shift is decided in real arithmetic.  A diagonal unitary ``D``,
read off the forest alone (:func:`~treeshift.shift.tree_gauge`), gives
``D* T D = |T|``, the shift with weights ``|lambda_v|``.  Complex
symmetry, word traces and the dimension of ``W`` are unchanged by that
equivalence, and by the real orthogonal ``Q``, so the words run on ``|T|``
and the chains and the solve on ``R``, both real and neither needing a
phase (:func:`_prepared`); ``D`` is read only to carry a candidate back,
once, as ``D Q U Q^T D^T``, checked against the original ``T``.  The
reduction refines the blocks of the solve, since no equation joins two
summands, and collapses twin subtrees, whose copies no longer inflate each
block.

``T`` is complex symmetric exactly when some symmetric unitary ``U``
satisfies ``T U = U T^T``.  Taking the adjoint of ``U* T U = T^T`` gives
``T* U = U conj(T)``, so every certificate lies in ``W``, the symmetric
part of the space ``V`` of unitary equivalences of ``T`` to its transpose
(Garcia-Tener 2012).  ``W = {0}`` holds no certificate, nor does a line
spanned by ``A`` when the spread ``sigma_min(A) / sigma_max(A)`` is below
1/2, since every element of the line has that spread.  Either is a
``not_cs`` when the rank cut sits in a wide singular value gap, so that no
element of ``W`` hides below it; the witness (kind ``structure``) records
``dim W``, the spread and the singular values either side of the cut, and
the replay reduces the matrix and solves ``W`` again.

Otherwise the certificate is the polar factor of one generic element ``X``
of ``W``, a seeded real Gaussian combination of its basis.  For ``X``
invertible, ``X* X`` commutes with ``T^T`` and ``conj(T)``, so the polar
factor ``X (X* X)^(-1/2)`` lies in ``V``; by Takagi, ``X = P S P^T`` makes
it ``P P^T``, which is symmetric.  So ``T`` is complex symmetric iff ``W``
has an invertible element, and a random element is invertible with
probability 1 when one is.  The same element, through the same SVD, gives
the spread of the structure witness at ``dim W = 1``.  The candidate is
checked against ``T``; when it fails, the verdict is ``undetermined``.  A
flip certificate that fails its check falls through to the words.

The kernel dimensions of ``T^m`` and ``T*^m`` are not compared: they
always agree (``rank M = rank M*``), and with a tight rank cut the test
would fire on rounding noise alone.  Nor is the space
``{A = A^T : T A = A T^T}`` of ``T`` alone ever ``{0}`` (every square
matrix is similar to its transpose through a nonsingular symmetric matrix,
Taussky-Zassenhaus 1959); ``W`` can be.

The word search evaluates one word per class.  A trace does not change
when its word is rotated, so all rotations of a word and of its reversal (a
class) share one exact gap between a trace and its reversal's, and a word
whose reversal is one of its rotations has gap 0.  So only the least word
of each class whose reversal is no rotation of it is evaluated, with its
reversal, by the one sequential evaluator that the replay also uses.  A
tree shift raises depth by one, so a word with ``a`` letters ``T`` and
``b`` letters ``T*`` maps depth ``d`` to ``d + a - b``; unless ``a = b``
every term of a diagonal entry of its product has a structurally zero
factor, so its trace evaluates to exactly 0 (or NaN once an overflowed
product meets a zero), as does its reversal's, and their gap exceeds no
threshold.  So only the balanced classes are evaluated.  The search is
fixed at words of up to 8 letters, and of their 225 pairs of a word and its
reversal it evaluates the 3 of :data:`_WORDS`.  The word tolerance of a
verdict and of its replay is floored at ``6.4 (8 n + n^2) eps``, over
twelve times the rounding of a gap, so the gap rounding alone opens for a
skipped word is never a witness, and the witness is the one a plain scan
of every pair returns unless a class's gap lies within rounding of the
threshold.

The Sylvester system is never formed densely, nor is a basis of ``W``.
The equation of ``T*`` is that of ``T`` for ``M = T*``, since
``M^T = conj(T)``, so ``W`` stacks the two systems.  ``A -> M A - A M^T``
maps a symmetric ``A`` to a skew matrix, so only the equations above the
diagonal are assembled, each scaled by ``sqrt 2``: they are the image's
coordinates in the orthonormal skew basis, and the singular values are
those of the full system.  The equations are assembled from the edges
of ``R`` and split into the blocks of unknowns that share an equation; a
tree shift raises depth by one, so these refine the classes of vertex
pairs with equal depth sum.  All of that depends on the parent pointers
alone, so it is worked out once per forest (the plan, cached on the
parents' bytes) and reused, by the replay of a ``structure`` witness and
by every matrix of one tree with the same twins.  The numeric pass
gathers the edge weights, one scatter fills the blocks of a shape, one
stacked SVD solves them, and all are cut by the rank rule of
:func:`~treeshift.shift._rank_cut`.  The solver keeps each block's
null vectors, and the generic element of ``W`` is scattered from them
straight into one ``n x n`` matrix.

A verdict is ``cs`` only with a verified certificate, ``not_cs`` only with a
witness that re-evaluates from the matrix alone with a wide margin, and
``undetermined`` otherwise.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

# conjugation_from_matrix and verify_c_symmetry are re-exported for the
# benchmark, which traces them by name in this module
from .conjugation import (  # noqa: F401
    Conjugation,
    ConjugationError,
    conjugation_from_matrix,
    gauged_conjugation,
    verify_c_symmetry,
)
from .serialize import complex_to_pair
from .shift import (
    Forest,
    ShiftMatrix,
    TwinReduction,
    _as_matrix,
    _forest,
    _rank_above_cut,
    _rank_cut,
    tree_gauge,
    twin_reduction,
)
from .trees import _check_size

__all__ = [
    "DeciderOptions",
    "Verdict",
    "decide_cs",
    "word_trace_obstruction",
    "word_value",
    "reevaluate_obstruction",
]


# bool is an int subclass, but True is no number here
def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_count(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 0


# The relative rank cut of the solve of W (floored at the rounding noise by
# shift._rank_cut): it fixes dim W, in a verdict and in a structure replay
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class DeciderOptions:
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        # a numpy number is stored as a float or an int, so that reports
        # serialize
        if not (_is_real(self.tol) and math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        object.__setattr__(self, "tol", float(self.tol))
        if not _is_count(self.seed):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    def to_doc(self) -> dict:
        # max_word_len is the length of the longest word the search covers
        return {"tol": self.tol, "rank_rtol": _RANK_RTOL,
                "max_word_len": len(_WORDS[-1]), "seed": self.seed}


# not exported; kept while perfbench/bench.py's TRACED names it
def kernel_obstruction(t) -> None:
    """The first power where the kernels of ``T^m`` and ``T*^m`` differ:
    none, as ``(T*)^m = (T^m)*`` has the rank of ``T^m``, so :func:`decide_cs`
    runs no such check.  Returns ``None`` once ``t`` passes the input check
    of every entry point, a finite tree shift, else raises :class:`ValueError`."""
    _forest(_as_matrix(t))
    return None


def _letters(m: np.ndarray) -> dict:
    return {"T": m, "T*": m.conj().T}


def _word_trace(mats: dict, letters: Sequence[str]) -> complex:
    acc = np.eye(mats["T"].shape[0], dtype=mats["T"].dtype)
    for letter in letters:
        acc = mats[letter] @ acc
    return complex(np.trace(acc))


def _trace_gap(tr: complex, tr_rev: complex) -> float:
    """``abs(tr - tr_rev)``, and NaN when a part is NaN and none infinite.

    Python's ``abs`` of such a complex leaves ``errno`` as it found it and
    then reads it, so after any earlier range error in the process (a caught
    float overflow, say) it raises ``OverflowError`` instead.
    """
    gap = tr - tr_rev
    return math.nan if cmath.isnan(gap) and not cmath.isinf(gap) else abs(gap)


def _checked_word(letters: Sequence[str]) -> list[str]:
    """``letters`` as a list; :class:`ValueError` when it is no list or
    tuple, or naming the first letter other than ``"T"`` or ``"T*"``."""
    if not isinstance(letters, (list, tuple)):
        raise ValueError(f"a word is a list of letters, got {letters!r}")
    letters = list(letters)
    for letter in letters:
        if letter not in ("T", "T*"):
            raise ValueError(f"word letter {letter!r} is neither 'T' nor 'T*'")
    return letters


def word_value(t, letters: Sequence[str]) -> complex:
    """Trace of a word in ``T`` and ``T*``; the first letter acts first.
    Raises :class:`ValueError` for a matrix that is no tree shift."""
    m = _as_matrix(t)
    _forest(m)
    return _word_trace(_letters(m), _checked_word(letters))


def _word_threshold(tol: float, norm: float, length: int) -> float:
    """Trace gap a word of ``length`` letters must exceed to be a witness:
    ``10 tol max(1, norm ** length)``, with overflow read as ``inf``."""
    try:
        return 10.0 * tol * max(1.0, norm**length)
    except OverflowError:
        return math.inf


# The least word of each class of up to 8 letters, as many T as T*, whose
# reversal is no rotation of it, in search order: by length, then
# lexicographically with T < T*.  A class is all rotations of a word and of
# its reversal; these are the balanced binary necklaces that differ from
# their bracelets, none below 6 letters, then 1 at 6 and 2 at 8
_WORDS = (
    ("T", "T", "T*", "T", "T*", "T*"),
    ("T", "T", "T", "T*", "T", "T*", "T*", "T*"),
    ("T", "T", "T*", "T", "T*", "T", "T*", "T*"),
)


def _word_tol(opts: DeciderOptions, n: int) -> float:
    """The tolerance of the verdict's word stage on an ``n x n`` matrix:
    ``opts.tol``, floored at ``6.4 (8 n + n^2) eps`` for the longest word,
    of 8 letters.

    With unit roundoff ``u = eps / 2`` a complex matmul errs by at most
    ``sqrt(2) (n + 2) u ||A||_F ||B||_F``, and an error made anywhere in a
    word's product grows to at most that times ``||T||_F^L``.  So the
    ``L - 1`` matmuls and the trace of the sequential evaluator leave each
    trace within ``3 sqrt(2) (L n + n^2) u ||T||_F^L``, and a gap within
    ``5 (L n + n^2) eps max(1, ||T||_F^L)`` of its exact value (the
    ``max(1, .)`` floors underflowed products).  The floor puts every
    threshold over twelve times that, so no gap that rounding alone opens,
    such as ``tr(T T*) - tr(T* T)``, is a witness however small
    ``opts.tol``.
    """
    eps = np.finfo(float).eps
    return max(opts.tol, 6.4 * (len(_WORDS[-1]) * n + n * n) * eps)


@np.errstate(over="ignore", invalid="ignore")
def word_trace_obstruction(t, tol: float = 1e-10) -> Optional[dict]:
    """First of the words :data:`_WORDS` whose trace differs from the trace
    of the reversed word beyond ``10 * tol * max(1, ||T||_F ** len)``; the
    module docstring says why the other words of up to 8 letters can be
    skipped.

    Each word and its reversal go through the sequential evaluator that
    :func:`word_value` and :func:`reevaluate_obstruction` share, so the
    witness replays bit for bit.  ``tol`` is taken as given; :func:`decide_cs`
    and :func:`reevaluate_obstruction` pass the one :func:`_word_tol`
    floors, at which the witness is the one a scan of every pair up to 8
    letters returns unless a class's gap lies within rounding of the
    threshold.  Raises :class:`ValueError` for a matrix that is no tree
    shift and a ``tol`` that is negative or NaN.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    m = _as_matrix(t)
    _forest(m)
    mats = _letters(m)
    norm = float(np.linalg.norm(m))
    for letters in _WORDS:
        threshold = _word_threshold(tol, norm, len(letters))
        if not threshold < math.inf:
            continue  # no gap exceeds an infinite or NaN threshold
        tr = _word_trace(mats, letters)
        tr_rev = _word_trace(mats, letters[::-1])
        margin = _trace_gap(tr, tr_rev)
        if margin > threshold:
            return {
                "word": list(letters),
                "trace": complex_to_pair(tr),
                "trace_reversed": complex_to_pair(tr_rev),
                "margin": float(margin),
                "threshold": float(threshold),
            }
    return None


class _Plan(NamedTuple):
    """The part of :func:`_sylvester_nullspace` that depends on the parent
    pointers of the forest alone, built once per forest by :func:`_plan`.

    Entry arrays, one value per nonzero of the system, in the order the
    group scatters add them: ``src``, the vertex whose edge weight it takes;
    ``coef``, the factor of that value (the sign of the equation and the
    ``sqrt 2`` scales); ``at``, its cell in its group's stack.  ``groups``
    holds each shape group's entry slice ``lo, hi`` and its shape ``(count,
    rows, width)``, in layout order, and ``sv_block`` the block of each
    singular value the groups return, in that order.  Per
    block, in label order: ``group_of`` and ``index_of`` place it in its
    group's stack, ``ncols`` is its width, and ``unknowns[unk_start[b]:]
    [:ncols[b]]`` are its unknowns, ascending.  ``free`` holds the unknowns
    in no equation.
    """

    src: np.ndarray
    coef: np.ndarray
    at: np.ndarray
    groups: tuple
    sv_block: np.ndarray
    group_of: np.ndarray
    index_of: np.ndarray
    ncols: np.ndarray
    unknowns: np.ndarray
    unk_start: np.ndarray
    free: np.ndarray


def _sylvester_nullspace(tree, rtol: float):
    """The joint space ``W`` (see the module docstring) of the real forest
    shift ``m`` of ``tree``, a twin reduction or the forest of ``|T|``,
    block by block: the common null space of ``A -> M A - A M^T`` on
    symmetric ``A`` for ``M = m`` and ``M = m^T``.

    The symbolic work, which unknowns and equations each edge joins and
    into which blocks they split, depends on the parent pointers alone and
    is done once per forest by :func:`_plan`.  The numeric pass gathers
    the edge weights into the entries, fills each shape group with one
    scatter and solves it with one stacked SVD, so only one group's cells
    are held at a time.  All blocks are cut by the rank rule of
    :func:`~treeshift.shift._rank_cut` for the whole system of
    ``size = 2 n^2`` rows, ``max(rtol, size eps)`` times the largest
    singular value of any block, which is the cut a dense SVD applies; the
    ranks of all blocks come from one comparison of the singular values
    with that cut.

    Returns ``(dim, sigma, null)``: ``dim W``; the singular values of the
    whole system, descending and zero-padded to ``n (n + 1) / 2``; and
    ``null = (n, free, blocks)``, which :func:`_scatter` combines
    into elements of ``W`` without forming a basis.  ``free`` holds the
    unknowns in no equation, numbered as the pairs of ``np.triu_indices``,
    and ``blocks`` the ``(unknowns, null vectors)`` of each block that has
    a null vector, in block order.  The Frobenius-orthonormal basis of
    ``W`` they describe has the free unknowns first, then the null vectors
    block by block.  Returns ``None`` instead when an entry or a singular
    value of the system overflows.
    """
    n = tree.parent.size
    plan = _plan(tree.parent.astype(np.intp).tobytes())
    values = tree.weights[plan.src] * plan.coef

    found, solved = [np.zeros(0)], []  # the zeros stand in for no equation
    for lo, hi, (count, rows, width) in plan.groups:
        cells = np.bincount(plan.at[lo:hi], values[lo:hi], count * rows * width)
        if not np.isfinite(cells).all():
            return None
        # with at least as many rows as unknowns the economy vh is complete
        _u, s, vh = np.linalg.svd(
            cells.reshape(count, rows, width), full_matrices=rows < width
        )
        found.append(s.ravel())
        solved.append(vh)

    sigma = np.zeros(n * (n + 1) // 2)
    flat = np.concatenate(found)
    if not np.isfinite(flat).all():
        return None
    sigma[: flat.size] = np.sort(flat)[::-1]
    cut = _rank_cut(2 * n * n, rtol, sigma[0])
    rank = np.bincount(plan.sv_block[flat > cut], minlength=plan.ncols.size)
    nullity = plan.ncols - rank
    null = []
    for b in np.flatnonzero(nullity).tolist():
        start, vh = plan.unk_start[b], solved[plan.group_of[b]][plan.index_of[b]]
        null.append((plan.unknowns[start:start + vh.shape[1]], vh[rank[b]:]))
    dim = plan.free.size + int(nullity.sum())
    return dim, sigma, (n, plan.free, null)


@functools.lru_cache(maxsize=8)
def _plan(parents: bytes) -> _Plan:
    """The :class:`_Plan` of a forest shift ``m`` whose parent pointers are
    the ``intp`` array with the bytes ``parents``; its edge weights are
    nonzero, so the parents fix its nonzero pattern.

    ``T* A = A conj(T)`` is the equation for ``M = T*`` (``M^T =
    conj(T)``), so the equations of ``m^T``, which is ``m*`` for a real
    ``m``, are stacked below those of ``m``, rows offset by ``n^2``; the
    nonzeros ``(r, x)`` are ``(v, parent[v])`` by ``v`` in ``m`` and
    ``(parent[v], v)`` by parent, then ``v``, in ``m^T``.

    The unknowns are the coefficients of the orthonormal symmetric basis
    ``E_pp`` and ``(E_pq + E_qp) / sqrt 2`` (``p < q``).  The map sends a
    symmetric ``A`` to a skew matrix, whose equation ``(y, r)`` is minus
    equation ``(r, y)`` and whose diagonal equations vanish.  So only the
    equations ``(r, y)`` with ``r < y`` are assembled, each scaled by
    ``sqrt 2``: they are the coordinates of the image in the orthonormal
    skew basis ``(E_ry - E_yr) / sqrt 2``, and the singular values are
    those of all ``2 n^2`` equations.  Through the end ``(x, y)`` of its
    pair, unknown ``(p, q)`` enters only the equations ``{r, y}`` with
    ``M[r, x] != 0`` and ``r != y``, so the system splits into blocks of
    unknowns joined by shared equations.  A tree shift raises depth by one,
    so the blocks refine the classes of pairs with a fixed depth sum.  Each
    block's rows are its equations and its columns its unknowns, both in
    increasing order.  The blocks are laid out grouped by shape, in label
    order within a group.

    Cached by the parents' ``8 n`` bytes, so the arrays are read-only.
    """
    parent = np.frombuffer(parents, dtype=np.intp)
    n = parent.size
    size = 2 * n * n
    p_of, q_of = np.triu_indices(n)
    npairs = p_of.size
    unknown = np.empty((n, n), dtype=np.intp)
    unknown[p_of, q_of] = unknown[q_of, p_of] = np.arange(npairs)
    # the unknown's basis weight times the equation's sqrt 2
    scale = np.ones((n, n))
    np.fill_diagonal(scale, np.sqrt(2.0))

    # one entry per (nonzero M[r, x], y != r): +t in equation (r, y) when
    # r < y, else -t in equation (y, r); t is the weight of the child v
    y = np.arange(n)
    child = np.flatnonzero(parent >= 0)
    by_parent = child[np.argsort(parent[child], kind="stable")]
    cols, eqs, coef = [], [], []
    for k, v in enumerate((child, by_parent)):
        r, x = (v, parent[v]) if k == 0 else (parent[v], v)
        r, x = r[:, None], x[:, None]
        keep = r != y
        cols.append(unknown[x, y][keep])
        eqs.append((k * n * n + np.minimum(r, y) * n + np.maximum(r, y))[keep])
        coef.append(np.where(r < y, scale[x, y], -scale[x, y])[keep])
    src = np.repeat(np.concatenate([child, by_parent]), n - 1)  # n - 1 rows y each
    cols, eqs, coef = (np.concatenate(a) for a in (cols, eqs, coef))

    # connected components of the unknown-equation graph: propagate the
    # smallest node id, so each block is labelled by its first unknown
    label = np.arange(npairs + size)
    eq_nodes = npairs + eqs
    while True:
        low = np.minimum(label[cols], label[eq_nodes])
        new = label.copy()
        np.minimum.at(new, cols, low)
        np.minimum.at(new, eq_nodes, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new

    # number the blocks in label order, and the unknowns and equations of
    # each block in increasing order, from 0; a block's label is its first
    # unknown, so the blocks are the unknowns that label themselves
    touched = np.zeros(npairs, dtype=bool)
    touched[cols] = True
    unk = np.flatnonzero(touched)
    has_eq = np.zeros(size, dtype=bool)
    has_eq[eqs] = True
    eq = np.flatnonzero(has_eq)
    roots = unk[label[unk] == unk]
    block_at = np.zeros(npairs, dtype=np.intp)
    block_at[roots] = np.arange(roots.size)

    def local_numbers(ids, blocks):
        order = np.argsort(blocks, kind="stable")  # ids ascend within a block
        counts = np.bincount(blocks, minlength=roots.size)
        local = np.empty(ids.size, dtype=np.intp)
        local[order] = np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return ids[order], counts, local

    unknowns, ncols, unk_local = local_numbers(unk, block_at[label[unk]])
    _eq_sorted, nrows, eq_local = local_numbers(eq, block_at[label[npairs + eq]])
    col_at = np.zeros(npairs, dtype=np.intp)
    col_at[unk] = unk_local
    row_at = np.zeros(size, dtype=np.intp)
    row_at[eq] = eq_local

    # lay the blocks out grouped by shape, in label order within a group,
    # and sort the entries by their place in that layout; a stable sort
    # keeps repeated entries in order, and bincount adds them in order
    layout = np.lexsort((ncols, nrows))
    cells = (nrows * ncols)[layout]
    offset = np.empty(roots.size, dtype=np.intp)
    offset[layout] = np.cumsum(cells) - cells
    block = block_at[label[cols]]
    flat = offset[block] + row_at[eqs] * ncols[block] + col_at[cols]
    order = np.argsort(flat, kind="stable")
    flat = flat[order]

    # the shape groups: runs of equal shape in the layout
    dims = np.stack([nrows[layout], ncols[layout]])
    first = np.flatnonzero(np.any(dims[:, 1:] != dims[:, :-1], axis=0)) + 1
    first = np.concatenate([[0], first]) if layout.size else first
    stop = np.append(first[1:], layout.size)
    count = stop - first
    group_of = np.empty(roots.size, dtype=np.intp)
    index_of = np.empty(roots.size, dtype=np.intp)
    group_of[layout] = np.repeat(np.arange(first.size), count)
    index_of[layout] = np.arange(layout.size) - np.repeat(first, count)
    start = offset[layout[first]]
    bounds = np.searchsorted(flat, np.append(start, offset.size and flat[-1] + 1))
    flat -= np.repeat(start, np.diff(bounds))
    groups = tuple(
        (lo, hi, (z - a, int(nrows[layout[a]]), int(ncols[layout[a]])))
        for lo, hi, a, z in zip(
            bounds[:-1].tolist(), bounds[1:].tolist(), first.tolist(), stop.tolist()
        )
    )
    # the block of each singular value, in the order the groups find them
    sv_block = np.repeat(layout, np.minimum(nrows, ncols)[layout])

    plan = _Plan(
        src=src[order],
        coef=coef[order],
        at=flat,
        groups=groups,
        sv_block=sv_block,
        group_of=group_of,
        index_of=index_of,
        ncols=ncols,
        unknowns=unknowns,
        unk_start=np.cumsum(ncols) - ncols,
        free=np.flatnonzero(~touched),
    )
    for a in (*plan[:3], *plan[4:]):
        a.flags.writeable = False
    return plan


def _scatter(null, coeffs: np.ndarray) -> np.ndarray:
    """``sum_i coeffs[..., i] B_i`` over the basis ``B`` of ``W`` that
    ``null``, from :func:`_sylvester_nullspace`, describes, scattered
    straight into ``(..., n, n)`` matrices.

    Each block's share is one product of its coefficients with its null
    vectors; a ``(dim W, n, n)`` basis is formed only when asked for, by
    ``coeffs = eye(dim W)``.
    """
    n, free, blocks = null
    coeffs = np.asarray(coeffs)
    unknowns, values = [free], [coeffs[..., : free.size]]
    start = free.size
    for unk, vectors in blocks:
        unknowns.append(unk)
        values.append(coeffs[..., start:start + vectors.shape[0]] @ vectors)
        start += vectors.shape[0]
    unk = np.concatenate(unknowns)
    p, q = (idx[unk] for idx in np.triu_indices(n))
    value = np.concatenate(values, axis=-1) * np.where(p == q, 1.0, 1.0 / np.sqrt(2.0))
    out = np.zeros(coeffs.shape[:-1] + (n, n), dtype=value.dtype)
    out[..., p, q] = out[..., q, p] = value
    return out


def _joint_space(
    tree, rtol: float, seed: int
) -> Optional[tuple[Optional[np.ndarray], dict, bool]]:
    """Solve the joint space ``W`` of ``tree`` and take one generic element.

    The element ``X`` is a seeded real Gaussian combination of the basis of
    ``W``, scattered from the solver's null vectors by :func:`_scatter`.
    Returns ``None`` when the system of ``W`` is not finite, else
    ``(polar, witness, excluded)``: the unitary polar factor
    of ``X``, ``None`` when ``W = {0}``; the structure witness; and whether
    ``W`` excludes a certificate.  The witness records ``dim W``; the
    ``spread`` ``sigma_min / sigma_max`` of ``X`` (0 when ``W = {0}``); and,
    relative to the largest singular value of the system, ``sigma_kept``
    and ``sigma_cut``, the singular values just above and just below the
    rank cut.  ``W`` excludes a certificate when it is ``{0}``, or a line
    whose elements are far from any unitary (``spread < 1/2``; at
    ``dim W = 1``, ``X`` is a nonzero multiple of the basis vector and has
    its spread), and the cut sits in a wide gap: ``sigma_kept`` at least
    ``1e3`` times the cut and ``1e6`` times ``sigma_cut``, so that no
    element of ``W`` can hide below it.
    """
    solved = _sylvester_nullspace(tree, rtol)
    if solved is None:
        return None
    dim, sigma, null = solved
    rank = sigma.size - dim
    kept = sigma[rank - 1] if rank else 0.0
    below = sigma[rank] if dim else 0.0
    polar, spread = None, 0.0
    if dim:
        rng = np.random.default_rng(seed)
        element = _scatter(null, rng.standard_normal(dim))
        polar, s = _polar_factor(element)
        spread = s[-1] / s[0] if s[0] > 0 else 0.0
    wide = (
        rank > 0
        and _rank_above_cut(sigma, 2 * tree.parent.size**2, rtol, 1e3 * sigma[0]) == rank
        and kept >= 1e6 * below
    )
    ref = sigma[0] if sigma[0] > 0 else 1.0
    witness = {
        "dim": int(dim),
        "spread": float(spread),
        "sigma_kept": float(kept / ref),
        "sigma_cut": float(below / ref),
    }
    return polar, witness, bool(wide and dim <= 1 and spread < 0.5)


def _polar_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unitary polar factor ``u vh`` of ``a`` and its singular values."""
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on tightly clustered singular values;
        # with a = q r, the polar factor of a is q times that of r
        q, r = np.linalg.qr(a)
        u, s, vh = np.linalg.svd(r)
        return q @ (u @ vh), s
    return u @ vh, s


def _prepared(forest: Forest, reduce: bool) -> tuple[Forest, Optional[TwinReduction]]:
    """From the forest of a tree shift ``m``, read once per call by
    :func:`~treeshift.shift._forest`: the forest of ``|m|``, which the
    stages run on with no phase read; and with ``reduce`` its twin
    reduction, ``None`` when a merged weight overflows."""
    work = forest._replace(weights=np.abs(forest.weights))
    return work, twin_reduction(work) if reduce else None


def _chains(parent: np.ndarray) -> Optional[list[list[int]]]:
    """The summands of the forest with parent pointers ``parent`` as vertex
    lists from root to leaf, roots ascending, when each is a chain (no
    vertex has two children); else ``None``."""
    up = parent.tolist()
    below = [-1] * len(up)
    roots = []
    for v, p in enumerate(up):
        if p < 0:
            roots.append(v)
        elif below[p] >= 0:
            return None
        else:
            below[p] = v
    out = []
    for v in roots:
        chain = [v]
        while (v := below[v]) >= 0:
            chain.append(v)
        out.append(chain)
    return out


# A chain_reversal witness's relative gap exceeds this many times tol.
_CHAIN_GAP = 1e3


def _chain_tol(opts: DeciderOptions) -> float:
    """The tolerance of the chain decision: ``opts.tol``, floored at
    ``16 eps``.  A weight of ``R`` is the modulus of a weight of ``T`` or
    the ``hypot`` of some, within two ulps of its exact value, so two
    weights equal in exact arithmetic differ by at most ``4 eps`` times the
    largest; with the floor no such gap breaks a palindrome or opens a
    witness, however small ``opts.tol``."""
    return max(opts.tol, 16.0 * np.finfo(float).eps)


def _reversal_gap(a: tuple, links: Sequence[tuple], scale: float) -> float:
    """How far the reversal of the chain weights ``a`` lies from the nearest
    of ``links`` of its length, one of them ``a``, in the largest
    difference, over ``scale``; Python floats, whose subtraction, ``abs``,
    ``max`` and division are IEEE's, as numpy's are."""
    rev = a[::-1]
    return min(
        max(map(abs, map(operator.sub, b, rev)), default=0.0)
        for b in links if len(b) == len(a)
    ) / scale


def _chain_decision(red: TwinReduction, tol: float) -> Optional[tuple[str, object]]:
    """The chain decision of the module docstring on the reduction ``red``:
    ``("cs", (flip, dim W))``, ``("not_cs", witness)``, or ``None`` when
    ``R`` is not all chains or the call is too close.

    A chain with links ``a_1..a_k`` is irreducible, its transpose is the
    chain with links ``a_k..a_1``, and two chains are unitarily equivalent
    only when their links agree.  When every chain is a palindrome within
    ``tol`` times the largest weight, the flip reversing each chain's
    vertices is a real symmetric orthogonal certificate for ``R``; a class
    of ``m`` copies adds ``m (m + 1) / 2`` to ``dim W``, with copies counted
    on exact weights, as the reduction matches twins.  The witness is the
    first distinct chain, in root order, whose reversal lies over ``1e3
    tol`` times the largest weight from every chain of its length.

    The links are read as Python floats, whose subtraction, ``abs`` and
    comparison are numpy's, and, being finite and positive, are equal
    exactly when their bits are.
    """
    chains = _chains(red.parent)
    if chains is None:
        return None
    w = red.weights.tolist()
    scale = max(w)  # the roots' 0.0 is the least weight
    links = [tuple(map(w.__getitem__, chain[1:])) for chain in chains]
    # a chain of one vertex has no links; it is a palindrome
    distinct = [a for a in dict.fromkeys(links) if a]
    cut = tol * scale
    if all(max(map(abs, map(operator.sub, a, a[::-1]))) <= cut for a in distinct):
        order = [v for chain in chains for v in chain]
        flip = np.arange(len(w))
        flip[order] = [v for chain in chains for v in reversed(chain)]
        copies = Counter(links).values()
        return "cs", (flip, sum(k * (k + 1) // 2 for k in copies))
    for a in distinct:
        gap = _reversal_gap(a, distinct, scale)
        if gap > _CHAIN_GAP * tol:
            return "not_cs", {"weights": list(a), "gap": gap, "threshold": _CHAIN_GAP * tol}
    return None


# not exported: a test reference, kept while perfbench/bench.py's TRACED names it
def unitary_search(space: Sequence[np.ndarray], seed: int = 0) -> Optional[np.ndarray]:
    """Search the given subspace for a unitary element.

    :func:`decide_cs` does not call this search; it is a fixed reference
    that its one-shot certificate is tested against.  Runs projected
    gradient descent with unit step on the squared distance to the unitary
    group, which reduces to alternating a polar projection with the
    orthogonal projection onto the subspace, from 64 starts of at most 500
    steps each, until the unitary residual ``||A A* - I||_F`` is at most
    ``1e-10``.  The starts are seeded and scanned in order, so the result
    is deterministic for a fixed ``seed``; the first two are structured
    (projections of the antidiagonal flip and of the identity), the rest
    random.
    """
    if len(space) == 0:
        return None
    basis = np.asarray(space, dtype=complex)
    n = basis.shape[1]
    flat = basis.reshape(basis.shape[0], n * n)
    sqrt_n = np.sqrt(n)

    def project(mat: np.ndarray) -> np.ndarray:
        # conj(B conj(v)) = conj(B) v, without a conjugated copy of B
        coeffs = (flat @ mat.ravel().conj()).conj()
        return (coeffs @ flat).reshape(n, n)

    rng = np.random.default_rng(seed)
    d = flat.shape[0]
    coeffs = rng.standard_normal((64, d)) + 1j * rng.standard_normal((64, d))
    starts = list((coeffs @ flat).reshape(64, n, n))
    flip = np.eye(n, dtype=complex)[::-1].copy()
    for idx, structured in enumerate((project(flip), project(np.eye(n)))):
        if idx < len(starts) and np.linalg.norm(structured) > 1e-8:
            starts[idx] = structured

    def residual_of(mat: np.ndarray) -> float:
        return float(np.linalg.norm(mat @ mat.conj().T - np.eye(n)))

    for start in starts:
        norm = np.linalg.norm(start)
        if norm == 0.0:
            continue
        a = start * (sqrt_n / norm)
        prev = np.inf
        stall = 0
        for _ in range(500):
            a = project(_polar_factor(a)[0])
            res = residual_of(a)
            if res <= 1e-10:
                # converged; keep iterating while it still helps to land well
                # below the acceptance threshold
                best, best_res = a, res
                for _ in range(30):
                    a = project(_polar_factor(a)[0])
                    res = residual_of(a)
                    if res < best_res:
                        best, best_res = a, res
                    if res >= best_res * 0.5:
                        break
                return best
            if res > prev * (1.0 - 1e-3):
                stall += 1
                if stall >= 25:
                    break
            else:
                stall = 0
            prev = res
    return None


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of :func:`decide_cs` with its certificate or obstruction.

    It holds no timing, so that :meth:`to_doc` is reproducible byte for
    byte; the report's ``seed`` is that of ``options``.
    """

    kind: str
    certificate: Optional[Conjugation]
    obstruction: Optional[dict]
    residuals: dict
    diagnostics: dict
    options: DeciderOptions

    def to_doc(self) -> dict:
        return {
            "verdict": self.kind,
            "certificate": self.certificate.to_doc() if self.certificate else None,
            "obstruction": self.obstruction,
            "residuals": dict(self.residuals),
            "diagnostics": dict(self.diagnostics),
            "seed": self.options.seed,
            "options": self.options.to_doc(),
        }


# Every stage checks its values for overflow itself: a certificate or witness
# that is not finite is refused, so numpy's warnings would only be noise
@np.errstate(over="ignore", invalid="ignore")
def decide_cs(t, options: Optional[DeciderOptions] = None) -> Verdict:
    """Decide whether ``T`` is complex symmetric.

    Parameters
    ----------
    t:
        A tree shift's matrix or :class:`~treeshift.shift.ShiftMatrix`; any
        other matrix raises :class:`ValueError`.  A certificate is labelled
        by the basis of a shift matrix, and by ``"0".."n-1"`` for a bare
        matrix.  A ``chain_reversal`` verdict reads no ``n x n`` array;
        any other step needs one and first refuses a tree above the vertex
        bound (:class:`ValueError`).
    options:
        The tolerance and the seed of the certificate's random element.

    Returns
    -------
    Verdict
        ``cs`` with a verified :class:`Conjugation`, the one verdict that
        reads a tree shift's gauge, ``not_cs`` with a recomputable
        obstruction, or ``undetermined`` with diagnostics.
    """
    opts = options or DeciderOptions()
    is_shift = isinstance(t, ShiftMatrix)
    m = None if is_shift else _as_matrix(t)
    basis = t.basis if is_shift else None

    def finish(kind, certificate=None, obstruction=None, residuals=None, diag=None):
        return Verdict(
            kind=kind,
            certificate=certificate,
            obstruction=obstruction,
            residuals=residuals or {},
            diagnostics=diag or {},
            options=opts,
        )

    def refuted(kind, witness, margin, diag=None):
        """The ``not_cs`` verdict of a witness of ``kind``."""
        obstruction = {"kind": kind, "witness": witness}
        return finish("not_cs", obstruction=obstruction,
                      residuals={"witness_margin": margin}, diag=diag)

    def certified(candidate, diag):
        """The ``cs`` verdict of a candidate for ``|m|`` that, gauged back,
        verifies against ``m``."""
        try:
            cert, report = gauged_conjugation(candidate, tree_gauge(forest), m, basis, opts.tol)
        except ConjugationError:
            return None
        residuals = {
            "unitary": cert.residual_unitary,
            "symmetric": cert.residual_symmetric,
            "intertwining": report.residual,
        }
        return finish("cs", certificate=cert, residuals=residuals, diag=diag)

    forest = t.forest if is_shift else _forest(m)
    work, red = _prepared(forest, reduce=True)
    chain = _chain_decision(red, _chain_tol(opts)) if red is not None else None
    if chain is not None and chain[0] == "not_cs":
        return refuted("chain_reversal", chain[1], chain[1]["gap"])
    # every step from here on needs an n x n array
    _check_size(forest.parent.size)
    if m is None:
        m = t.matrix
    if chain is not None:
        flip, dim = chain[1]
        verdict = certified(red.q[:, flip] @ red.q.T, {"sylvester_dim": dim, "spread": 1.0})
        if verdict is not None:
            return verdict  # else the words, then W

    word = word_trace_obstruction(np.abs(m), tol=_word_tol(opts, m.shape[0]))
    if word is not None:
        return refuted("word_trace", word, word["margin"])

    joint = _joint_space(work if red is None else red, _RANK_RTOL, opts.seed)
    if joint is None:
        return finish("undetermined")
    polar, structure, excluded = joint
    diag = {"sylvester_dim": structure["dim"]}
    if excluded:
        return refuted("structure", structure, 1.0 - structure["spread"], diag)
    diag["spread"] = structure["spread"]
    if polar is None:
        return finish("undetermined", diag=diag)
    if red is not None and red.split:
        polar = red.q @ polar @ red.q.T
    return certified(polar, diag) or finish("undetermined", diag=diag)


# The witness field each kind's replay reads
_WITNESS_FIELDS = {"word_trace": "word", "chain_reversal": "weights", "structure": "dim"}


@np.errstate(over="ignore", invalid="ignore")
def reevaluate_obstruction(t, obstruction: dict, options: Optional[DeciderOptions] = None) -> tuple[bool, float]:
    """Recompute a ``not_cs`` witness from the matrix alone.

    The witness is recomputed on the matrices :func:`decide_cs` ran its
    stages on, by :func:`_prepared`, with no gauge: words on ``|T|``, and
    the chains and ``W`` on the twin reduction ``R`` of ``|T|``, which a
    word replay skips.  Returns ``(still_violated, margin)``.  For ``word_trace`` the margin is
    the trace gap, computed exactly as the detection computed it.  For
    ``chain_reversal`` the reduction is recomputed without ``Q``; the
    witness holds when ``R`` is all chains, one of them has the recorded
    weights, and its reversal lies over the threshold from every chain of
    its length, and the margin is that relative gap.  For ``structure``
    the joint space ``W`` is solved again; the witness holds
    when ``W`` has the recorded dimension and still excludes a certificate,
    and the margin is ``1 - spread``.  Before any stage runs, an unknown
    ``kind`` and a ``witness`` without the well-formed field its kind reads
    raise :class:`ValueError`: ``word``, a list or tuple of at most 8 of the
    letters ``"T"`` and ``"T*"``, the longest the search emits;
    ``weights``, a list of at most ``n - 1`` finite numbers, the most links
    a chain of ``R`` has; ``dim``, an integer ``>= 0``.  A list over its
    bound is refused by its length before any item is read.  So does a
    matrix that is no tree shift.
    """
    opts = options or DeciderOptions()
    obstruction = obstruction if isinstance(obstruction, dict) else {}
    kind, witness = obstruction.get("kind"), obstruction.get("witness")
    field = _WITNESS_FIELDS.get(kind) if isinstance(kind, str) else None
    if field is None:
        raise ValueError(f"unknown obstruction kind {kind!r}")
    if not isinstance(witness, dict) or field not in witness:
        raise ValueError(f"a {kind} witness needs the field {field!r}")
    value = witness[field]
    is_shift = isinstance(t, ShiftMatrix)
    m = None if is_shift else _as_matrix(t)
    # read before the witness: its size bounds a chain
    forest = t.forest if is_shift else _forest(m)
    n = forest.parent.size
    # the search emits no longer word, and a chain of R has at most n - 1
    # links; a longer list is refused before any item is read
    bound = {"word": len(_WORDS[-1]), "weights": n - 1}.get(field)
    if isinstance(value, (list, tuple)) and bound is not None and len(value) > bound:
        unit = "letters" if field == "word" else "weights"
        raise ValueError(f"a {kind} witness's {field!r} has {len(value)} {unit}, over {bound}")
    if field == "word":
        letters = _checked_word(value)
    elif not (
        isinstance(value, list) and all(_is_real(x) and math.isfinite(x) for x in value)
        if field == "weights"
        else _is_count(value)
    ):
        raise ValueError(f"a {kind} witness's {field!r} is malformed: {value!r}")
    work, red = _prepared(forest, reduce=kind != "word_trace")
    if kind == "chain_reversal":
        chains = None if red is None else _chains(red.parent)
        if chains is None:
            return False, 0.0
        a = tuple(map(float, value))
        w = red.weights.tolist()
        links = [tuple(map(w.__getitem__, chain[1:])) for chain in chains]
        if not (a and a in links):
            return False, 0.0
        gap = _reversal_gap(a, links, max(w))
        return gap > _CHAIN_GAP * _chain_tol(opts), gap
    # the solve and the words need n x n arrays
    _check_size(n)
    if kind == "structure":
        joint = _joint_space(work if red is None else red, _RANK_RTOL, opts.seed)
        if joint is None:
            return False, 0.0
        _polar, again, excluded = joint
        return excluded and again["dim"] == value, 1.0 - again["spread"]
    mats = _letters(np.abs(t.matrix if m is None else m))
    margin = _trace_gap(_word_trace(mats, letters), _word_trace(mats, letters[::-1]))
    threshold = _word_threshold(
        _word_tol(opts, n), float(np.linalg.norm(mats["T"])), len(letters)
    )
    return margin > threshold, float(margin)
