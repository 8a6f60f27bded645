"""Decision pipeline for complex symmetry of a finite matrix.

The pipeline has two stages, each able to decide:

1. traces of words in ``T`` and ``T*`` compared against their reversals
   (equal for any operator unitarily equivalent to its transpose, hence for
   every complex symmetric one); a gap is a ``not_cs`` witness,
2. the joint space ``W = {A = A^T : T A = A T^T, T* A = A conj(T)}``.

``T`` is complex symmetric exactly when some symmetric unitary ``U``
satisfies ``T U = U T^T``.  Taking the adjoint of ``U* T U = T^T`` gives
``T* U = U conj(T)``, so every certificate lies in ``W``, the symmetric
part of the space of unitary equivalences of ``T`` to its transpose
(Garcia-Tener 2012).  ``W = {0}`` holds no certificate, nor does a line
spanned by ``A`` when the spread ``sigma_min(A) / sigma_max(A)`` is below
1/2, since every element of the line has that spread.  Either is a
``not_cs`` when the rank cut sits in a wide singular value gap, so that no
element of ``W`` hides below it; the witness (kind ``structure``) records
``dim W``, the spread and the singular values either side of the cut, and
the replay solves ``W`` again.  Otherwise a seeded multi-start projected
polar iteration looks for a unitary element of ``W``; on a line spanned by
a multiple of a unitary its first start is already a fixed point.

The kernel dimensions of ``T^m`` and ``T*^m`` are not compared: they
always agree (``rank M = rank M*``), and with a tight rank cut the test
would fire on rounding noise alone.  Nor is the space
``{A = A^T : T A = A T^T}`` of ``T`` alone ever ``{0}`` (every square
matrix is similar to its transpose through a nonsingular symmetric matrix,
Taussky-Zassenhaus 1959); ``W`` can be.

The word search screens all words of a length at once: the products of
the words up to half the length bound are built by stacked matmuls, and the
traces of all ``2^L`` words of length ``L`` come from one product of
flattened head and tail products.  Pairs whose screened gap lies within a
rounding bound of the threshold are confirmed in search order by the one
sequential evaluator that the replay also uses, so the witness is exactly
the one a sequential scan returns.

The Sylvester system is never formed densely.  The equation of ``T*`` is
that of ``T`` for ``M = T*``, since ``M^T = conj(T)``, so ``W`` stacks the
two systems.  They are assembled from the nonzeros of ``T`` and split into
the blocks of unknowns that share an equation; for a tree shift, which
raises depth by one, these refine the classes of vertex pairs with equal
depth sum.  Each block is solved by its own SVD, all cut by the rank rule
of :func:`~treeshift.shift.numerical_rank`, and the space's basis comes out
in block order.

A verdict is ``cs`` only with a verified certificate, ``not_cs`` only with a
witness that re-evaluates from the matrix alone with a wide margin, and
``undetermined`` otherwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .conjugation import (
    Conjugation,
    ConjugationError,
    conjugation_from_matrix,
    verify_c_symmetry,
)
from .serialize import complex_to_pair
from .shift import ShiftMatrix, _rank_above_cut, kernel_table

__all__ = [
    "DeciderOptions",
    "Verdict",
    "decide_cs",
    "kernel_obstruction",
    "word_trace_obstruction",
    "word_value",
    "sylvester_space",
    "unitary_search",
    "reevaluate_obstruction",
]


@dataclass(frozen=True)
class DeciderOptions:
    tol: float = 1e-10
    rank_rtol: float = 1e-10
    max_word_len: int = 8
    restarts: int = 64
    seed: int = 0
    max_iter: int = 500

    def to_doc(self) -> dict:
        return asdict(self)


def _as_matrix(t) -> np.ndarray:
    m = t.matrix if isinstance(t, ShiftMatrix) else np.asarray(t, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    return m


def kernel_obstruction(t, rtol: float = 1e-10) -> Optional[dict]:
    """First power where the numerical kernels of ``T^m`` and ``T*^m`` differ.

    No such power exists for a finite square matrix (``rank M = rank M*``),
    so :func:`decide_cs` does not run this check, and since
    :func:`~treeshift.shift.kernel_table` takes both columns from one SVD it
    always returns ``None``.
    """
    m = _as_matrix(t)
    for power, dk, dka in kernel_table(m, m.shape[0], rtol).rows:
        if dk != dka:
            return {"power": power, "dim_ker": dk, "dim_ker_adjoint": dka}
    return None


def _letters(m: np.ndarray) -> dict:
    return {"T": m, "T*": m.conj().T}


def _word_trace(mats: dict, letters: Sequence[str]) -> complex:
    acc = np.eye(mats["T"].shape[0], dtype=complex)
    for letter in letters:
        acc = mats[letter] @ acc
    return complex(np.trace(acc))


def word_value(t, letters: Sequence[str]) -> complex:
    """Trace of a word in ``T`` and ``T*``; the first letter acts first."""
    return _word_trace(_letters(_as_matrix(t)), letters)


def _word_scale(norm: float, length: int) -> float:
    """``max(1, norm ** length)``, with overflow read as ``inf``."""
    try:
        return max(1.0, norm**length)
    except OverflowError:
        return math.inf


def _word_threshold(tol: float, norm: float, length: int) -> float:
    """Trace gap a word of ``length`` letters must exceed to be a witness."""
    return 10.0 * tol * _word_scale(norm, length)


def _word_products(m: np.ndarray, length: int) -> list[np.ndarray]:
    """Products of all words of up to ``length`` letters, by length.

    Entry ``k`` is a ``(2^k, n, n)`` stack indexed by word code: letters are
    bits (``T`` = 0, ``T*`` = 1) read most significant first, so code
    ``2c + b`` is word ``c`` followed by letter ``b``, whose product is
    ``M_b @ P(c)``.
    """
    n = m.shape[0]
    prods = [np.eye(n, dtype=complex)[None]]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(length):
            prev = prods[-1]
            step = np.stack([m @ prev, m.conj().T @ prev], axis=1)
            prods.append(step.reshape(-1, n, n))
    return prods


def word_trace_obstruction(
    t, max_len: int = 8, tol: float = 1e-10
) -> Optional[dict]:
    """First word (by length, then lexicographically with ``T < T*``) whose
    trace differs from the trace of the reversed word beyond
    ``10 * tol * max(1, ||T||_F ** len)``.

    The search is a batched screen followed by an exact confirmation.  The
    products of all words up to ``ceil(max_len / 2)`` letters are built once;
    the traces of all ``2^L`` words of length ``L`` then come from one matrix
    product of flattened head and tail products, ``tr(P(tail) P(head)) =
    sum_ij P(tail)_ij P(head)_ji``.  Every word paired with a lexicographically
    larger reversal whose screened gap is within rounding of the threshold,
    or not finite, is re-evaluated in order by the sequential evaluator that
    :func:`word_value` and :func:`reevaluate_obstruction` share, and the
    first confirmed gap is the witness.  The result is the word a sequential
    scan of every pair would return, bit for bit.
    """
    m = _as_matrix(t)
    n = m.shape[0]
    mats = _letters(m)
    norm = float(np.linalg.norm(m))
    prods = _word_products(m, (max_len + 1) // 2)
    flat = [p.reshape(p.shape[0], n * n) for p in prods]
    flat_t = [p.transpose(0, 2, 1).reshape(p.shape[0], n * n) for p in prods]
    for length in range(2, max_len + 1):
        threshold = _word_threshold(tol, norm, length)
        if not threshold < math.inf:
            continue  # no gap exceeds an infinite or NaN threshold
        # The slack bounds how far a screened gap can sit from the exact
        # one.  With unit roundoff u = eps / 2, a complex matmul errs by at
        # most sqrt(2) (n + 2) u ||A||_F ||B||_F, and an error made anywhere
        # in a word's product grows to at most that times ||T||_F^L by the
        # end.  So the L - 1 matmuls behind either evaluator's product, plus
        # its closing trace (n terms) or head-tail dot product (n^2 terms),
        # leave each trace within 3 sqrt(2) (L n + n^2) u ||T||_F^L.  Two
        # traces per gap and two evaluators give four such errors, plus the
        # rounding of the subtraction and the modulus: under
        # 25 (L n + n^2) u ||T||_F^L, and the slack is five times that.  The
        # max(1, .) in the scale is an absolute floor for underflowed
        # products.  Where the scale nears the float range a product could
        # overflow in one evaluator only, so there every pair is confirmed.
        scale = _word_scale(norm, length)
        slack = 64.0 * (length * n + n * n) * np.finfo(float).eps * scale
        cut = threshold - slack if 16.0 * scale < math.inf else -math.inf
        codes = np.arange(2**length)
        reverse = np.zeros_like(codes)
        for k in range(length):
            reverse |= ((codes >> k) & 1) << (length - 1 - k)
        pairs = reverse > codes
        head = (length + 1) // 2
        with np.errstate(over="ignore", invalid="ignore"):
            traces = (flat_t[head] @ flat[length - head].T).ravel()
            gaps = np.abs(traces[pairs] - traces[reverse[pairs]])
        for code in codes[pairs][~(gaps <= cut)]:
            letters = tuple(
                "T*" if (code >> (length - 1 - k)) & 1 else "T"
                for k in range(length)
            )
            tr = _word_trace(mats, letters)
            tr_rev = _word_trace(mats, letters[::-1])
            margin = abs(tr - tr_rev)
            if margin > threshold:
                return {
                    "word": list(letters),
                    "trace": complex_to_pair(tr),
                    "trace_reversed": complex_to_pair(tr_rev),
                    "margin": float(margin),
                    "threshold": float(threshold),
                }
    return None


def _sylvester_nullspace(mats: Sequence[np.ndarray], rtol: float):
    """Common null space of ``A -> M A - A M^T`` on symmetric ``A`` over
    ``M`` in ``mats``, block by block.

    The equations of each ``M`` are stacked below those of the one before,
    rows offset by ``n^2``.  ``(T,)`` gives the Sylvester space of ``T``;
    ``(T, T*)`` gives the joint space ``W`` of the module docstring, since
    ``T* A = A conj(T)`` is the equation for ``M = T*`` (``M^T = conj(T)``).

    The unknowns are the coefficients of the orthonormal symmetric basis
    ``E_pp`` and ``(E_pq + E_qp) / sqrt 2`` (``p < q``).  Through the end
    ``(x, y)`` of its pair, unknown ``(p, q)`` enters only the equations
    ``(r, y)`` and ``(y, r)`` with ``M[r, x] != 0``, so the system splits
    into blocks of unknowns joined by shared equations.  For a tree shift,
    which raises depth by one, the blocks refine the classes of pairs with a
    fixed depth sum.  Each block gets its own small SVD; all blocks are cut
    by the rank rule of :func:`~treeshift.shift.numerical_rank` for the
    whole system of ``size = len(mats) n^2`` rows, ``max(rtol, size eps)``
    times the largest singular value of any block, which is the cut a dense
    SVD applies.

    Returns ``(basis, sigma)``: a ``(d, n, n)`` array whose slices are a
    Frobenius-orthonormal basis of the null space in block order, and the
    singular values of the whole system, descending and zero-padded to
    ``n (n + 1) / 2``.
    """
    n = mats[0].shape[0]
    size = len(mats) * n * n
    p_of, q_of = np.triu_indices(n)
    npairs = p_of.size
    unknown = np.empty((n, n), dtype=np.intp)
    unknown[p_of, q_of] = unknown[q_of, p_of] = np.arange(npairs)
    weight = np.full((n, n), 1.0 / np.sqrt(2.0))
    np.fill_diagonal(weight, 1.0)

    # one entry per (nonzero M[r, x], y): +t w in equation (r, y), -t w in (y, r)
    y = np.arange(n)
    cols, eqs, vals = [], [], []
    for k, mat in enumerate(mats):
        r, x = np.nonzero(mat)
        col = unknown[x[:, None], y].ravel()
        val = (mat[r, x][:, None] * weight[x[:, None], y]).ravel()
        cols += [col, col]
        eqs += [(k * n * n + r[:, None] * n + y).ravel(),
                (k * n * n + y * n + r[:, None]).ravel()]
        vals += [val, -val]
    cols, eqs, vals = (np.concatenate(a) for a in (cols, eqs, vals))

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
    block_of = label[cols]

    order = np.argsort(block_of, kind="stable")
    cols, eqs, vals, block_of = cols[order], eqs[order], vals[order], block_of[order]
    starts = np.flatnonzero(np.r_[True, block_of[1:] != block_of[:-1]])
    blocks = []
    for lo, hi in zip(starts, np.r_[starts[1:], cols.size]):
        unk, ci = np.unique(cols[lo:hi], return_inverse=True)
        eq, ri = np.unique(eqs[lo:hi], return_inverse=True)
        mat = np.zeros((eq.size, unk.size), dtype=complex)
        np.add.at(mat, (ri, ci), vals[lo:hi])
        # with at least as many rows as unknowns the economy vh is complete
        _u, s, vh = np.linalg.svd(mat, full_matrices=eq.size < unk.size)
        blocks.append((unk, s, vh))

    sigma = np.zeros(npairs)
    found = np.concatenate([s for _unk, s, _vh in blocks] or [np.zeros(0)])
    sigma[: found.size] = np.sort(found)[::-1]

    # unknowns in no equation are null directions of their own
    touched = np.zeros(npairs, dtype=bool)
    touched[cols] = True
    free = np.flatnonzero(~touched)
    vec_ids = [np.arange(free.size)]
    unk_ids = [free]
    coeffs = [np.ones(free.size, dtype=complex)]
    dim = free.size
    for unk, s, vh in blocks:
        null = vh[_rank_above_cut(s, size, rtol, sigma[0]):].conj()
        k = null.shape[0]
        vec_ids.append(np.repeat(np.arange(dim, dim + k), unk.size))
        unk_ids.append(np.tile(unk, k))
        coeffs.append(null.ravel())
        dim += k
    vec_ids, unk_ids, coeffs = (np.concatenate(a) for a in (vec_ids, unk_ids, coeffs))
    p, q = p_of[unk_ids], q_of[unk_ids]
    basis = np.zeros((dim, n, n), dtype=complex)
    basis[vec_ids, p, q] = basis[vec_ids, q, p] = coeffs * weight[p, q]
    return basis, sigma


def sylvester_space(t, rtol: float = 1e-10) -> list[np.ndarray]:
    """Orthonormal basis (Frobenius) of ``{A symmetric : T A = A T^T}``.

    Parameterizing by symmetric coefficient matrices keeps every element
    exactly symmetric; the nullspace cut uses a relative singular value
    threshold.  The basis comes in block order (see the module docstring):
    first the pairs that enter no equation, then each coupled block of the
    system in turn, so it is deterministic for a fixed input.
    """
    basis, _sigma = _sylvester_nullspace((_as_matrix(t),), rtol)
    return list(basis)


def _joint_structure(m: np.ndarray, rtol: float) -> tuple[np.ndarray, dict, bool]:
    """The joint space ``W`` of ``m``, and whether it excludes a certificate.

    Returns ``(basis, witness, excluded)``.  The witness records ``dim W``;
    the ``spread`` ``sigma_min / sigma_max`` of its element when
    ``dim W = 1`` (else 0); and, relative to the largest singular value of
    the system, ``sigma_kept`` and ``sigma_cut``, the singular values just
    above and just below the rank cut.  ``W`` excludes a certificate when
    it is ``{0}``, or a line whose element is far from any unitary
    (``spread < 1/2``), and the cut sits in a wide gap: ``sigma_kept`` at
    least ``1e3`` times the cut and ``1e6`` times ``sigma_cut``, so that no
    element of ``W`` can hide below it.
    """
    mats = (m, m.conj().T)
    basis, sigma = _sylvester_nullspace(mats, rtol)
    dim = basis.shape[0]
    rank = sigma.size - dim
    kept = sigma[rank - 1] if rank else 0.0
    below = sigma[rank] if dim else 0.0
    spread = 0.0
    if dim == 1:
        s = np.linalg.svd(basis[0], compute_uv=False)
        spread = s[-1] / s[0]
    wide = (
        rank > 0
        and _rank_above_cut(sigma, len(mats) * m.size, rtol, 1e3 * sigma[0]) == rank
        and kept >= 1e6 * below
    )
    ref = sigma[0] if sigma[0] > 0 else 1.0
    witness = {
        "dim": int(dim),
        "spread": float(spread),
        "sigma_kept": float(kept / ref),
        "sigma_cut": float(below / ref),
    }
    return basis, witness, bool(wide and dim <= 1 and spread < 0.5)


def _polar_factor(a: np.ndarray) -> np.ndarray:
    try:
        u, _s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on tightly clustered singular values;
        # with a = q r, the polar factor of a is q times that of r
        q, r = np.linalg.qr(a)
        u, _s, vh = np.linalg.svd(r)
        return q @ (u @ vh)
    return u @ vh


def unitary_search(
    space: Sequence[np.ndarray],
    seed: int = 0,
    restarts: int = 64,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> Optional[np.ndarray]:
    """Search the given subspace for a unitary element.

    Runs projected gradient descent with unit step on the squared distance to
    the unitary group, which reduces to alternating a polar projection with
    the orthogonal projection onto the subspace.  Restarts are seeded and
    scanned in order, so the result is deterministic for fixed
    ``(seed, restarts)``; the first two starts are structured (projections of
    the antidiagonal flip and of the identity), the rest random.
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
    coeffs = rng.standard_normal((restarts, d)) + 1j * rng.standard_normal(
        (restarts, d)
    )
    starts = list((coeffs @ flat).reshape(restarts, n, n))
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
        for _ in range(max_iter):
            a = project(_polar_factor(a))
            res = residual_of(a)
            if res <= tol:
                # converged; keep iterating while it still helps to land well
                # below the acceptance threshold
                best, best_res = a, res
                for _ in range(30):
                    a = project(_polar_factor(a))
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

    ``elapsed`` is wall-clock seconds and is deliberately left out of
    :meth:`to_doc` so that serialized verdicts are reproducible byte for
    byte.
    """

    kind: str
    certificate: Optional[Conjugation]
    obstruction: Optional[dict]
    residuals: dict
    diagnostics: dict
    seed: int
    options: DeciderOptions
    elapsed: float

    def to_doc(self) -> dict:
        return {
            "verdict": self.kind,
            "certificate": self.certificate.to_doc() if self.certificate else None,
            "obstruction": self.obstruction,
            "residuals": dict(self.residuals),
            "diagnostics": dict(self.diagnostics),
            "seed": self.seed,
            "options": self.options.to_doc(),
        }


def decide_cs(
    t,
    options: Optional[DeciderOptions] = None,
    basis: Optional[Sequence[str]] = None,
) -> Verdict:
    """Decide whether ``T`` is complex symmetric.

    Parameters
    ----------
    t:
        Square complex matrix or :class:`~treeshift.shift.ShiftMatrix`.
    options:
        Tolerances, word length bound, restart budget, and seed.
    basis:
        Labels for certificate serialization; inferred from a shift matrix.

    Returns
    -------
    Verdict
        ``cs`` with a verified :class:`Conjugation`, ``not_cs`` with a
        recomputable obstruction, or ``undetermined`` with diagnostics.
    """
    opts = options or DeciderOptions()
    started = time.perf_counter()
    m = _as_matrix(t)
    if basis is None:
        basis = t.basis if isinstance(t, ShiftMatrix) else tuple(
            str(i) for i in range(m.shape[0])
        )
    basis = tuple(basis)

    def finish(kind, certificate=None, obstruction=None, residuals=None, diag=None):
        return Verdict(
            kind=kind,
            certificate=certificate,
            obstruction=obstruction,
            residuals=residuals or {},
            diagnostics=diag or {},
            seed=opts.seed,
            options=opts,
            elapsed=time.perf_counter() - started,
        )

    word = word_trace_obstruction(m, max_len=opts.max_word_len, tol=opts.tol)
    if word is not None:
        return finish(
            "not_cs",
            obstruction={"kind": "word_trace", "witness": word},
            residuals={"witness_margin": word["margin"]},
        )

    space, structure, excluded = _joint_structure(m, opts.rank_rtol)
    dim = space.shape[0]
    if excluded:
        return finish(
            "not_cs",
            obstruction={"kind": "structure", "witness": structure},
            residuals={"witness_margin": 1.0 - structure["spread"]},
            diag={"sylvester_dim": dim},
        )
    found = unitary_search(
        space,
        seed=opts.seed,
        restarts=opts.restarts,
        tol=opts.tol,
        max_iter=opts.max_iter,
    )
    if found is not None:
        try:
            cert = conjugation_from_matrix(found, basis=basis, tol=opts.tol)
        except ConjugationError:
            cert = None
        if cert is not None:
            report = verify_c_symmetry(m, cert, tol=opts.tol)
            if report.passed:
                return finish(
                    "cs",
                    certificate=cert,
                    residuals={
                        "unitary": cert.residual_unitary,
                        "symmetric": cert.residual_symmetric,
                        "intertwining": report.residual,
                    },
                    diag={"sylvester_dim": dim},
                )
    return finish(
        "undetermined",
        diag={"sylvester_dim": dim, "restarts": opts.restarts},
    )


def reevaluate_obstruction(t, obstruction: dict, options: Optional[DeciderOptions] = None) -> tuple[bool, float]:
    """Recompute a ``not_cs`` witness from the matrix alone.

    Returns ``(still_violated, margin)``.  For ``word_trace`` the margin is
    the trace gap, computed exactly as the detection computed it.  For
    ``structure`` the joint space ``W`` is solved again; the witness holds
    when ``W`` has the recorded dimension and still excludes a certificate,
    and the margin is ``1 - spread``.  Any other kind raises
    :class:`ValueError`.
    """
    opts = options or DeciderOptions()
    m = _as_matrix(t)
    kind = obstruction["kind"]
    if kind == "structure":
        _space, again, excluded = _joint_structure(m, opts.rank_rtol)
        held = excluded and again["dim"] == obstruction["witness"]["dim"]
        return held, 1.0 - again["spread"]
    if kind != "word_trace":
        raise ValueError(f"unknown obstruction kind {kind!r}")
    letters = list(obstruction["witness"]["word"])
    mats = _letters(m)
    margin = abs(_word_trace(mats, letters) - _word_trace(mats, letters[::-1]))
    threshold = _word_threshold(opts.tol, float(np.linalg.norm(m)), len(letters))
    return margin > threshold, float(margin)
