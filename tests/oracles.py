"""Slow, independent re-implementations used to check the fast numpy paths.

Everything here works over exact rationals, plain Python complex numbers or
one dense numpy SVD, and never imports the code under test, so agreement
between the two sides is meaningful.
"""

import math
from fractions import Fraction

import numpy as np


def _row_echelon(rows, n_cols):
    """Reduced row echelon form of a Fraction matrix: ``(rows, pivot columns)``."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(n_cols):
        row = len(pivots)
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1, 1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
    return m, pivots


def exact_rank(rows):
    """Rank of a matrix with Fraction entries, by Gaussian elimination."""
    if not rows:
        return 0
    return len(_row_echelon(rows, len(rows[0]))[1])


def exact_nullspace(rows, n_cols):
    """Basis of the null space of a Fraction matrix, one vector per free
    column of its reduced row echelon form."""
    m, pivots = _row_echelon(rows, n_cols)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
        basis.append(vec)
    return basis


def exact_matmul(a, b):
    n, k, p = len(a), len(b), len(b[0]) if b else 0
    assert all(len(r) == k for r in a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p)]
        for i in range(n)
    ]


def exact_power(a, m):
    n = len(a)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(m):
        out = exact_matmul(out, a)
    return out


def exact_kernel_dim(a, m):
    """dim ker A^m for a square matrix with Fraction entries."""
    n = len(a)
    return n - exact_rank(exact_power(a, m))


def complex_matmul(a, b):
    n, k, p = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p)]
        for i in range(n)
    ]


def complex_word_trace(matrix, letters):
    """Trace of the product for a word in T and T*, first letter acting first.

    ``matrix`` is a list-of-lists of Python complex numbers; ``letters`` is a
    sequence of "T" and "T*" tokens.  The product is taken right to left so
    that the first letter is applied to a vector first.
    """
    n = len(matrix)
    t = [[complex(matrix[i][j]) for j in range(n)] for i in range(n)]
    t_star = [[t[j][i].conjugate() for j in range(n)] for i in range(n)]
    prod = [[complex(i == j) for j in range(n)] for i in range(n)]
    for letter in letters:
        factor = t if letter == "T" else t_star
        prod = complex_matmul(factor, prod)
    return sum(prod[i][i] for i in range(n))


def shift_matrix_fraction(tree, weights):
    """Shift matrix over Fractions; ``weights`` values must be rational."""
    n = len(tree.vertices)
    rows = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for v in tree.vertices:
        if v == tree.root:
            continue
        p = tree.parent_of(v)
        rows[tree.index_of(v)][tree.index_of(p)] = Fraction(weights[v])
    return rows


def fraction_transpose(a):
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


def exact_joint_sylvester_space(tree, weights):
    """The joint space ``{A = A^T : T A = A T^T, T* A = A conj(T)}`` of a
    tree shift with rational real weights, by exact elimination.

    The unknowns are the coefficients of the integer basis ``E_pp``,
    ``E_pq + E_qp``.  ``T`` raises depth by one and ``T* = T^T`` lowers it,
    so an equation only joins unknowns ``(p, q)`` of one depth sum
    ``depth(p) + depth(q)``; each depth sum is eliminated on its own.
    Returns a list of Fraction matrices spanning the space.
    """
    t = shift_matrix_fraction(tree, weights)
    n = len(t)
    mats = (t, fraction_transpose(t))
    depth = {}

    def depth_of(v):
        if v not in depth:
            depth[v] = 0 if v == tree.root else depth_of(tree.parent_of(v)) + 1
        return depth[v]

    level = [depth_of(v) for v in tree.vertices]
    classes = {}
    for p in range(n):
        for q in range(p, n):
            classes.setdefault(level[p] + level[q], []).append((p, q))
    space = []
    for pairs in classes.values():
        cols = []
        for p, q in pairs:
            entries = {(p, q), (q, p)}
            col = {}
            for k, mat in enumerate(mats):
                for s, c in entries:  # M E_sc = sum_r M[r][s] E_rc
                    for r in range(n):
                        if mat[r][s]:
                            col[k, r, c] = col.get((k, r, c), 0) + mat[r][s]
                for r, s in entries:  # E_rs M^T = sum_c M[c][s] E_rc
                    for c in range(n):
                        if mat[c][s]:
                            col[k, r, c] = col.get((k, r, c), 0) - mat[c][s]
            cols.append(col)
        keys = sorted(set().union(*cols))
        rows = [[col.get(key, Fraction(0)) for col in cols] for key in keys]
        for vec in exact_nullspace(rows, len(pairs)):
            a = [[Fraction(0)] * n for _ in range(n)]
            for (p, q), x in zip(pairs, vec):
                a[p][q] = a[q][p] = x
            space.append(a)
    return space


def _dense_symmetric_nullspace(mats, rtol):
    """Common null space of ``A -> M A - A M^T`` over ``M`` in ``mats``, on
    symmetric ``A``, by one dense SVD of the stacked ``k n^2``-row system."""
    n = mats[0].shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = np.zeros((len(mats) * n * n, len(pairs)), dtype=complex)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k, (i, j) in enumerate(pairs):
        blocks = []
        for m in mats:
            block = np.zeros((n, n), dtype=complex)
            if i == j:
                block[:, i] += m[:, i]
                block[i, :] -= m[:, i]
            else:
                block[:, j] += m[:, i] * inv_sqrt2
                block[:, i] += m[:, j] * inv_sqrt2
                block[i, :] -= m[:, j] * inv_sqrt2
                block[j, :] -= m[:, i] * inv_sqrt2
            blocks.append(block.reshape(-1))
        cols[:, k] = np.concatenate(blocks)
    _u, sigma, vh = np.linalg.svd(cols, full_matrices=True)
    if sigma[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(sigma > rtol * sigma[0]))
    basis = np.zeros((len(pairs) - rank, n, n), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        c = vh[rank:, k].conj()
        if i == j:
            basis[:, i, i] = c
        else:
            basis[:, i, j] = basis[:, j, i] = c * inv_sqrt2
    return basis, sigma


def dense_sylvester_nullspace(m, rtol):
    """Null space of ``A -> T A - A T^T`` on symmetric ``A`` by one dense SVD.

    Builds the full ``n^2 x n(n+1)/2`` system over the orthonormal symmetric
    basis ``E_ii``, ``(E_ij + E_ji) / sqrt 2`` and cuts at
    ``rtol * sigma_max``.  Returns ``(basis, sigma)``: a ``(d, n, n)`` array
    of Frobenius-orthonormal symmetric matrices and the singular values in
    descending order.
    """
    return _dense_symmetric_nullspace([np.asarray(m, dtype=complex)], rtol)


def dense_joint_sylvester_nullspace(m, rtol):
    """The joint space ``{A = A^T : T A = A T^T, T* A = A conj(T)}`` by one
    dense SVD of the ``2 n^2 x n(n+1)/2`` system: the rows of ``T`` above
    those of ``T*``, cut at ``rtol * sigma_max``.  Returns ``(basis, sigma)``
    as :func:`dense_sylvester_nullspace` does.
    """
    m = np.asarray(m, dtype=complex)
    return _dense_symmetric_nullspace([m, m.conj().T], rtol)


def reference_sylvester_nullspace(mats, rtol):
    """``treeshift.decider._sylvester_nullspace`` as one SVD per block.

    The same system, split into the same blocks by the same min-label
    propagation, but each block assembled with ``np.unique`` and
    ``np.add.at`` and solved by its own SVD, in block order.  On complex
    matrices the stacked solver must return this basis and these singular
    values bit for bit.  The rank rule is written out:
    ``max(rtol, size eps) sigma_ref``, ``size = len(mats) n^2`` rows.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    n = mats[0].shape[0]
    size = len(mats) * n * n
    p_of, q_of = np.triu_indices(n)
    npairs = p_of.size
    unknown = np.empty((n, n), dtype=np.intp)
    unknown[p_of, q_of] = unknown[q_of, p_of] = np.arange(npairs)
    weight = np.full((n, n), 1.0 / np.sqrt(2.0))
    np.fill_diagonal(weight, 1.0)

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
        _u, s, vh = np.linalg.svd(mat, full_matrices=eq.size < unk.size)
        blocks.append((unk, s, vh))

    sigma = np.zeros(npairs)
    found = np.concatenate([s for _unk, s, _vh in blocks] or [np.zeros(0)])
    sigma[: found.size] = np.sort(found)[::-1]
    cut = max(rtol, size * np.finfo(float).eps) * sigma[0]

    touched = np.zeros(npairs, dtype=bool)
    touched[cols] = True
    free = np.flatnonzero(~touched)
    vec_ids = [np.arange(free.size)]
    unk_ids = [free]
    coeffs = [np.ones(free.size, dtype=complex)]
    dim = free.size
    for unk, s, vh in blocks:
        null = vh[int(np.count_nonzero(s > cut)):].conj()
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


def sequential_word_trace_obstruction(m, max_len=8, tol=1e-10):
    """Word-trace witness by a plain scan of every word pair.

    Words run by length, then lexicographically with ``T < T*``; each word
    whose reversal is larger is evaluated by left-multiplying from the
    identity, first letter first, and the first gap beyond
    ``10 * tol * max(1, ||T||_F ** len)`` (``inf`` on overflow) is returned.
    """
    m = np.asarray(m, dtype=complex)
    mats = {"T": m, "T*": m.conj().T}

    def trace(letters):
        acc = np.eye(m.shape[0], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for letter in letters:
                acc = mats[letter] @ acc
        return complex(np.trace(acc))

    norm = float(np.linalg.norm(m))
    for length in range(2, max_len + 1):
        try:
            power = norm**length
        except OverflowError:
            power = math.inf
        threshold = 10.0 * tol * max(1.0, power)
        for code in range(2**length):
            letters = tuple(
                "T*" if (code >> (length - 1 - k)) & 1 else "T"
                for k in range(length)
            )
            reverse = letters[::-1]
            if reverse <= letters:
                continue
            tr, tr_rev = trace(letters), trace(reverse)
            margin = abs(tr - tr_rev)
            if margin > threshold:
                return {
                    "word": list(letters),
                    "trace": [tr.real, tr.imag],
                    "trace_reversed": [tr_rev.real, tr_rev.imag],
                    "margin": float(margin),
                    "threshold": float(threshold),
                }
    return None
