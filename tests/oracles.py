"""Slow, independent re-implementations used to check the fast numpy paths.

Everything here works over exact rationals, plain Python complex numbers or
one dense numpy SVD, and never imports the code under test, so agreement
between the two sides is meaningful.
"""

import cmath
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


def reference_sylvester_nullspace(m, rtol):
    """``treeshift.decider._sylvester_nullspace`` as one SVD per block.

    The same joint system of ``m`` and ``m*``, reduced to the equations
    ``(r, y)`` with ``r < y`` scaled by ``sqrt 2`` (the image of a symmetric
    ``A`` is skew), split into the same blocks by the same min-label
    propagation, but each block assembled with ``np.unique`` and
    ``np.add.at`` and solved by its own SVD, in block order, in the
    arithmetic of ``m``.  The stacked solver must return these singular
    values and null vectors bit for bit.  The rank rule is written out:
    ``max(rtol, size eps) sigma_ref``, ``size = 2 n^2`` rows.

    Returns ``(dim, sigma, free, blocks)``: the dimension of the space, the
    singular values descending and zero-padded to ``n (n + 1) / 2``, the
    unknowns in no equation, and the ``(unknowns, null vectors)`` of each
    block with a null vector.  Unknown ``k`` is the ``k``-th pair
    ``(p, q)``, ``p <= q``, in row-major order.
    """
    m = np.asarray(m)
    mats = [m, m.conj().T]
    n = m.shape[0]
    size = 2 * n * n
    p_of, q_of = np.triu_indices(n)
    npairs = p_of.size
    unknown = np.empty((n, n), dtype=np.intp)
    unknown[p_of, q_of] = unknown[q_of, p_of] = np.arange(npairs)
    # basis weight 1/sqrt 2 off the diagonal, times the row's sqrt 2
    scale = np.ones((n, n))
    np.fill_diagonal(scale, np.sqrt(2.0))

    cols, eqs, vals = [], [], []
    for k, mat in enumerate(mats):
        for r, x in zip(*np.nonzero(mat)):
            for y in range(n):
                if r == y:
                    continue
                cols.append(unknown[x, y])
                eqs.append(k * n * n + min(r, y) * n + max(r, y))
                val = mat[r, x] * scale[x, y]
                vals.append(val if r < y else -val)
    cols = np.array(cols, dtype=np.intp)
    eqs = np.array(eqs, dtype=np.intp)
    vals = np.array(vals, dtype=m.dtype)

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
    starts = np.flatnonzero(np.r_[cols.size > 0, block_of[1:] != block_of[:-1]])
    solved = []
    for lo, hi in zip(starts, np.r_[starts[1:], cols.size]):
        unk, ci = np.unique(cols[lo:hi], return_inverse=True)
        eq, ri = np.unique(eqs[lo:hi], return_inverse=True)
        mat = np.zeros((eq.size, unk.size), dtype=m.dtype)
        np.add.at(mat, (ri, ci), vals[lo:hi])
        _u, s, vh = np.linalg.svd(mat, full_matrices=eq.size < unk.size)
        solved.append((unk, s, vh))

    sigma = np.zeros(npairs)
    found = np.concatenate([s for _unk, s, _vh in solved] or [np.zeros(0)])
    sigma[: found.size] = np.sort(found)[::-1]
    cut = max(rtol, size * np.finfo(float).eps) * sigma[0]

    touched = np.zeros(npairs, dtype=bool)
    touched[cols] = True
    free = np.flatnonzero(~touched)
    blocks = []
    for unk, s, vh in solved:
        null = vh[int(np.count_nonzero(s > cut)):].conj()
        if null.shape[0]:
            blocks.append((unk, null))
    dim = free.size + sum(null.shape[0] for _unk, null in blocks)
    return dim, sigma, free, blocks


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
            gap = tr - tr_rev
            # abs() of a complex with a NaN part and no infinite one reads a
            # stale errno, and raises OverflowError after the caught
            # overflow of norm**length above
            margin = math.nan if cmath.isnan(gap) and not cmath.isinf(gap) else abs(gap)
            if margin > threshold:
                return {
                    "word": list(letters),
                    "trace": [tr.real, tr.imag],
                    "trace_reversed": [tr_rev.real, tr_rev.imag],
                    "margin": float(margin),
                    "threshold": float(threshold),
                }
    return None


def per_group_twin_q(n, merges):
    """``Q`` of a twin reduction of ``n`` vertices from its ``merges``
    (``TwinReduction.merges``), with one Householder construction per merge
    group, applied in walk order: the loop ``TwinReduction.q`` ran before it
    built the reflectors once per copy count.  Each reflector is
    ``I - 2 v v^T / v^T v`` with ``v = a - e_1`` and its first entry formed
    without cancellation, the arithmetic of ``shift._reflectors``, so the
    two agree bit for bit."""
    q = np.eye(n)
    for cols, units in merges:
        a = np.array(units)
        tail = np.einsum("gi,gi->g", a[:, 1:], a[:, 1:])
        v = a.copy()
        v[:, 0] = np.where(a[:, 0] <= 0, a[:, 0] - 1.0, -tail / (1.0 + np.abs(a[:, 0])))
        vv = v[:, 0] ** 2 + tail
        scale = np.divide(2.0, vv, out=np.zeros_like(vv), where=vv > 0)
        h = np.eye(a.shape[1]) - scale[:, None, None] * v[:, :, None] * v[:, None, :]
        cols = np.array(cols).transpose(0, 2, 1)
        q[:, cols] = q[:, cols] @ h
    return q


def reference_twin_walk(parent, levels, weights):
    """The twin reduction's walk as it first ran: every vertex keeps the
    list of its subtree's vertices in canonical preorder, copied into its
    parent's list level by level.  Takes the parents, levels and real
    weights of a forest and returns ``(parent, weights, split, merges)`` as
    lists, in the layout of ``TwinReduction``."""
    n = len(parent)
    up, w = list(parent), [float(x) for x in weights]
    kids = [[] for _ in range(n)]
    for v, p in enumerate(up):
        if p >= 0:
            kids[p].append(v)
    split, merges, ids = 0, [], {}
    key, nodes = [0] * n, [None] * n
    for level in reversed(levels):
        shapes = {}
        for u in level:
            groups = {}
            for c in kids[u]:
                groups.setdefault(key[c], []).append(c)
            shape, below = [], [u]
            for k in sorted(groups):
                twins = groups[k]
                c = twins[0]
                if len(twins) > 1:
                    lam = [w[t] for t in twins]
                    w[c] = math.hypot(*lam)
                    cols, units = shapes.setdefault((len(twins), len(nodes[c])), ([], []))
                    cols.append([nodes[t] for t in twins])
                    units.append([x / w[c] for x in lam])
                    for t in twins[1:]:
                        w[t], up[t] = 0.0, -1
                    split += len(twins) - 1
                shape.append((w[c], k))
                below += nodes[c]
            key[u] = ids.setdefault(tuple(shape), len(ids))
            nodes[u] = below
        merges += shapes.values()
    return up, w, split, merges


def dense_shift_fill(tree, weights):
    """The dense complex shift matrix as it was first filled, one entry per
    non-root vertex: ``complex(weights[v])`` at row ``v`` and the column of
    ``v``'s parent, in ``tree.vertices`` order."""
    n = len(tree.vertices)
    m = np.zeros((n, n), dtype=complex)
    for v in tree.vertices:
        if v != tree.root:
            m[tree.index_of(v), tree.index_of(tree.parent_of(v))] = complex(weights[v])
    return m
