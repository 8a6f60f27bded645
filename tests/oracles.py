"""Slow, independent re-implementations used to check the fast numpy paths.

Everything here works over exact rationals, plain Python complex numbers or
one dense numpy SVD, and never imports the code under test, so agreement
between the two sides is meaningful.
"""

import math
from fractions import Fraction

import numpy as np


def exact_rank(rows):
    """Rank of a matrix with Fraction entries, by Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1, 1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


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


def dense_sylvester_nullspace(m, rtol):
    """Null space of ``A -> T A - A T^T`` on symmetric ``A`` by one dense SVD.

    Builds the full ``n^2 x n(n+1)/2`` system over the orthonormal symmetric
    basis ``E_ii``, ``(E_ij + E_ji) / sqrt 2`` and cuts at
    ``rtol * sigma_max``.  Returns ``(basis, sigma)``: a ``(d, n, n)`` array
    of Frobenius-orthonormal symmetric matrices and the singular values in
    descending order.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = np.zeros((n * n, len(pairs)), dtype=complex)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k, (i, j) in enumerate(pairs):
        block = np.zeros((n, n), dtype=complex)
        if i == j:
            block[:, i] += m[:, i]
            block[i, :] -= m[:, i]
        else:
            block[:, j] += m[:, i] * inv_sqrt2
            block[:, i] += m[:, j] * inv_sqrt2
            block[i, :] -= m[:, j] * inv_sqrt2
            block[j, :] -= m[:, i] * inv_sqrt2
        cols[:, k] = block.reshape(-1)
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
