import math

import numpy as np
import pytest

from treeshift import (
    Conjugation,
    ConjugationError,
    conjugation_from_matrix,
    verify_c_symmetry,
)
from conftest import random_complex

SQRT2 = math.sqrt(2.0)


def branch_exchange(basis):
    """The matrix of the ``C`` that swaps the root with the deep leaf and
    rotates the middle pair: column ``k`` is ``C e_k``."""
    e = np.eye(len(basis), dtype=complex)
    i0, i11, i21, i22 = (basis.index(v) for v in ("0", "1,1", "2,1", "2,2"))
    images = {i0: e[i22], i11: (e[i21] - e[i11]) / SQRT2, i21: (e[i11] + e[i21]) / SQRT2, i22: e[i0]}
    return np.column_stack([images[k] for k in range(len(basis))])


def test_from_matrix_accepts_symmetric_unitary():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    conj = conjugation_from_matrix(a)
    assert conj.residual_unitary <= 1e-14
    assert conj.residual_symmetric == 0.0


def test_from_matrix_rejects_nonunitary():
    with pytest.raises(ConjugationError, match="unitary"):
        conjugation_from_matrix(np.array([[0, 2], [2, 0]], dtype=complex))


def test_from_matrix_rejects_antisymmetric():
    # C e_1 = e_2, C e_2 = -e_1 fails A = A^T
    a = np.array([[0, -1], [1, 0]], dtype=complex)
    with pytest.raises(ConjugationError) as err:
        conjugation_from_matrix(a)
    assert "symmetry" in str(err.value)


def test_from_matrix_refuses_a_non_square_matrix_and_a_wrong_basis():
    with pytest.raises(ConjugationError, match="^conjugation matrix must be square$"):
        conjugation_from_matrix(np.zeros((2, 3)))
    with pytest.raises(ConjugationError, match="^basis length does not match matrix size$"):
        conjugation_from_matrix(np.eye(2), basis=("a",))


def test_apply_is_antilinear(rng):
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    conj = conjugation_from_matrix(a)
    f = random_complex(rng, 2)
    g = random_complex(rng, 2)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    lhs = conj.apply(lam * f + g)
    rhs = np.conj(lam) * conj.apply(f) + conj.apply(g)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_apply_is_involutive_and_isometric(rng):
    # any unitary symmetric A gives C^2 = I and <Cf, Cg> = conj(<f, g>)
    q, _ = np.linalg.qr(random_complex(rng, (5, 5)))
    a = q @ q.T
    conj = conjugation_from_matrix(a)
    f = random_complex(rng, 5)
    g = random_complex(rng, 5)
    assert np.linalg.norm(conj.apply(conj.apply(f)) - f) <= 1e-10
    lhs = np.vdot(conj.apply(f), conj.apply(g))
    rhs = np.conj(np.vdot(f, g))
    assert abs(lhs - rhs) <= 1e-10


def test_verify_zero_operator():
    conj = conjugation_from_matrix(np.eye(3, dtype=complex))
    report = verify_c_symmetry(np.zeros((3, 3), dtype=complex), conj)
    assert report.passed
    assert report.residual == 0.0


def test_verify_identity_fails_on_trunked_branching(trunked_y_shift):
    conj = conjugation_from_matrix(np.eye(5, dtype=complex))
    report = verify_c_symmetry(trunked_y_shift, conj)
    assert not report.passed
    t = trunked_y_shift.matrix
    assert report.residual == pytest.approx(np.linalg.norm(t - t.T), rel=1e-12)
    assert report.residual > 0.1


def test_verify_residual_matches_adjoint(rng):
    """TA = AT^T residuals agree for T and T* under the same conjugation."""
    n = 4
    flip = np.eye(n, dtype=complex)[::-1]
    conj = conjugation_from_matrix(flip)
    t = random_complex(rng, (n, n))
    r = verify_c_symmetry(t, conj).residual
    r_adj = verify_c_symmetry(t.conj().T, conj).residual
    assert abs(r - r_adj) <= 1e-10 * max(1.0, r)


def test_verify_reports_worst_basis_vector(trunked_y_shift):
    conj = conjugation_from_matrix(np.eye(5, dtype=complex), basis=trunked_y_shift.basis)
    report = verify_c_symmetry(trunked_y_shift, conj)
    assert report.worst_basis_vector in trunked_y_shift.basis


def test_dimension_mismatch_rejected(y_shift):
    conj = conjugation_from_matrix(np.eye(3, dtype=complex))
    with pytest.raises(ConjugationError, match="dimension"):
        verify_c_symmetry(y_shift, conj)


def test_doc_round_trip(y_shift):
    conj = conjugation_from_matrix(branch_exchange(list(y_shift.basis)), y_shift.basis)
    doc = conj.to_doc()
    back = Conjugation.from_doc(doc)
    assert np.array_equal(back.matrix, conj.matrix)
    assert back.basis == conj.basis


def test_from_doc_rejects_corrupt_matrix(y_shift):
    conj = conjugation_from_matrix(np.eye(4, dtype=complex), basis=y_shift.basis)
    doc = conj.to_doc()
    doc["matrix"][0][1] = [5.0, 0.0]
    with pytest.raises(ConjugationError):
        Conjugation.from_doc(doc)


def test_verify_fails_when_the_norm_overflows():
    # ||T||_F overflows at weights 1e200 and 3e200, so the residual of the
    # identity and the scale of the bound are both inf; the path (1, 3) is
    # not complex symmetric at any scale
    from treeshift import build_shift, decide_cs, generate_path

    s = build_shift(generate_path(3), {"1": 1e200, "2": 3e200})
    with np.errstate(over="ignore"):
        report = verify_c_symmetry(s, conjugation_from_matrix(np.eye(3, dtype=complex)))
        assert decide_cs(s).kind == "not_cs"
    assert report.residual == math.inf
    assert not report.passed


def test_verify_is_relative_at_small_scale(trunked_y_shift):
    # the identity fails on the trunked branching at every scale; an absolute
    # floor of tol would let it pass once ||T||_F is below tol
    conj = conjugation_from_matrix(np.eye(5, dtype=complex))
    for c in (1.0, 1e-12, 1e-150):
        assert not verify_c_symmetry(c * trunked_y_shift.matrix, conj).passed
