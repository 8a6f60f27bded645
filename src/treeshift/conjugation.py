"""Conjugations (antilinear involutive isometries) as symmetric unitaries.

An antilinear map ``C f = A conj(f)`` is a conjugation exactly when the matrix
``A`` is unitary and symmetric: ``C^2 = I`` becomes ``A conj(A) = I`` which,
for unitary ``A``, is the same as ``A = A^T``.  An operator ``T`` satisfies
``T = C T* C`` if and only if ``T A = A T^T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .serialize import matrix_to_pairs, pairs_to_matrix
from .shift import ShiftMatrix

__all__ = [
    "Conjugation",
    "ConjugationError",
    "conjugation_from_matrix",
    "gauged_conjugation",
    "CSymmetryReport",
    "verify_c_symmetry",
]


class ConjugationError(ValueError):
    """The proposed matrix is not a symmetric unitary within tolerance."""


@dataclass(frozen=True, eq=False)
class Conjugation:
    """The conjugation ``C f = matrix @ conj(f)`` over a labelled basis."""

    matrix: np.ndarray
    basis: tuple[str, ...]
    residual_unitary: float
    residual_symmetric: float

    def to_doc(self) -> dict:
        return {
            "basis": list(self.basis),
            "matrix": matrix_to_pairs(self.matrix),
            "residual_unitary": float(self.residual_unitary),
            "residual_symmetric": float(self.residual_symmetric),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Conjugation":
        matrix = pairs_to_matrix(doc["matrix"])
        basis = tuple(doc.get("basis") or _default_basis(matrix.shape[0]))
        return conjugation_from_matrix(matrix, basis=basis)


def _default_basis(n: int) -> tuple[str, ...]:
    """The labels ``"0".."n-1"`` of a bare matrix's basis."""
    return tuple(map(str, range(n)))


def _residuals(a: np.ndarray) -> tuple[float, float]:
    eye = np.eye(a.shape[0])
    return (
        float(np.linalg.norm(a @ a.conj().T - eye)),
        float(np.linalg.norm(a - a.T)),
    )


def conjugation_from_matrix(
    a: np.ndarray, basis: Optional[Sequence[str]] = None, tol: float = 1e-10
) -> Conjugation:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConjugationError("conjugation matrix must be square")
    res_u, res_s = _residuals(a)
    if res_u > tol or res_s > tol:
        raise ConjugationError(
            f"not a conjugation: unitary residual {res_u:.3e}, "
            f"symmetry residual {res_s:.3e} (tol {tol:.1e})"
        )
    basis = tuple(basis) if basis is not None else _default_basis(a.shape[0])
    if len(basis) != a.shape[0]:
        raise ConjugationError("basis length does not match matrix size")
    return Conjugation(
        matrix=a, basis=basis, residual_unitary=res_u, residual_symmetric=res_s
    )


@dataclass(frozen=True)
class CSymmetryReport:
    """The outcome of :func:`verify_c_symmetry`: the residual
    ``||T A - A T^T||_F`` and whether it passed."""

    residual: float
    passed: bool


def gauged_conjugation(
    a: np.ndarray, d: np.ndarray, t, basis: Optional[Sequence[str]], tol: float
) -> tuple[Conjugation, CSymmetryReport]:
    """Gauge a conjugation found for ``D* t D`` back to ``t``, and verify it.

    With ``D = diag(d)`` unitary (the phases of a tree shift's gauge),
    ``a`` intertwines ``D* t D`` with its transpose exactly when ``D a D^T``
    intertwines ``t``.  ``basis`` labels the conjugation, ``None`` by
    ``"0".."n-1"``.  Returns the conjugation of ``t`` and its
    :class:`CSymmetryReport`, or raises :class:`ConjugationError` when the
    candidate is not a symmetric unitary or fails the intertwining check.
    """
    a = (d[:, None] * a) * d[None, :]
    cert = conjugation_from_matrix(a, basis=basis, tol=tol)
    report = verify_c_symmetry(t, cert, tol=tol)
    if not report.passed:
        raise ConjugationError(
            f"constructed conjugation fails intertwining: residual {report.residual:.3e}"
        )
    return cert, report


def verify_c_symmetry(t, conj: Conjugation, tol: float = 1e-10) -> CSymmetryReport:
    """Check ``T = C T* C`` through the residual ``||T A - A T^T||_F``.

    The test is relative: it passes when the residual is at most
    ``tol * ||T||_F``, so that no weight scale makes it vacuous (under an
    absolute floor, any symmetric unitary would pass for a small enough
    ``T``), and ``T = 0`` passes with a zero residual.  A residual or scale
    that is not finite (an overflowed norm, a NaN) fails, since no bound on
    it is one.
    """
    m = t.matrix if isinstance(t, ShiftMatrix) else np.asarray(t, dtype=complex)
    if m.shape != conj.matrix.shape:
        raise ConjugationError(
            f"dimension mismatch: operator is {m.shape[0]}x{m.shape[1]}, "
            f"conjugation is {conj.matrix.shape[0]}x{conj.matrix.shape[1]}"
        )
    defect = m @ conj.matrix - conj.matrix @ m.T
    residual = float(np.linalg.norm(defect))
    scale = float(np.linalg.norm(m))
    return CSymmetryReport(residual=residual, passed=bool(residual <= tol * scale < np.inf))
