"""Finite truncations of the broom (star) constructions.

The h-sequence induction builds vectors h_1..h_N over an orthonormal family
f_1..f_N subject to ``norm(h_i)^2 = (1 - lambda_i^2)/lambda_i^2`` and
``<h_i, h_j> = -1`` for i != j; the broom conjugation then maps the root to
an aggregate tooth vector f_0 and each early tooth e_i to
``g_i = lambda_i (e_0 + h_i)``.  All identities are exact by construction and
the verification report recomputes them numerically.

Weight range: the source interval for the lambda_i is implemented as (0, 1);
the norm identity forces ``lambda_i <= 1``, so schedules outside that range
are rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shift import _rank_above_cut, build_shift
from .trees import DirectedTree, generate_broom, generate_two_level_broom

__all__ = [
    "BroomSchedule",
    "HSequence",
    "InfeasibleScheduleError",
    "solve_h_sequence",
    "BroomEmbedding",
    "build_broom_conjugation",
    "two_level_kernel_structure",
]


class InfeasibleScheduleError(ValueError):
    """The induction step produced a nonpositive squared coefficient.

    ``step`` is the 1-based index of the vector that could not be built;
    ``deficit`` is how far below zero the squared coefficient landed,
    signaling the schedule decays too slowly.
    """

    def __init__(self, step: int, deficit: float):
        self.step = int(step)
        self.deficit = float(deficit)
        super().__init__(
            f"h-sequence infeasible at step {step}: "
            f"squared coefficient falls short by {deficit:.6g}"
        )


@dataclass(frozen=True)
class BroomSchedule:
    """Positive tooth weights lambda_1..lambda_N, each strictly inside (0, 1)."""

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if not self.lambdas:
            raise ValueError("schedule needs at least one weight")
        for i, x in enumerate(self.lambdas):
            if not 0.0 < x < 1.0:
                raise ValueError(f"lambda_{i + 1} = {x} is outside (0, 1)")

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def targets(self) -> np.ndarray:
        """Required squared norms (1 - lambda_i^2)/lambda_i^2."""
        lam = np.asarray(self.lambdas)
        return (1.0 - lam**2) / lam**2

    def gram(self) -> np.ndarray:
        """The exact Gram matrix: targets on the diagonal, -1 off it."""
        g = -np.ones((self.n, self.n))
        np.fill_diagonal(g, self.targets())
        return g


@dataclass(frozen=True, eq=False)
class HSequence:
    """Solution of the induction: row i of ``coords`` is h_{i+1} over f_1..f_N.

    ``t_rows[i]`` holds the combination coefficients of h_{i+1} over the
    earlier vectors and ``s_squared[i]`` the squared coefficient on the fresh
    direction f_{i+1}; both are kept so the norm identity can be checked
    without squaring large coordinates.
    """

    schedule: BroomSchedule
    coords: np.ndarray
    t_rows: tuple[tuple[float, ...], ...]
    s_squared: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.schedule.n

    def vector(self, i: int) -> np.ndarray:
        """Coordinates of h_i (1-based) over f_1..f_N."""
        return self.coords[i - 1].copy()

    def gram_offdiag_residual(self) -> float:
        """max_{i != j} |<h_i, h_j> + 1| computed from the coordinates."""
        if self.n == 1:
            return 0.0
        gram = self.coords @ self.coords.T
        off = gram + 1.0
        np.fill_diagonal(off, 0.0)
        return float(np.max(np.abs(off)))

    def norm_residual(self) -> float:
        """max_i |norm(h_i)^2 - target_i| in the cancellation-free form.

        norm(h_i)^2 = t'Gt + s_i^2 with s_i^2 stored as target_i - t'Gt, so
        the residual reduces to re-deriving t'Gt from the stored combination
        coefficients; summing squared coordinates instead would lose the
        identity whenever the targets are large.
        """
        g = self.schedule.gram()
        targets = self.schedule.targets()
        worst = 0.0
        for i, t in enumerate(self.t_rows):
            if t:
                tv = np.asarray(t)
                q = float(tv @ g[: len(t), : len(t)] @ tv)
            else:
                q = 0.0
            worst = max(worst, abs(self.s_squared[i] - (targets[i] - q)))
        return worst

    def to_doc(self) -> dict:
        return {
            "lambdas": [float(x) for x in self.schedule.lambdas],
            "t": [[float(x) for x in row] for row in self.t_rows],
            "s_squared": [float(x) for x in self.s_squared],
            "gram_offdiag_residual": self.gram_offdiag_residual(),
            "norm_residual": self.norm_residual(),
        }


def solve_h_sequence(schedule: BroomSchedule) -> HSequence:
    """Run the induction, solving G t = -1 against the current Gram block.

    Each new vector is a combination of its predecessors plus a fresh
    orthonormal direction; the fresh coefficient squared must stay positive,
    otherwise :class:`InfeasibleScheduleError` reports the step and deficit.
    """
    n = schedule.n
    targets = schedule.targets()
    g = schedule.gram()
    coords = np.zeros((n, n))
    t_rows: list[tuple[float, ...]] = []
    s_squared: list[float] = []
    for step in range(n):
        if step == 0:
            t: np.ndarray = np.zeros(0)
            q = 0.0
        else:
            block = g[:step, :step]
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise InfeasibleScheduleError(step + 1, float("inf"))
            t = np.linalg.solve(block, -np.ones(step))
            q = float(t @ block @ t)
        s2 = float(targets[step] - q)
        if s2 <= 0.0:
            raise InfeasibleScheduleError(step + 1, -s2)
        if step:
            coords[step, :step] = t @ coords[:step, :step]
        coords[step, step] = np.sqrt(s2)
        t_rows.append(tuple(float(x) for x in t))
        s_squared.append(s2)
    return HSequence(
        schedule=schedule,
        coords=coords,
        t_rows=tuple(t_rows),
        s_squared=tuple(s_squared),
    )


@dataclass(frozen=True, eq=False)
class BroomEmbedding:
    """Concrete realization of the partial conjugation inside a finite broom.

    ``images`` maps the root and the first N tooth labels to their C-images;
    the antilinear map is ``C x = sum conj(<x, e_v>) images[v]`` on that
    domain.  ``report`` carries the verification residuals.
    """

    tree: DirectedTree
    weights: dict
    f0: np.ndarray
    f_basis: np.ndarray
    images: dict
    report: dict

    def to_doc(self) -> dict:
        return dict(self.report)


def build_broom_conjugation(
    schedule: BroomSchedule,
    h: HSequence | None = None,
    n_teeth: int | None = None,
    tol: float = 1e-8,
) -> BroomEmbedding:
    """Realize f_0, f_1..f_N inside a broom with M teeth and verify the maps.

    The first N tooth weights are the schedule; the remaining M - N teeth
    carry a constant weight sized so the squared weights sum to 1, which
    makes ``S e_0`` equal f_0 on the nose (feasibility of the schedule
    guarantees spare mass).  f_1..f_N come from orthonormalizing the late
    teeth against f_0, so M >= 2N + 1 is required.  The report records the
    orthonormality of {f_0, g_1..g_N} and the intertwining residuals
    ``norm((S C - C S*) e_j)`` for j = 0..N.
    """
    if h is None:
        h = solve_h_sequence(schedule)
    if h.schedule is not schedule and tuple(h.schedule.lambdas) != tuple(schedule.lambdas):
        raise ValueError("h-sequence was solved for a different schedule")
    n = schedule.n
    m = 2 * n + 1 if n_teeth is None else int(n_teeth)
    if m < 2 * n + 1:
        raise ValueError(f"need at least {2 * n + 1} teeth for N = {n}, got {m}")

    lam = np.asarray(schedule.lambdas)
    mass = float(np.sum(lam**2))
    spare = 1.0 - mass
    if spare <= 0.0:
        raise InfeasibleScheduleError(n, mass - 1.0)
    tail = np.sqrt(spare / (m - n))

    tree = generate_broom(m)
    weights = {str(i): float(lam[i - 1]) if i <= n else float(tail) for i in range(1, m + 1)}
    dim = m + 1
    root = tree.index_of("0")
    tooth = [tree.index_of(str(i)) for i in range(1, m + 1)]

    f0 = np.zeros(dim)
    for i in range(1, m + 1):
        f0[tooth[i - 1]] = weights[str(i)]

    # orthonormal directions from the late teeth, projected off f0
    raw = np.zeros((dim, m - n))
    for k in range(n + 1, m + 1):
        col = np.zeros(dim)
        col[tooth[k - 1]] = 1.0
        col -= (f0 @ col) * f0
        raw[:, k - n - 1] = col
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    f_basis = q[:, :n]

    images: dict[str, np.ndarray] = {"0": f0.astype(complex)}
    g_vectors = np.zeros((n, dim))
    for i in range(1, n + 1):
        h_vec = f_basis @ h.coords[i - 1]
        g = lam[i - 1] * h_vec
        g[root] += lam[i - 1]
        g_vectors[i - 1] = g
        images[str(i)] = g.astype(complex)

    gram = g_vectors @ g_vectors.T
    g_norm_residual = float(np.max(np.abs(np.diag(gram) - 1.0))) if n else 0.0
    off = gram.copy()
    np.fill_diagonal(off, 0.0)
    g_orthogonality_residual = float(np.max(np.abs(off)))
    g_f0_residual = float(np.max(np.abs(g_vectors @ f0)))

    s = build_shift(tree, weights)
    intertwining = []
    for j in range(0, n + 1):
        label = str(j)
        lhs = s.matrix @ images[label]
        if j == 0:
            rhs = np.zeros(dim, dtype=complex)
        else:
            # S* e_j = conj(weight_j) e_0, so C S* e_j = weight_j f0
            rhs = weights[label] * images["0"]
        intertwining.append(float(np.linalg.norm(lhs - rhs)))
    max_intertwining = max(intertwining)

    checks = {
        "g_norm_residual": g_norm_residual,
        "g_orthogonality_residual": g_orthogonality_residual,
        "g_f0_residual": g_f0_residual,
        "f_basis_orthonormality_residual": float(
            np.linalg.norm(f_basis.T @ f_basis - np.eye(n))
        ),
        "f_basis_f0_residual": float(np.max(np.abs(f_basis.T @ f0))) if n else 0.0,
    }
    worst = max(checks, key=lambda k: checks[k])
    if checks[worst] > tol:
        raise ValueError(f"embedding invariant {worst} fails: residual {checks[worst]:.3e}")
    report = {
        "n": n,
        "teeth": m,
        "tail_weight": float(tail),
        **checks,
        "intertwining_residuals": intertwining,
        "max_intertwining_residual": max_intertwining,
        "gram_offdiag_residual": h.gram_offdiag_residual(),
        "norm_residual": h.norm_residual(),
        "tol": float(tol),
        "passed": bool(max_intertwining <= tol),
    }
    if not report["passed"]:
        raise ValueError(
            f"intertwining residual {max_intertwining:.3e} exceeds tolerance {tol:g}"
        )
    return BroomEmbedding(
        tree=tree, weights=weights, f0=f0, f_basis=f_basis, images=images, report=report
    )


def _subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    pa = a @ a.conj().T
    pb = b @ b.conj().T
    return float(np.linalg.norm(pa - pb, 2))


def two_level_kernel_structure(
    level1: list[complex] | tuple,
    level2: list[complex] | tuple,
    tol: float = 1e-10,
) -> dict:
    """Check the kernel decompositions of a truncated two-level broom.

    For teeth weights ``level1[j]`` (root to e_{1,j}) and ``level2[j]``
    (e_{1,j} to e_{2,j}), the kernel of S is H_2 = span{e_{2,j}} and the
    orthocomplement of ker S* is the line through
    f_1 = normalized sum of level1[j] e_{1,j} plus H_2.  Both statements are
    verified as subspace distances to the predicted spans.  All three
    subspaces are read off one SVD of S, cut at ``tol`` by the rank rule of
    :func:`~treeshift.shift.numerical_rank`.
    """
    level1 = [complex(x) for x in level1]
    level2 = [complex(x) for x in level2]
    if len(level1) != len(level2):
        raise ValueError("level weight lists must have equal length")
    n = len(level1)
    if n < 1:
        raise ValueError("need at least one tooth")
    for j, x in enumerate(level1):
        if x == 0:
            raise ValueError(f"zero weight at vertex 1,{j + 1}")
    for j, x in enumerate(level2):
        if x == 0:
            raise ValueError(f"zero weight at vertex 2,{j + 1}")

    tree = generate_two_level_broom(n)
    weights = {f"1,{j + 1}": level1[j] for j in range(n)}
    weights.update({f"2,{j + 1}": level2[j] for j in range(n)})
    s = build_shift(tree, weights)
    dim = tree.n

    # with S = U diag(sigma) V* cut at rank r: ker S = V[:, r:], ker S* =
    # U[:, r:] (so both have dimension dim - r) and (ker S*)^perp = U[:, :r]
    u, sigma, vh = np.linalg.svd(s.matrix)
    rank = _rank_above_cut(sigma, dim, tol, sigma[0])
    nullity = dim - rank

    # f1 lives on level 1 and H_2 on level 2, so [f1, H_2] is orthonormal
    h2 = np.zeros((dim, n), dtype=complex)
    for j in range(n):
        h2[tree.index_of(f"2,{j + 1}"), j] = 1.0
    f1 = np.zeros((dim, 1), dtype=complex)
    for j in range(n):
        f1[tree.index_of(f"1,{j + 1}"), 0] = level1[j]
    f1 /= np.linalg.norm(f1)
    predicted_perp = np.hstack((f1, h2))

    dist_ker_s = _subspace_distance(vh[rank:].conj().T, h2)
    dist_perp = _subspace_distance(u[:, :rank], predicted_perp)
    return {
        "n_teeth": n,
        "dim": dim,
        "dim_ker_s": nullity,
        "dim_ker_s_star": nullity,
        "expected_dim_ker_s": n,
        "expected_dim_ker_s_star": 1 + (n - 1),
        "distance_ker_s_vs_h2": dist_ker_s,
        "distance_ker_s_star_perp_vs_f1_plus_h2": dist_perp,
        "tol": float(tol),
        "passed": bool(nullity == n and dist_ker_s <= tol and dist_perp <= tol),
    }
