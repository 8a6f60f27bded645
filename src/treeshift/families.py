"""Printed criteria and explicit constructions for the studied tree families.

A two-branch tree has generation-constant weights indexed
``lambda_{-kappa+1}..lambda_0`` on the trunk and ``lambda_1..lambda_theta``
on both branches; a binary tree has one weight per level.  The condition
evaluators reproduce the published formulas exactly as printed, including
their index sets; out-of-range weight references are recorded and skipped so
the cross-validation audit can quantify the printed statements instead of
silently repairing them.  Moduli are compared relatively, within the
fixed ``_RTOL = 1e-9``, so no answer depends on the weights' scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .conjugation import Conjugation, ConjugationError, gauged_conjugation
from .shift import build_shift, positivize_weights
from .trees import DirectedTree, generate_two_branch

__all__ = [
    "TwoBranchWeights",
    "BinaryWeights",
    "ConditionReport",
    "FamilyConditionError",
    "two_branch_cs_condition",
    "two_branch_phase_sequences",
    "two_branch_conjugation",
    "binary_cs_condition",
    "is_palindromic",
    "classify_tree_family",
    "BlockDecomposition",
    "decompose_equal_weight_tree",
    "chains_to_matrix",
    "reversal_pairing_conjugation",
]

SQRT2 = float(np.sqrt(2.0))
# The relative tolerance of every modulus comparison in this module.
_RTOL = 1e-9


class FamilyConditionError(ValueError):
    """A construction's hypothesis fails; the message names the failing step."""


@dataclass(frozen=True)
class TwoBranchWeights:
    """Generation-constant weights for a two-branch tree, ``kappa >= 0`` and
    ``theta >= 1`` as :func:`~treeshift.trees.generate_two_branch` needs.

    ``trunk`` holds ``lambda_{-kappa+1}..lambda_0`` (length kappa), ``branch``
    holds ``lambda_1..lambda_theta`` (length theta, shared by both branches).
    """

    kappa: int
    theta: int
    trunk: tuple[complex, ...]
    branch: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trunk", tuple(complex(w) for w in self.trunk))
        object.__setattr__(self, "branch", tuple(complex(w) for w in self.branch))
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.theta < 1:
            raise ValueError(f"theta must be >= 1, got {self.theta}")
        if len(self.trunk) != self.kappa:
            raise ValueError(
                f"trunk needs {self.kappa} weights, got {len(self.trunk)}"
            )
        if len(self.branch) != self.theta:
            raise ValueError(
                f"branch needs {self.theta} weights, got {len(self.branch)}"
            )

    def weight(self, index: int) -> complex:
        """Unified accessor: index in -kappa+1..0 is trunk, 1..theta branch."""
        if -self.kappa + 1 <= index <= 0:
            return self.trunk[index + self.kappa - 1]
        if 1 <= index <= self.theta:
            return self.branch[index - 1]
        raise IndexError(f"weight index {index} outside -{self.kappa - 1}..{self.theta}")

    def in_range(self, index: int) -> bool:
        return -self.kappa + 1 <= index <= self.theta

    def to_assignment(self) -> dict[str, complex]:
        w: dict[str, complex] = {}
        for l in range(-self.kappa + 1, 1):
            w[str(l)] = self.weight(l)
        for i in (1, 2):
            for j in range(1, self.theta + 1):
                w[f"{i},{j}"] = self.weight(j)
        return w


@dataclass(frozen=True)
class BinaryWeights:
    """One weight per level for a binary tree of depth ``kappa >= 2``:
    ``levels[k-1]`` = lambda_k."""

    kappa: int
    levels: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(complex(w) for w in self.levels))
        if self.kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {self.kappa}")
        if len(self.levels) != self.kappa:
            raise ValueError(f"need {self.kappa} level weights, got {len(self.levels)}")

    def weight(self, level: int) -> complex:
        if not 1 <= level <= self.kappa:
            raise IndexError(f"level {level} outside 1..{self.kappa}")
        return self.levels[level - 1]

    def in_range(self, level: int) -> bool:
        return 1 <= level <= self.kappa

    def to_assignment(self) -> dict[str, complex]:
        w: dict[str, complex] = {}
        for k in range(1, self.kappa + 1):
            for l in range(1, 2**k + 1):
                w[f"{k},{l}"] = self.weight(k)
        return w


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a printed criterion: per-clause booleans plus skipped refs."""

    satisfied: bool
    clauses: tuple[dict, ...]
    skipped: tuple[dict, ...]

    def to_doc(self) -> dict:
        return {
            "satisfied": bool(self.satisfied),
            "clauses": [dict(c) for c in self.clauses],
            "skipped": [dict(s) for s in self.skipped],
        }


def _close(lhs: float, rhs: float) -> bool:
    """Relative comparison: scaling both sides leaves the answer unchanged."""
    return abs(lhs - rhs) <= _RTOL * max(abs(lhs), abs(rhs))


class _Criterion:
    """Clause collector for a printed criterion: each comparison
    ``factor |lambda_lhs| = |lambda_rhs|`` is recorded as a clause, or as
    skipped when it names a weight outside ``w``; ``key`` names the clause
    index in both records."""

    def __init__(self, w, key: str) -> None:
        self.w, self.key = w, key
        self.clauses: list[dict] = []
        self.skipped: list[dict] = []

    def compare(
        self, clause: str, at: int, lhs_index: int, rhs_index: int, factor: float = 1.0
    ) -> None:
        missing = [i for i in (lhs_index, rhs_index) if not self.w.in_range(i)]
        if missing:
            self.skipped.append(
                {"clause": clause, self.key: at, "out_of_range_indices": missing}
            )
            return
        lhs = factor * abs(self.w.weight(lhs_index))
        rhs = abs(self.w.weight(rhs_index))
        self.clauses.append({
            "clause": clause,
            self.key: at,
            "lhs": float(lhs),
            "rhs": float(rhs),
            "holds": _close(lhs, rhs),
        })

    def report(self) -> ConditionReport:
        return ConditionReport(
            satisfied=all(c["holds"] for c in self.clauses),
            clauses=tuple(self.clauses),
            skipped=tuple(self.skipped),
        )


def two_branch_cs_condition(w: TwoBranchWeights) -> ConditionReport:
    """Evaluate the printed two-branch criterion exactly as stated.

    Clause (i) compares ``|lambda_{1+j}|`` with ``|lambda_{theta+1-j}|`` for
    j = 1..theta-1.  When theta - kappa = 1 clause (ii) compares
    ``|lambda_{-kappa+j}|`` with ``|lambda_{theta-j+1}|`` for j = 1..kappa+theta.
    Otherwise clause (iii) requires ``sqrt(2)|lambda_1| = |lambda_{theta-kappa}|``
    together with the same comparisons for j = 1..kappa+theta excluding
    j = kappa (the exclusion is the printed one, reproduced as is).
    """
    kappa, theta = w.kappa, w.theta
    criterion = _Criterion(w, "j")
    for j in range(1, theta):
        criterion.compare("i", j, 1 + j, theta + 1 - j)
    if theta - kappa == 1:
        for j in range(1, kappa + theta + 1):
            criterion.compare("ii", j, -kappa + j, theta - j + 1)
    else:
        criterion.compare("iii", 0, 1, theta - kappa, factor=SQRT2)
        for j in range(1, kappa + theta + 1):
            if j == kappa:
                criterion.skipped.append(
                    {"clause": "iii", "j": j, "excluded_by_printed_set": True}
                )
                continue
            criterion.compare("iii", j, -kappa + j, theta - j + 1)
    return criterion.report()


def binary_cs_condition(w: BinaryWeights) -> ConditionReport:
    """Evaluate the printed binary criterion ``2|lambda_{l+1}| = |lambda_{kappa-l}|``
    for l = 0..kappa as stated; l values referencing the undefined weights
    ``lambda_0`` or ``lambda_{kappa+1}`` are recorded and skipped."""
    criterion = _Criterion(w, "l")
    for l in range(0, w.kappa + 1):
        criterion.compare("rita2", l, l + 1, w.kappa - l, factor=2.0)
    return criterion.report()


def is_palindromic(chain: Sequence[complex]) -> bool:
    """True iff the moduli read the same in both directions (see :func:`_close`)."""
    mods = [abs(complex(c)) for c in chain]
    return all(_close(mods[i], mods[-1 - i]) for i in range(len(mods) // 2))


def two_branch_phase_sequences(
    w: TwoBranchWeights,
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Phase recursions with seeds delta_0 = gamma_0 = 1.

    ``delta_j = delta_{j-1} * lambda_{1+j} / lambda_{theta-j+1}`` for
    j = 1..theta-1 and
    ``gamma_j = gamma_{j-1} * nu_j lambda_{-kappa+j} / (mu_j lambda_{theta-j+1})``
    for j = 1..theta+kappa, where ``mu_j = sqrt(2)`` exactly when j = theta and
    ``nu_j = sqrt(2)`` exactly when j = kappa+1.  Raises
    :class:`FamilyConditionError` at the first step that leaves the unit circle
    by more than ``_RTOL``.
    """
    kappa, theta = w.kappa, w.theta
    deltas = [complex(1.0)]
    for j in range(1, theta):
        value = deltas[-1] * w.weight(1 + j) / w.weight(theta - j + 1)
        if abs(abs(value) - 1.0) > _RTOL:
            raise FamilyConditionError(
                f"delta recursion step j={j} yields modulus {abs(value):.12g} != 1"
            )
        deltas.append(value)
    gammas = [complex(1.0)]
    for j in range(1, theta + kappa + 1):
        mu = SQRT2 if j == theta else 1.0
        nu = SQRT2 if j == kappa + 1 else 1.0
        value = gammas[-1] * nu * w.weight(-kappa + j) / (mu * w.weight(theta - j + 1))
        if abs(abs(value) - 1.0) > _RTOL:
            raise FamilyConditionError(
                f"gamma recursion step j={j} yields modulus {abs(value):.12g} != 1"
            )
        gammas.append(value)
    return tuple(deltas), tuple(gammas)


def two_branch_conjugation(w: TwoBranchWeights, tol: float = 1e-10) -> Conjugation:
    """Build the explicit conjugation for a two-branch shift.

    Weights are positivized first; the phase recursions then run on the
    moduli (seeds 1), the conjugation is assembled in the symmetrized basis
    as ``C f_{-kappa+j} = gamma_j f_{theta-j}``, ``C g_{1+j} = delta_j g_{theta-j}``
    (the flip of both chains, with these factors), gauged back to the
    original weights, and re-verified before returning.
    Any failing step raises :class:`FamilyConditionError`.
    """
    kappa, theta = w.kappa, w.theta
    tree = generate_two_branch(kappa, theta)
    assignment = w.to_assignment()
    positive, gauge = positivize_weights(tree, assignment)
    w_pos = TwoBranchWeights(
        kappa=kappa,
        theta=theta,
        trunk=tuple(positive[str(l)] for l in range(-kappa + 1, 1)),
        branch=tuple(positive[f"1,{j}"] for j in range(1, theta + 1)),
    )
    deltas, gammas = two_branch_phase_sequences(w_pos)

    # the chain basis is f[-kappa..theta] (trunk, then branch sums), then the
    # branch differences g[1..theta]
    factors = np.concatenate([gammas, deltas])
    try:
        return _flip_conjugation(
            decompose_equal_weight_tree(tree, positive), factors, gauge,
            build_shift(tree, assignment), tol,
        )
    except ConjugationError as exc:
        raise FamilyConditionError(str(exc)) from exc


def classify_tree_family(tree: DirectedTree) -> Optional[tuple[str, dict]]:
    """Structural detection of path / two-branch / binary shape.

    All three families are the trees whose vertices at each depth ``d`` have
    the same number ``c_d`` of children, with every ``c_d`` in {1, 2}: no
    level with ``c_d = 2`` is a path, exactly one such level ``kappa`` is a
    two-branch tree with ``theta = depth - kappa``, and ``c_d = 2`` on every
    level is a binary tree.  Returns ``(family, info)`` or ``None`` when the
    tree fits none of the three shapes.  Detection is by structure only;
    vertex labels play no role.
    """
    levels = [tree.at_depth(d) for d in range(tree.depth + 1)]
    if sum(len(level) for level in levels) != tree.n:
        return None
    # every vertex of a level has as many children as the next level holds
    # per vertex of this one: that leaves no room for a second parent, a back
    # edge or a leaf above the last level
    for level, below in zip(levels, levels[1:] + [()]):
        if {len(tree.children_of(v)) * len(level) for v in level} != {len(below)}:
            return None
    profile = [len(below) // len(level) for level, below in zip(levels, levels[1:])]
    if not set(profile) <= {1, 2}:
        return None
    branching = [d for d, count in enumerate(profile) if count == 2]
    if not branching:
        return "path", {"order": tuple(v for level in levels for v in level)}
    if len(branching) == 1:
        return "two_branch", {"kappa": branching[0], "theta": tree.depth - branching[0]}
    if len(branching) == len(profile):
        return "binary", {"kappa": tree.depth}
    return None


def _generation_values(tree: DirectedTree, weights: dict) -> list[complex]:
    """One weight per depth, failing if any generation mixes values."""
    values: list[complex] = []
    for d in range(1, tree.depth + 1):
        generation = tree.at_depth(d)
        first = complex(weights[generation[0]])
        for v in generation[1:]:
            w = complex(weights[v])
            if abs(w - first) > _RTOL * max(abs(w), abs(first)):
                raise ValueError(
                    f"weights are not generation-constant at depth {d} "
                    f"(vertex {v} differs)"
                )
        values.append(first)
    return values


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Unitary basis change exhibiting T as a direct sum of truncated shifts.

    ``chains[k]`` holds the weight sequence of the k-th block (empty = 1x1
    zero block); columns of ``transform`` are grouped chain by chain, and
    ``transform* @ matrix @ transform`` equals the block diagonal up to
    ``residual``.
    """

    transform: np.ndarray
    chains: tuple[tuple[complex, ...], ...]
    basis: tuple[str, ...]
    matrix: np.ndarray
    residual: float


def chains_to_matrix(chains: Sequence[Sequence[complex]]) -> np.ndarray:
    """Block diagonal of truncated shifts with the given weight chains."""
    sizes = [len(chain) + 1 for chain in chains]
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    offset = 0
    for chain, size in zip(chains, sizes):
        for i, c in enumerate(chain):
            m[offset + i + 1, offset + i] = complex(c)
        offset += size
    return m


def decompose_equal_weight_tree(tree: DirectedTree, weights: dict) -> BlockDecomposition:
    """Orthogonal decomposition of a generation-constant shift into chains.

    On a family tree (see :func:`classify_tree_family`) the shift maps level
    ``d`` onto level ``d+1`` as ``sqrt(c_d) lambda_{d+1}`` times an isometry,
    so one rule covers all three families.  The first chain runs down the
    level sums (entries ``1/sqrt(len(level))``) with links
    ``sqrt(c_d) lambda_{d+1}``; then, depth by depth and in vertex order,
    each branching vertex at depth ``k`` adds the difference chain of its two
    subtrees, level by level (entries ``+-1/sqrt(m)`` on the ``m`` descendants
    at that depth), with the links ``sqrt(c_d) lambda_{d+1}`` for
    ``d = k+1..depth-1``.  Two-branch
    trees give ``(lambda_{-kappa+1},..,lambda_0, sqrt(2) lambda_1,
    lambda_2,..,lambda_theta)`` and ``(lambda_2,..,lambda_theta)``; binary
    trees ``(sqrt(2) lambda_1,..,sqrt(2) lambda_kappa)`` and one
    ``(sqrt(2) lambda_{k+2},..,sqrt(2) lambda_kappa)`` per level-k vertex;
    paths come back as one chain of their weights.
    """
    if classify_tree_family(tree) is None:
        raise ValueError("tree is not a path, two-branch, or binary family tree")
    values = _generation_values(tree, weights)
    levels = [tree.at_depth(d) for d in range(tree.depth + 1)]
    branches = [len(tree.children_of(level[0])) == 2 for level in levels]
    links = [SQRT2 * value if branches[d] else value for d, value in enumerate(values)]
    n = tree.n
    s = build_shift(tree, weights)
    cols = np.zeros((n, n))

    def fill(vertices, pos: int, entry: float) -> None:
        for v in vertices:
            cols[tree.index_of(v), pos] = entry

    chains: list[tuple[complex, ...]] = [tuple(links)]
    for pos, level in enumerate(levels):
        fill(level, pos, 1.0 / math.sqrt(len(level)))
    pos = len(levels)
    for d, level in enumerate(levels):
        if not branches[d]:
            continue
        for v in level:
            first, second = tree.children_of(v)
            left, right = [first], [second]
            while left:
                scale = 1.0 / math.sqrt(len(left) + len(right))
                fill(left, pos, scale)
                fill(right, pos, -scale)
                pos += 1
                left = [c for u in left for c in tree.children_of(u)]
                right = [c for u in right for c in tree.children_of(u)]
            chains.append(tuple(links[d + 1 :]))

    block = chains_to_matrix(chains)
    residual = float(np.linalg.norm(cols.T @ s.matrix @ cols - block))
    if residual > 1e-12 * float(np.linalg.norm(s.matrix)):
        raise ValueError(f"decomposition residual {residual:.3e} exceeds tolerance")
    return BlockDecomposition(
        transform=cols,
        chains=tuple(chains),
        basis=tuple(tree.vertices),
        matrix=s.matrix,
        residual=residual,
    )


def _flip_conjugation(
    decomposition: BlockDecomposition, factors: np.ndarray, gauge, t, tol: float
) -> Conjugation:
    """The conjugation that flips every chain of ``decomposition``, gauged
    back to ``t`` and verified.

    Column ``k`` of the chain basis goes to ``factors[k]`` times column
    ``flip[k]``, where ``flip`` reverses each chain's block of columns:
    ``p[flip[k], k] = factors[k]``.  On the family trees every chain after
    the first is a tail of it (``links[d+1:]`` in
    :func:`decompose_equal_weight_tree`), so two chains of equal length are
    the same chain, a chain with a reversed partner is a palindrome itself,
    and no cross flip between two chains can occur.  ``p`` acts on the real
    orthonormal chain basis ``transform`` of the positive weights, so ``A =
    transform p transform^T``; with ``D`` the diagonal of ``gauge`` (see
    :func:`~treeshift.shift.positivize_weights`) over the decomposition's
    basis, the candidate is ``D A D``.  Raises :class:`ConjugationError` if
    it is not a conjugation of ``t``.
    """
    flip: list[int] = []
    for chain in decomposition.chains:
        flip.extend(range(len(flip) + len(chain), len(flip) - 1, -1))
    p = np.zeros((len(flip), len(flip)), dtype=factors.dtype)
    p[flip, np.arange(len(flip))] = factors
    cols, basis = decomposition.transform, decomposition.basis
    d = np.array([gauge[v] for v in basis], dtype=complex)
    return gauged_conjugation(cols @ p @ cols.T, d, t, basis, tol)[0]


def _reversal_flip(
    decomposition: BlockDecomposition, gauge, shift: Callable, tol: float
) -> Optional[Conjugation]:
    """Unit flips of every chain when each is palindromic (see
    :func:`is_palindromic`), verified against ``shift()``; else ``None``.
    ``shift`` is called only then, so a refused input builds no shift."""
    if not all(is_palindromic(chain) for chain in decomposition.chains):
        return None
    try:
        return _flip_conjugation(
            decomposition, np.ones(decomposition.transform.shape[1]), gauge, shift(), tol
        )
    except ConjugationError:
        return None


def reversal_pairing_conjugation(
    tree: DirectedTree, weights: dict, tol: float = 1e-10
) -> Optional[Conjugation]:
    """End-to-end pairing oracle for arbitrary complex generation-constant
    weights on a supported tree: positivize, decompose, flip every chain,
    gauge back, verify against the original shift.  ``None`` when
    inapplicable or some chain is not palindromic."""
    try:
        positive, gauge = positivize_weights(tree, weights)
        decomposition = decompose_equal_weight_tree(tree, positive)
    except ValueError:
        return None
    return _reversal_flip(decomposition, gauge, lambda: build_shift(tree, weights), tol)
