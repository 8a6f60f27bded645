"""Randomized audits: printed criteria versus certified verdicts.

Two independent oracles are available for the studied families: the generic
decision pipeline and the reversal-pairing construction on chain
decompositions.  The cross-validation report records, per instance, what the
printed criterion says and what the oracles certify, so defects in the
printed statements show up as double-certified disagreement entries instead
of being silently repaired.

All reports are deterministic given the seed and contain no timing data, so
serializing them twice yields identical bytes.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .conjugation import verify_c_symmetry
from .decider import DeciderOptions, decide_cs, reevaluate_obstruction
from .families import (
    BinaryWeights,
    TwoBranchWeights,
    _generation_values,
    binary_cs_condition,
    classify_tree_family,
    reversal_pairing_conjugation,
    two_branch_cs_condition,
)
from .serialize import complex_to_pair
from .shift import build_shift
from .trees import DirectedTree, generate_binary, generate_path, generate_two_branch

__all__ = [
    "MAX_VERTICES",
    "random_tree",
    "random_weights",
    "two_branch_mirror_classes",
    "sample_two_branch_weights",
    "sample_binary_weights",
    "cross_validate",
    "soundness_fuzz",
]

SQRT2 = float(np.sqrt(2.0))
# Largest tree a cross-validation cell may yield (a depth-6 binary tree).
MAX_VERTICES = 127


def random_tree(rng: np.random.Generator, max_vertices: int = 15) -> DirectedTree:
    """Uniform random parent assignment; labels follow creation order."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((str(parent), str(v)))
    return DirectedTree.from_edges(edges, root="0")


def random_weights(rng: np.random.Generator, tree: DirectedTree) -> dict:
    """Complex weights with moduli in [0.5, 2.0) and uniform phases."""
    w = {}
    for v in tree.nonroot_vertices():
        modulus = 0.5 + 1.5 * rng.random()
        w[v] = complex(modulus * np.exp(2j * np.pi * rng.random()))
    return w


class _ScaledUnionFind:
    """Union-find whose links carry multiplicative ratios between moduli."""

    def __init__(self, keys):
        self.parent = {k: k for k in keys}
        self.ratio = {k: 1.0 for k in keys}

    def find(self, k):
        if self.parent[k] == k:
            return k, 1.0
        root, r = self.find(self.parent[k])
        self.parent[k] = root
        self.ratio[k] *= r
        return root, self.ratio[k]

    def union(self, a, b, ratio: float) -> None:
        """Impose modulus(a) = ratio * modulus(b)."""
        ra, fa = self.find(a)
        rb, fb = self.find(b)
        if ra == rb:
            return
        # modulus(a) = fa * modulus(ra); want fa*m(ra) = ratio*fb*m(rb)
        self.parent[ra] = rb
        self.ratio[ra] = ratio * fb / fa


def _two_branch_pair_constraints(kappa: int, theta: int) -> list[tuple]:
    """Mirror constraints (i, j, ratio) meaning |λ_i| = ratio·|λ_j|, plus the
    self-constraints implied when a scaled slot mirrors itself."""

    def slot(p: int) -> tuple[int, float]:
        # chain position -> (weight index, chain-entry factor)
        if p <= kappa:
            return -kappa + p, 1.0
        if p == kappa + 1:
            return 1, SQRT2
        return p - kappa, 1.0

    constraints: list[tuple] = []
    size = kappa + theta
    for p in range(1, size // 2 + 1):
        q = size + 1 - p
        if p >= q:
            break
        (i, fi), (j, fj) = slot(p), slot(q)
        constraints.append((i, j, fj / fi))
    for q in range(1, theta):
        qq = theta - q
        if q >= qq:
            break
        constraints.append((1 + q, 1 + qq, 1.0))
    return constraints


def two_branch_mirror_classes(kappa: int, theta: int):
    """Partition of weight indices into modulus classes with scale factors.

    Returns ``(classes, pairs)`` where ``classes`` maps each index to
    ``(root_index, ratio)`` with ``|λ_index| = ratio * |λ_root|``, and
    ``pairs`` lists the raw mirror constraints.  Indices tied to nothing
    form their own class; a tree with no nontrivial pair is complex
    symmetric for every weight choice.
    """
    indices = list(range(-kappa + 1, theta + 1))
    uf = _ScaledUnionFind(indices)
    pairs = _two_branch_pair_constraints(kappa, theta)
    for i, j, ratio in pairs:
        uf.union(i, j, ratio)
    classes = {i: uf.find(i) for i in indices}
    return classes, pairs


def sample_two_branch_weights(
    kappa: int, theta: int, rng: np.random.Generator, satisfying: bool
) -> TwoBranchWeights:
    """Random weights whose moduli satisfy (or break) the mirror classes.

    Satisfying instances draw one modulus per class and random phases;
    violating ones additionally bump one side of a mirror pair by 35%.  When
    no nontrivial pair exists (kappa = 0, theta <= 2) every instance is
    satisfying by construction.
    """
    classes, pairs = two_branch_mirror_classes(kappa, theta)
    root_mod = {}
    moduli = {}
    for i in range(-kappa + 1, theta + 1):
        root, ratio = classes[i]
        if root not in root_mod:
            root_mod[root] = 0.6 + 1.6 * rng.random()
        moduli[i] = ratio * root_mod[root]
    if not satisfying:
        nontrivial = [(i, j) for i, j, _ in pairs if i != j]
        if nontrivial:
            i, _j = nontrivial[int(rng.integers(0, len(nontrivial)))]
            moduli[i] *= 1.35
    def phased(i: int) -> complex:
        return complex(moduli[i] * np.exp(2j * np.pi * rng.random()))
    trunk = tuple(phased(i) for i in range(-kappa + 1, 1))
    branch = tuple(phased(i) for i in range(1, theta + 1))
    return TwoBranchWeights(kappa=kappa, theta=theta, trunk=trunk, branch=branch)


def sample_binary_weights(
    kappa: int, rng: np.random.Generator, satisfying: bool
) -> BinaryWeights:
    """Random level weights; ``satisfying`` targets the certified condition
    (equal moduli; for kappa = 2 only the two levels need matching moduli),
    not the printed one, which no nonzero weights satisfy for kappa >= 2."""
    base = 0.6 + 1.6 * rng.random()
    moduli = [base] * kappa
    if not satisfying:
        bump = int(rng.integers(0, kappa))
        moduli[bump] *= 1.35
    levels = tuple(
        complex(m * np.exp(2j * np.pi * rng.random())) for m in moduli
    )
    return BinaryWeights(kappa=kappa, levels=levels)


def _instance_record(
    tree: DirectedTree,
    params: dict,
    assignment: dict,
    printed,
    opts: DeciderOptions,
    tol: float,
) -> dict:
    s = build_shift(tree, assignment)
    verdict = decide_cs(s, opts)
    pairing_cert = reversal_pairing_conjugation(tree, assignment, tol=tol)
    if pairing_cert is not None:
        pairing_residual = verify_c_symmetry(s, pairing_cert, tol=tol).residual
        pairing = {"verdict": "cs", "residual": float(pairing_residual)}
    else:
        pairing = {"verdict": "none", "residual": None}
    oracle_cs = verdict.kind == "cs"
    agree = bool(printed.satisfied == oracle_cs)
    certified = False
    certification: dict = {}
    if verdict.kind == "cs":
        report = verify_c_symmetry(s, verdict.certificate, tol=tol)
        certified = report.passed
        certification = {"kind": "certificate", "residual": float(report.residual)}
    elif verdict.kind == "not_cs":
        ok, margin = reevaluate_obstruction(s, verdict.obstruction, verdict.options)
        certified = bool(ok)
        certification = {"kind": "obstruction", "margin": float(margin)}
    return {
        "params": params,
        "weights": {v: complex_to_pair(assignment[v]) for v in tree.nonroot_vertices()},
        "printed_condition": printed.to_doc(),
        "decider": verdict.to_doc(),
        "pairing": pairing,
        "agree": agree,
        "certified": certified,
        "certification": certification,
    }


def cross_validate(
    family: str,
    cells: Iterable,
    samples: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
    anchors: Optional[dict] = None,
) -> dict:
    """Audit printed criteria against certified verdicts over a grid.

    ``cells`` holds (kappa, theta) tuples for the two-branch family or kappa
    values for the binary family; ``samples`` random instances are drawn per
    cell, half aimed at satisfying moduli and half perturbed.  ``anchors``
    optionally maps a cell to explicit weight tuples audited ahead of the
    random draws.  The decider runs at ``tol`` and ``seed``; its word search
    is fixed at 8 letters.  The report is the deliverable: disagreement
    entries carry an independently re-checked certificate or obstruction.

    Every cell is checked before any is audited: :class:`ValueError`
    refuses the first that names no tree or whose tree has more than
    :data:`MAX_VERTICES` vertices, counted before the tree is built, so
    ``cells`` may be a lazy grid of any extent.
    """
    if family not in ("two-branch", "binary"):
        raise ValueError(f"unknown family {family!r}")
    grid = []
    for cell in cells:
        if family == "two-branch":
            kappa, theta = (int(cell[0]), int(cell[1]))
            params, n = {"kappa": kappa, "theta": theta}, kappa + 1 + 2 * theta
        else:
            kappa, theta = int(cell), None
            params, n = {"kappa": kappa}, 2 ** (kappa + 1) - 1
        if n > MAX_VERTICES:
            raise ValueError(f"cell {params} yields a {n}-vertex tree (cap {MAX_VERTICES})")
        tree = generate_binary(kappa) if theta is None else generate_two_branch(kappa, theta)
        grid.append((cell, kappa, theta, params, tree))
    rng = np.random.default_rng(seed)
    opts = DeciderOptions(tol=tol, seed=seed)
    records = []
    for cell, kappa, theta, params, tree in grid:
        cell_weights = []
        for anchor in (anchors or {}).get(cell, []):
            if family == "two-branch":
                w = TwoBranchWeights(
                    kappa, theta,
                    tuple(anchor[:kappa]), tuple(anchor[kappa:]),
                )
            else:
                w = BinaryWeights(kappa, tuple(anchor))
            cell_weights.append(w)
        half = (samples + 1) // 2
        for k in range(samples):
            if family == "two-branch":
                cell_weights.append(
                    sample_two_branch_weights(kappa, theta, rng, satisfying=k < half)
                )
            else:
                cell_weights.append(
                    sample_binary_weights(kappa, rng, satisfying=k < half)
                )
        for w in cell_weights:
            printed = (
                two_branch_cs_condition(w) if family == "two-branch"
                else binary_cs_condition(w)
            )
            records.append(
                _instance_record(tree, params, w.to_assignment(), printed, opts, tol)
            )
    disagreements = [i for i, r in enumerate(records) if not r["agree"]]
    matrix = {
        "printed_true_oracle_cs": 0,
        "printed_true_oracle_not_cs": 0,
        "printed_false_oracle_cs": 0,
        "printed_false_oracle_not_cs": 0,
        "oracle_undetermined": 0,
    }
    for r in records:
        kind = r["decider"]["verdict"]
        if kind == "undetermined":
            matrix["oracle_undetermined"] += 1
            continue
        key = (
            ("printed_true" if r["printed_condition"]["satisfied"] else "printed_false")
            + ("_oracle_cs" if kind == "cs" else "_oracle_not_cs")
        )
        matrix[key] += 1
    summary = {
        "instances": len(records),
        "agreements": len(records) - len(disagreements),
        "disagreements": disagreements,
        "all_disagreements_certified": all(
            records[i]["certified"] for i in disagreements
        ),
        "agreement_matrix": matrix,
    }
    return {
        "family": family,
        "cells": [list(c) if family == "two-branch" else int(c) for c, *_ in grid],
        "samples": int(samples),
        "seed": int(seed),
        "tol": float(tol),
        "options": opts.to_doc(),
        "instances": records,
        "summary": summary,
    }


def _family_instance(rng: np.random.Generator, index: int):
    """Deterministic rotation of family trees with generation-constant weights."""
    choice = index % 3
    if choice == 0:
        kappa = int(rng.integers(0, 3))
        theta = int(rng.integers(max(1, kappa), kappa + 3))
        tree = generate_two_branch(kappa, theta)
    elif choice == 1:
        tree = generate_binary(int(rng.integers(2, 4)))
    else:
        tree = generate_path(int(rng.integers(2, 8)))
    values = [
        complex((0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random()))
        for _ in range(tree.depth)
    ]
    weights = {v: values[tree.depth_of(v) - 1] for v in tree.nonroot_vertices()}
    return tree, weights


def soundness_fuzz(
    instances: int = 200,
    seed: int = 0,
    max_vertices: int = 15,
    tol: float = 1e-8,
) -> dict:
    """Fuzz the decision pipeline and replay every verdict's evidence.

    Random trees with random nonzero weights; every fourth instance is a
    family tree with generation-constant weights so the reversal-pairing
    oracle also applies and can be checked for contradictions.
    """
    rng = np.random.default_rng(seed)
    opts = DeciderOptions(tol=tol, seed=seed)
    counts = {"cs": 0, "not_cs": 0, "undetermined": 0}
    worst_certificate_residual = 0.0
    failed_certificates = 0
    failed_obstructions = 0
    pairing_checked = 0
    pairing_contradictions = 0
    details = []
    for k in range(instances):
        if k % 4 == 0:
            tree, weights = _family_instance(rng, k // 4)
        else:
            tree = random_tree(rng, max_vertices=max_vertices)
            weights = random_weights(rng, tree)
        s = build_shift(tree, weights)
        verdict = decide_cs(s, opts)
        counts[verdict.kind] += 1
        entry = {
            "index": k,
            "vertices": tree.n,
            "verdict": verdict.kind,
        }
        if verdict.kind == "cs":
            report = verify_c_symmetry(s, verdict.certificate, tol=tol)
            worst_certificate_residual = max(worst_certificate_residual, report.residual)
            if not report.passed:
                failed_certificates += 1
            entry["certificate_residual"] = float(report.residual)
        elif verdict.kind == "not_cs":
            ok, margin = reevaluate_obstruction(s, verdict.obstruction, verdict.options)
            if not ok:
                failed_obstructions += 1
            entry["obstruction_kind"] = verdict.obstruction["kind"]
            entry["obstruction_margin"] = float(margin)
            entry["obstruction_reproduced"] = bool(ok)
        applicable = classify_tree_family(tree) is not None
        if applicable:
            try:
                _generation_values(tree, weights)
            except ValueError:
                applicable = False
        if applicable:
            pairing_checked += 1
            cert = reversal_pairing_conjugation(tree, weights, tol=tol)
            pairing_cs = cert is not None
            entry["pairing"] = "cs" if pairing_cs else "none"
            if verdict.kind != "undetermined" and pairing_cs != (verdict.kind == "cs"):
                pairing_contradictions += 1
                entry["pairing_contradiction"] = True
        details.append(entry)
    return {
        "instances": int(instances),
        "seed": int(seed),
        "max_vertices": int(max_vertices),
        "tol": float(tol),
        "options": opts.to_doc(),
        "counts": counts,
        "worst_certificate_residual": float(worst_certificate_residual),
        "failed_certificates": failed_certificates,
        "failed_obstructions": failed_obstructions,
        "pairing_checked": pairing_checked,
        "pairing_contradictions": pairing_contradictions,
        "details": details,
    }
