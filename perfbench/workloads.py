"""Seeded input sets for the time-to-verdict benchmark.

Every input is made by the package's public generators and carries what the
benchmark knows about it in advance:

* ``doc``: the ``{"tree": ..., "weights": ...}`` JSON text that
  ``treeshift check`` would read;
* ``expect``: ``"cs"`` when the generator guarantees complex symmetry
  (equal-moduli binary trees, mirror-satisfying two-branch weights), else
  ``None``;
* ``family``: the generation-constant weights object, when there is one, so
  the printed criterion can be evaluated beside the verdict.

All weight moduli lie in [0.5, 2.2], far from the float64 range where the
certificate check's scale defect lives; that defect has its own regression
test and is not what these workloads measure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from treeshift import (
    BinaryWeights,
    TwoBranchWeights,
    generate_binary,
    generate_path,
    generate_two_branch,
    random_tree,
    random_weights,
    sample_binary_weights,
    sample_two_branch_weights,
    tree_to_doc,
    two_branch_mirror_classes,
    weights_to_doc,
)

# The default grid of ``treeshift crossval --family two-branch``.
CROSSVAL_CELLS = tuple((k, t) for k in range(0, 4) for t in range(1, 5))
CROSSVAL_SAMPLES = 20
FUZZ_INSTANCES = 200
FUZZ_MAX_VERTICES = 15

# Full binary trees of depth 4 (n = 31).  Depth 5 (n = 63) alone takes
# 18-31 s and about 1 GB at this commit, longer than a whole run.
BINARY_KAPPA = 4
BINARY_TREES = 12

# Cells whose all-ones weights defeat the length-8 word search today.
HARD_CELLS = ((2, 5), (3, 6), (4, 6), (6, 10), (5, 12), (4, 14))
HARD_SATISFYING = 1


# Seconds one pass over the inputs takes on a 2-core Xeon box with one BLAS
# thread (checks included).  A run makes seconds // PASS_SECONDS passes, at
# least one, so its work does not depend on the speed of the commit or box.
PASS_SECONDS = {"audit_mix": 7.0, "binary_scale": 9.0, "hard_two_branch": 20.0}


@dataclass(frozen=True)
class Instance:
    group: str
    doc: str
    expect: Optional[str]
    family: Union[TwoBranchWeights, BinaryWeights, None]


def _instance(group, tree, weights: dict, expect=None, family=None) -> Instance:
    doc = {"tree": tree_to_doc(tree), "weights": weights_to_doc(weights)}
    return Instance(group, json.dumps(doc), expect, family)


def _family(group, tree, w, expect=None) -> Instance:
    return _instance(group, tree, w.to_assignment(), expect, w)


def _audit_mix(seed: int) -> list[Instance]:
    crossval_seq, fuzz_seq = np.random.SeedSequence(seed).spawn(2)
    out = []
    # Same draw order as cross_validate: per cell, satisfying half first.
    rng = np.random.default_rng(crossval_seq)
    half = (CROSSVAL_SAMPLES + 1) // 2
    for kappa, theta in CROSSVAL_CELLS:
        tree = generate_two_branch(kappa, theta)
        for k in range(CROSSVAL_SAMPLES):
            satisfying = k < half
            w = sample_two_branch_weights(kappa, theta, rng, satisfying=satisfying)
            if satisfying:
                out.append(_family("crossval-satisfying", tree, w, "cs"))
            else:
                out.append(_family("crossval-perturbed", tree, w))
    # soundness_fuzz-style: random trees, every fourth a family tree with
    # generation-constant weights.
    rng = np.random.default_rng(fuzz_seq)
    for k in range(FUZZ_INSTANCES):
        if k % 4 == 0:
            group = "fuzz-family"
            tree = _fuzz_family_tree(rng, k // 4)
            values = [
                complex((0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random()))
                for _ in range(tree.depth)
            ]
            weights = {v: values[tree.depth_of(v) - 1] for v in tree.nonroot_vertices()}
        else:
            group = "fuzz-random"
            tree = random_tree(rng, max_vertices=FUZZ_MAX_VERTICES)
            weights = random_weights(rng, tree)
        out.append(_instance(group, tree, weights))
    return out


def _fuzz_family_tree(rng: np.random.Generator, index: int):
    choice = index % 3
    if choice == 0:
        kappa = int(rng.integers(0, 3))
        return generate_two_branch(kappa, int(rng.integers(max(1, kappa), kappa + 3)))
    if choice == 1:
        return generate_binary(int(rng.integers(2, 4)))
    return generate_path(int(rng.integers(2, 8)))


def _binary_scale(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    tree = generate_binary(BINARY_KAPPA)
    return [
        _family(
            "binary-equal-moduli", tree,
            sample_binary_weights(BINARY_KAPPA, rng, satisfying=True), "cs",
        )
        for _ in range(BINARY_TREES)
    ]


def _broken_pairs(w: TwoBranchWeights, pairs) -> frozenset:
    """Mirror constraints ``|w_i| = ratio |w_j|`` that the weights break."""
    return frozenset(
        (i, j) for i, j, ratio in pairs
        if abs(abs(w.weight(i)) - ratio * abs(w.weight(j))) > 1e-9 * abs(w.weight(i))
    )


def _hard_two_branch(seed: int) -> list[Instance]:
    """All-ones, mirror-satisfying and mirror-violating weights per cell.

    A violating sample bumps one weight chosen at random, and whether the
    length-8 word search sees the bump depends on which weight it is: at
    (5,12) three of eleven choices end ``undetermined`` after the full
    unitary search.  Left to chance, that one draw would swing a run's time
    by a tenth, so each cell gets exactly one violating sample per distinct
    set of broken mirror constraints, drawn in seeded order.
    """
    rng = np.random.default_rng(seed)
    out = []
    for kappa, theta in HARD_CELLS:
        tree = generate_two_branch(kappa, theta)
        ones = TwoBranchWeights(kappa, theta, (1.0,) * kappa, (1.0,) * theta)
        out.append(_family("hard-all-ones", tree, ones))
        for _ in range(HARD_SATISFYING):
            w = sample_two_branch_weights(kappa, theta, rng, satisfying=True)
            out.append(_family("hard-satisfying", tree, w, "cs"))
        _classes, pairs = two_branch_mirror_classes(kappa, theta)
        bumps = {i for i, j, _ in pairs if i != j}
        seen = set()
        for _draw in range(100 * len(bumps)):
            if len(seen) == len(bumps):
                break
            w = sample_two_branch_weights(kappa, theta, rng, satisfying=False)
            broken = _broken_pairs(w, pairs)
            if broken not in seen:
                seen.add(broken)
                out.append(_family("hard-violating", tree, w))
    return out


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's inputs in run order; the same seed gives the same list.

    The order is shuffled so that inputs of one kind are spread over the
    whole pass instead of meeting the same stretch of machine load.
    """
    makers = {
        "audit_mix": _audit_mix,
        "binary_scale": _binary_scale,
        "hard_two_branch": _hard_two_branch,
    }
    instances = makers[workload](seed)
    order = np.random.default_rng((seed, 1)).permutation(len(instances))
    return [instances[i] for i in order]


def digest(instances: list[Instance]) -> str:
    """sha256 over the documents and their known answers, in order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.group}\t{inst.expect}\t{inst.doc}\n".encode())
    return h.hexdigest()
