import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift
from treeshift import (
    ConjugationError,
    DeciderOptions,
    DirectedTree,
    build_shift,
    conjugation_from_matrix,
    decide_cs,
    dump_json,
    generate_binary,
    generate_broom,
    generate_path,
    generate_two_branch,
    kernel_obstruction,
    numerical_rank,
    positivize_weights,
    random_tree,
    random_weights,
    reevaluate_obstruction,
    sample_binary_weights,
    tree_from_doc,
    unitary_search,
    verify_c_symmetry,
    weights_from_doc,
    word_trace_obstruction,
    word_value,
)
from treeshift import decider, shift
from treeshift.decider import (
    _RANK_RTOL,
    _chain_decision,
    _chain_tol,
    _chains,
    _joint_space,
    _prepared,
    _scatter,
    _sylvester_nullspace,
    _word_tol,
    _WORDS,
)
from treeshift.shift import _forest, kernel_table, tree_gauge, twin_reduction
from conftest import SQRT2, forest_matrix, random_complex
from oracles import (
    dense_joint_sylvester_nullspace,
    dense_sylvester_nullspace,
    exact_joint_sylvester_space,
    exact_rank,
    reference_sylvester_nullspace,
    sequential_word_trace_obstruction,
)

DATA = Path(__file__).with_name("data")


def path3_shift(lam1, lam2):
    return build_shift(generate_path(3), {"1": lam1, "2": lam2})


def test_options_doc_round_trip():
    opts = DeciderOptions(tol=1e-9, seed=3)
    doc = opts.to_doc()
    assert doc["tol"] == 1e-9
    assert doc["seed"] == 3
    assert set(doc) == {"tol", "rank_rtol", "max_word_len", "seed"}
    # the word search is fixed: the doc states the longest word it covers
    assert doc["max_word_len"] == 8 == max(map(len, _WORDS))
    # the rank cut is fixed too: the doc states it
    assert doc["rank_rtol"] == 1e-10 == _RANK_RTOL
    assert [f.name for f in dataclasses.fields(DeciderOptions)] == ["tol", "seed"]
    # a numpy float is stored as a float: dump_json of a verdict's doc raised
    # TypeError on np.float32 after decide_cs had decided
    opts = DeciderOptions(tol=np.float32(1e-10))
    assert type(opts.tol) is float
    doc = json.loads(dump_json(decide_cs(path3_shift(1.0, 2.0), opts).to_doc()))
    assert doc["options"]["tol"] == float(np.float32(1e-10))


@pytest.mark.parametrize(
    "field, value",
    [("tol", 0.0), ("tol", -1.0), ("tol", math.nan), ("tol", math.inf),
     ("tol", True), ("tol", "1e-10"), ("tol", 1e-10j)],
)
def test_options_out_of_range_are_refused(field, value):
    # tol = -1 used to decide the cs all-ones binary tree not_cs with margin
    # 0.0, and tol = 0 almost every known-cs binary tree.  tol = True was
    # stored and reported as true, and tol = "1e-10" raised TypeError
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        DeciderOptions(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("seed", -1), ("seed", 1.0), ("seed", True)],
)
def test_options_that_are_no_count_are_refused(field, value):
    # seed = -1 used to fail inside numpy's default_rng on the first input
    # that reached the solve
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 0"):
        DeciderOptions(**{field: value})
    opts = DeciderOptions(seed=np.int64(3))
    assert type(opts.seed) is int
    assert dump_json(opts.to_doc()) == dump_json(DeciderOptions(seed=3).to_doc())


def test_word_screen_refuses_a_negative_tol():
    # skipping the unbalanced words of a tree shift is exact for thresholds
    # >= 0 only
    m = path3_shift(1.0, 2.0).matrix
    for tol in (-1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            word_trace_obstruction(m, tol=tol)


def known_cs_binary_trees():
    """150 shifts on binary trees of depth 2-5 with equal moduli per level,
    complex symmetric by the equal-weight chain decomposition; the first
    of depth 3 is the document ``treeshift check`` once called not_cs."""
    for kappa, count in ((2, 38), (3, 38), (4, 37), (5, 37)):
        rng = np.random.default_rng(0)
        tree = generate_binary(kappa)
        for _ in range(count):
            w = sample_binary_weights(kappa, rng, satisfying=True)
            yield build_shift(tree, w.to_assignment())


@pytest.mark.parametrize("tol", [1e-20, 1e-300])
def test_a_tiny_tol_never_turns_rounding_into_a_witness(tol):
    # tr(T T*) = tr(T* T) for every matrix, yet at tol = 1e-20 the rounding
    # gap 7.1e-15 of that pair beat its threshold 3.7e-18; the word tolerance
    # is floored over the rounding of a gap
    kinds = [decide_cs(s, DeciderOptions(tol=tol)).kind for s in known_cs_binary_trees()]
    assert len(kinds) == 150 and "not_cs" not in kinds
    # at the default tol the floor binds only beyond n = 261
    assert _word_tol(DeciderOptions(), 261) == 1e-10 < _word_tol(DeciderOptions(), 262)


def test_kernel_obstruction_never_fires_on_shifts(y_shift, trunked_y_shift):
    # dim ker M^m always equals dim ker (M*)^m for a single matrix, so the
    # rank check can only trip on data where the two sides are inconsistent
    assert kernel_obstruction(y_shift.matrix) is None
    assert kernel_obstruction(trunked_y_shift.matrix) is None


def test_kernel_obstruction_zero_matrix():
    assert kernel_obstruction(np.zeros((3, 3), dtype=complex)) is None


def test_word_value_anchors():
    t = path3_shift(1.0, 2.0)
    word = ["T", "T", "T*", "T", "T*", "T*"]
    assert word_value(t.matrix, word) == pytest.approx(16.0, abs=1e-12)
    assert word_value(t.matrix, word[::-1]) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_are_rejected_up_front(bad):
    m = np.array([[0, 0], [bad, 0]])
    witness = {"kind": "structure", "witness": {"dim": 0}}
    for call in (
        lambda: decide_cs(m),
        lambda: word_value(m, ["T", "T*"]),
        lambda: reevaluate_obstruction(m, witness),
        # kernel_table used to return ((1, 1, 1),) here
        lambda: kernel_table(m, 1),
        lambda: kernel_obstruction(m),
    ):
        with pytest.raises(ValueError, match=r"entry \(1, 0\) is not finite"):
            call()


@pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)], ids=["non-square", "empty", "vector"])
def test_matrices_that_are_not_nonempty_and_square_are_refused(shape):
    for call in (decide_cs, lambda m: word_value(m, ["T"]), word_trace_obstruction):
        with pytest.raises(ValueError, match="^expected a nonempty square matrix$"):
            call(np.zeros(shape))


# a row with two nonzeros, a 2-cycle and a nonzero diagonal, each with the
# message the one check gives
NOT_TREE_SHIFTS = {
    "two_nonzeros": (np.array([[0.0, 0.0], [1.0, 2.0]]), "row 1 has more than one nonzero"),
    "two_cycle": (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                  "vertex 1 lies on a cycle"),
    "diagonal": (np.array([[0.5, 0.0], [1.0, 0.0]]), "vertex 0 lies on a cycle"),
}
REPLAYED = {
    "chain_reversal": {"weights": [1.0, 2.0], "gap": 0.5, "threshold": 1e-7},
    "word_trace": {"word": ["T", "T", "T*", "T", "T*", "T*"]},
    "structure": {"dim": 0, "spread": 0.0, "sigma_kept": 1.0, "sigma_cut": 0.0},
}
MATRIX_ENTRY_POINTS = {
    "decide_cs": decide_cs,
    "word_trace_obstruction": word_trace_obstruction,
    "word_value": lambda m: word_value(m, ["T", "T*"]),
    "twin_reduction": lambda m: twin_reduction(_forest(m)),
    "tree_gauge": lambda m: tree_gauge(_forest(m)),
    "kernel_table": lambda m: kernel_table(m, max_power=1),
    "kernel_obstruction": kernel_obstruction,
    **{
        f"reevaluate_obstruction[{kind}]":
            lambda m, kind=kind: reevaluate_obstruction(m, {"kind": kind, "witness": REPLAYED[kind]})
        for kind in REPLAYED
    },
}


@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
@pytest.mark.parametrize("case", NOT_TREE_SHIFTS)
def test_every_matrix_entry_point_refuses_what_is_no_tree_shift(entry, case):
    m, reason = NOT_TREE_SHIFTS[case]
    with pytest.raises(ValueError, match=f"^not a tree shift: {reason}$"):
        MATRIX_ENTRY_POINTS[entry](m)


def test_word_value_matches_pure_python(rng):
    from oracles import complex_word_trace

    tree = random_tree(rng, max_vertices=8)
    m = build_shift(tree, {v: complex(*rng.standard_normal(2)) for v in tree.nonroot_vertices()}).matrix
    for word in (["T"], ["T", "T*"], ["T*", "T", "T", "T*"], ["T", "T*", "T*"]):
        fast = word_value(m, word)
        slow = complex_word_trace(m.tolist(), word)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


def test_word_trace_obstruction_found():
    t = path3_shift(1.0, 2.0)
    witness = word_trace_obstruction(t.matrix)
    assert witness is not None
    assert witness["word"] == ["T", "T", "T*", "T", "T*", "T*"]
    trace = complex(*witness["trace"])
    trace_rev = complex(*witness["trace_reversed"])
    assert trace == pytest.approx(16.0, abs=1e-12)
    assert trace_rev == pytest.approx(4.0, abs=1e-12)
    assert witness["margin"] > witness["threshold"]


def test_word_trace_obstruction_absent_on_equal_weights():
    t = path3_shift(1.0, 1.0)
    assert word_trace_obstruction(t.matrix) is None


def test_word_trace_obstruction_zero_matrix():
    assert word_trace_obstruction(np.zeros((2, 2), dtype=complex)) is None


def test_word_trace_minimal_length():
    # the shortest separating word for the weighted path has six letters: a
    # plain scan up to five letters comes back empty, and the search's
    # witness is its first word
    t = path3_shift(1.0, 2.0)
    assert sequential_word_trace_obstruction(t.matrix, max_len=5) is None
    assert word_trace_obstruction(t.matrix)["word"] == list(_WORDS[0])
    assert len(_WORDS[0]) == 6


def bitwise(doc):
    # floats by their bits, so that 0.0 and -0.0 differ and NaN equals NaN
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {k: bitwise(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [bitwise(v) for v in doc]
    return doc


def word_case(kind: str, seed: int) -> np.ndarray:
    """A tree shift with random complex weights, or a zero matrix."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    if kind == "tree":
        tree = random_tree(rng, max_vertices=10)
        return build_shift(tree, random_weights(rng, tree)).matrix
    return np.zeros((n, n), dtype=complex)


# the word search and word_value take tree shifts only
TREE_WORD_KINDS = ["tree", "zero"]
WORD_TOLS = (1e-10, 1e-14, 1e-16, 0.0)
EPS = np.finfo(float).eps


def floored_word_tol(tol, max_len, n):
    """``tol`` floored at ``6.4 (max_len n + n^2) eps``, as every caller of
    the word search in the package floors it.  Below the floor a plain scan
    stops at gaps that rounding alone opens, such as ``tr(T T*)`` against
    ``tr(T* T)`` (3.8e-17 over a threshold of 0)."""
    return max(tol, 6.4 * (max_len * n + n * n) * EPS)


def word_class(word):
    """All rotations of a word of letters and of its reversal."""
    rotations = {word[k:] + word[:k] for k in range(len(word))}
    return rotations, {w[::-1] for w in rotations}


def class_codes_by_strings(length):
    """The least word of every class of ``length`` letters with as many
    ``T`` as ``T*`` whose reversal is no rotation of itself, as codes, by
    brute force over strings."""
    kept = []
    for word in map("".join, itertools.product("01", repeat=length)):
        rotations, reversals = word_class(word)
        if 2 * word.count("1") != length:
            continue
        if rotations != reversals and word == min(rotations | reversals):
            kept.append(int(word, 2))
    return kept


def test_word_classes_match_a_brute_force_over_strings():
    # the search's words are the least words of the classes up to 8 letters,
    # by length, then by code (T < T*)
    words = [
        tuple("T*" if bit == "1" else "T" for bit in format(code, f"0{length}b"))
        for length in range(1, 9)
        for code in class_codes_by_strings(length)
    ]
    assert words == list(_WORDS)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TREE_WORD_KINDS), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_a_word_class_shares_one_gap_up_to_rounding(kind, seed, length):
    # a trace does not change when its word is rotated: the pair of a word
    # whose reversal is one of its rotations has an exact gap of 0, and the
    # words of any other class share one exact gap.  The sequential
    # evaluator rounds each gap by less than 5 (L n + n^2) eps ||T||_F^L,
    # under the floored threshold, so skipping those words is exact
    m = word_case(kind, seed)
    n = m.shape[0]
    scale = max(1.0, float(np.linalg.norm(m)) ** length)
    rounding = 5.0 * (length * n + n * n) * EPS * scale
    threshold = 10.0 * floored_word_tol(0.0, length, n) * scale
    assert 2.0 * rounding < threshold
    gaps = {
        word: abs(word_value(m, word) - word_value(m, word[::-1]))
        for word in itertools.product(("T", "T*"), repeat=length)
    }
    for word, gap in gaps.items():
        rotations, reversals = word_class(word)
        if rotations == reversals:
            assert gap <= rounding
        else:
            assert abs(gap - gaps[min(rotations | reversals)]) <= 2.0 * rounding


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(TREE_WORD_KINDS),
    st.integers(0, 2**32 - 1),
    st.sampled_from(WORD_TOLS),
)
def test_word_trace_screen_matches_sequential_search(kind, seed, tol):
    m = word_case(kind, seed)
    tol = floored_word_tol(tol, 8, m.shape[0])
    got = word_trace_obstruction(m, tol=tol)
    want = sequential_word_trace_obstruction(m, max_len=8, tol=tol)
    assert bitwise(got) == bitwise(want)


@pytest.mark.parametrize("shift", [1.0 - 1e-12, 1.0, 1.0 + 1e-12])
@pytest.mark.parametrize("seed", range(6))
def test_word_trace_screen_at_the_threshold(seed, shift):
    # put the threshold within 1e-12 of a witness's margin, where the gaps of
    # the words of its class can fall on either side of it
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_vertices=10)
    m = build_shift(tree, random_weights(rng, tree)).matrix
    if seed % 2:
        m = np.where(m != 0, m + 1e-3 * random_complex(rng, m.shape), 0.0)
    witness = sequential_word_trace_obstruction(m)
    assert witness is not None
    length = len(witness["word"])
    scale = max(1.0, float(np.linalg.norm(m)) ** length)
    tol = witness["margin"] * shift / (10.0 * scale)
    assert tol >= floored_word_tol(0.0, 8, m.shape[0])
    got = word_trace_obstruction(m, tol=tol)
    if shift != 1.0:
        want = sequential_word_trace_obstruction(m, tol=tol)
        assert bitwise(got) == bitwise(want)
    if shift < 1.0:
        assert got["word"] == witness["word"]
    if shift == 1.0 and got is not None:
        # at an exact tie the plain scan returns whichever word of the class
        # rounding puts over the threshold; the search evaluates the least
        # word of each class, and its witness replays
        word = tuple(got["word"])
        rotations, reversals = word_class(word)
        assert word == min(rotations | reversals) and rotations != reversals
        trace, trace_reversed = word_value(m, word), word_value(m, word[::-1])
        assert got["trace"] == [trace.real, trace.imag]
        assert got["trace_reversed"] == [trace_reversed.real, trace_reversed.imag]
        assert got["margin"] == abs(trace - trace_reversed) > got["threshold"]


def test_word_replay_of_an_overflowing_trace_is_nan_not_an_error():
    # the trace of T T* is inf - inf = NaN here; Python's abs of that NaN
    # raised OverflowError after any earlier caught overflow in the process
    m = np.array([[0.0, 0.0], [1e200, 0.0]])
    witness = {"kind": "word_trace", "witness": {"word": ["T", "T*"]}}
    with pytest.raises(OverflowError):
        10.0**400
    with np.errstate(over="ignore", invalid="ignore"):
        held, margin = reevaluate_obstruction(m, witness)
    assert held is False and math.isnan(margin)


def test_word_stage_survives_overflowing_powers():
    # ||T||_F^L overflows from L = 4: those thresholds are inf, not an error
    tree = generate_two_branch(1, 2)
    weights = {v: 1.0 for v in tree.nonroot_vertices()}
    weights["1,1"] = 1e100
    s = build_shift(tree, weights)
    assert decide_cs(s).kind in ("cs", "not_cs", "undetermined")
    got = word_trace_obstruction(s.matrix)
    assert bitwise(got) == bitwise(sequential_word_trace_obstruction(s.matrix))
    ok, _margin = reevaluate_obstruction(
        s, {"kind": "word_trace", "witness": {"word": ["T", "T", "T*", "T*"]}}
    )
    assert not ok


def sylvester_case(kind: str, seed: int) -> np.ndarray:
    """Real inputs of the solve, which the decider runs on ``R``, real: the
    ``|T|`` of a tree shift, with a zero weight, all-ones or as a direct sum
    at two scales, and a raw forest with its vertices in random order."""
    rng = np.random.default_rng(seed)
    if kind == "forest":
        n = int(rng.integers(2, 9))
        parent = np.array([int(rng.integers(-1, v)) for v in range(n)])
        has, perm = np.flatnonzero(parent >= 0), rng.permutation(n)
        m = np.zeros((n, n))
        m[perm[has], perm[parent[has]]] = rng.uniform(0.5, 2.0, has.size)
        return m
    if kind.startswith("ones"):
        tree = generate_two_branch(
            *{"ones25": (2, 5), "ones33": (3, 3), "ones36": (3, 6)}[kind]
        )
        return np.abs(build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()}).matrix)
    if kind == "split":
        # a direct sum whose second summand lies below the global rank cut
        # but not below a cut taken relative to its own blocks
        big, small = (sylvester_case("tree", s) for s in rng.integers(2**32, size=2))
        m = np.zeros((len(big) + len(small),) * 2)
        m[: len(big), : len(big)] = big
        m[len(big):, len(big):] = 1e-11 * small
        return m
    tree = random_tree(rng, max_vertices=12)
    weights = random_weights(rng, tree)
    if kind == "tree_zero":
        labels = sorted(weights)
        weights[labels[int(rng.integers(len(labels)))]] = 0.0
    return np.abs(build_shift(tree, weights).matrix)


def null_projector(basis: np.ndarray) -> np.ndarray:
    flat = basis.reshape(basis.shape[0], basis.shape[1] * basis.shape[2])
    return flat.T @ flat.conj()


def solved_basis(m: np.ndarray, rtol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """The solver's basis of ``W`` of the real forest shift ``m``, scattered
    with unit coefficients, and its singular values."""
    dim, sigma, null = _sylvester_nullspace(_forest(m), rtol)
    return _scatter(null, np.eye(dim)), sigma


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        ["tree", "tree_zero", "split", "ones25", "ones33", "ones36", "forest"]
    ),
    st.integers(0, 2**32 - 1),
)
def test_block_joint_solve_matches_dense_reference(kind, seed):
    m = sylvester_case(kind, seed)
    space, sigma = solved_basis(m)
    ref, ref_sigma = dense_joint_sylvester_nullspace(m, 1e-10)
    assert space.shape == ref.shape
    assert sigma.shape == ref_sigma.shape
    assert sigma[0] == pytest.approx(ref_sigma[0], rel=1e-12, abs=0.0)
    if ref.shape[0] == 0:
        assert sigma[-1] == pytest.approx(ref_sigma[-1], rel=1e-12, abs=0.0)
    assert np.abs(null_projector(space) - null_projector(ref)).max() <= 1e-10


def bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def solver_case(kind: str, seed: int) -> np.ndarray:
    """Real inputs of the stacked solver: the ``|T|`` of a tree shift, with
    random weights, with a zero weight or all-ones, and a raw forest."""
    rng = np.random.default_rng(seed)
    if kind == "ones":
        tree = random_tree(rng, max_vertices=12)
        return np.abs(build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()}).matrix)
    return sylvester_case(kind, seed)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["tree", "tree_zero", "ones", "forest"]), st.integers(0, 2**32 - 1))
def test_stacked_solve_matches_the_per_block_reference(kind, seed):
    # bit for bit the singular values and null vectors of one SVD per block
    m = solver_case(kind, seed)
    dim, sigma, (_n, free, blocks) = _sylvester_nullspace(_forest(m), 1e-10)
    ref_dim, ref_sigma, ref_free, ref_blocks = reference_sylvester_nullspace(m, 1e-10)
    assert dim == ref_dim
    assert bits(sigma) == bits(ref_sigma)
    assert bits(free) == bits(ref_free)
    assert len(blocks) == len(ref_blocks)
    for (unk, vectors), (ref_unk, ref_vectors) in zip(blocks, ref_blocks):
        assert bits(unk) == bits(ref_unk)
        assert bits(vectors) == bits(ref_vectors)


def test_joint_space_never_forms_the_dense_basis():
    # all-ones binary kappa = 6: n = 127 and dim W = 715, so a dense
    # (dim W, n, n) basis alone would take dim n^2 8 bytes
    tree = generate_binary(6)
    m = build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()}).matrix
    work = np.abs(m)
    forest = _forest(work)
    tracemalloc.start()
    try:
        polar, witness, _excluded = _joint_space(forest, 1e-10, 0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim, n = witness["dim"], work.shape[0]
    assert (dim, n) == (715, 127) and polar is not None
    assert peak < dim * n * n * 8


def solution_bits(m: np.ndarray) -> tuple:
    dim, sigma, (_n, free, blocks) = _sylvester_nullspace(_forest(m), 1e-10)
    return dim, bits(sigma), bits(free), [(bits(u), bits(v)) for u, v in blocks]


def plan_case(kind: str, seed: int) -> np.ndarray:
    """Real inputs of the planned solve: a binary tree with twin subtrees,
    as ``|T|`` and as its reduction ``R``; a tree shift's ``|T|``; a raw
    forest; one edge; and the zero matrix, whose system has no equation."""
    rng = np.random.default_rng(seed)
    if kind.startswith("twins"):
        kappa = int(rng.integers(2, 4))
        w = sample_binary_weights(kappa, rng, satisfying=True).to_assignment()
        m = np.abs(build_shift(generate_binary(kappa), w).matrix)
        return forest_matrix(twin_reduction(_forest(m))) if kind == "twins_reduced" else m
    if kind in ("tree", "forest"):
        return sylvester_case(kind, seed)
    if kind == "edge":
        return np.array([[0.0, 0.0], [rng.uniform(0.5, 2.0), 0.0]])
    return np.zeros((int(rng.integers(1, 6)),) * 2)


PLAN_CASES = ["twins", "twins_reduced", "tree", "forest", "edge", "zero"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PLAN_CASES), st.integers(0, 2**32 - 1))
def test_a_warm_plan_solves_bit_for_bit_as_a_cold_one(kind, seed):
    # the plan holds no value: a plan built for other weights on the same
    # parents gives the solution of a fresh plan, bit for bit
    m = plan_case(kind, seed)
    other = np.where(m != 0, 2.0 * m + 1.0, 0.0).astype(m.dtype)
    assert np.array_equal(_forest(other).parent, _forest(m).parent)
    cold = []
    for a in (m, other):
        decider._plan.cache_clear()
        cold.append(solution_bits(a))
    assert [solution_bits(a) for a in (m, other)] == cold
    assert decider._plan.cache_info()[:2] == (2, 1)  # (hits, misses)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PLAN_CASES), st.integers(0, 2**32 - 1))
def test_the_parents_fix_the_pattern_the_plan_solves(kind, seed):
    # the plan is keyed on the parents alone: the nonzeros of each forest
    # the solve takes, that of |T| and its twin reduction, are its edges
    m = plan_case(kind, seed)
    forest = _forest(m)
    assert np.array_equal(forest_matrix(forest), m)
    for tree in (forest, twin_reduction(forest)):
        edges = {(v, p) for v, p in enumerate(tree.parent.tolist()) if p >= 0}
        assert set(zip(*(a.tolist() for a in np.nonzero(forest_matrix(tree))))) == edges


def fork(a, b, c, d):
    """The shift of the tree 0 -> 1 -> 2, 0 -> 3 -> 4 with edge weights
    ``a, b, c, d``."""
    m = np.zeros((5, 5))
    m[1, 0], m[2, 1], m[3, 0], m[4, 3] = a, b, c, d
    return m


def test_one_pattern_decides_cs_and_not_cs_in_either_order():
    # both reach the solve on the unreduced tree, so they share one plan:
    # the first is cs (no twins by one ulp), the second's W is {0}
    c = math.sqrt(5.0)
    pair = [fork(1.0, c, 2.0, np.nextafter(c, 3.0)), 1e-8 * fork(1.0, 0.3, 2.0, 1.7)]
    docs = []
    for order in (pair, pair[::-1]):
        decider._plan.cache_clear()
        verdicts = [decide_cs(m) for m in order]
        assert decider._plan.cache_info()[:2] == (1, 1)
        docs.append([dump_json(v.to_doc()) for v in verdicts])
        for m, v in zip(order, verdicts):
            if v.kind == "cs":
                assert verify_c_symmetry(m, v.certificate).passed
            else:
                assert v.obstruction["kind"] == "structure"
                assert reevaluate_obstruction(m, v.obstruction, v.options)[0]
    assert sorted(docs[0]) == sorted(docs[1])
    assert sorted(json.loads(d)["verdict"] for d in docs[0]) == ["cs", "not_cs"]


def test_plans_and_forests_are_read_only_and_bounded():
    m = plan_case("twins", 0)
    parent, levels, height, _weights = _forest(m)
    plan = decider._plan(parent.tobytes())
    arrays = [a for a in plan if isinstance(a, np.ndarray)]
    arrays += [parent, *levels, height]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        plan.src[0] = 0
    assert decider._plan.cache_info().maxsize == 8
    assert shift._pattern_forest.cache_info().maxsize == 64


def ones_line_shift():
    """An all-ones 10-vertex tree whose twin reduction is not all chains and
    whose ``W`` is one line of singular matrices; no word of up to 8 letters
    separates it."""
    edges = ((0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (0, 6), (2, 7), (3, 8), (4, 9))
    tree = DirectedTree(
        vertices=tuple(str(v) for v in range(10)),
        edges=tuple((str(p), str(c)) for p, c in edges),
        root="0",
    )
    return build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()})


def test_a_structure_replay_reuses_the_plan_of_its_verdict():
    # the all-ones (2, 5) tree reduces to chains and never reaches the solve
    tree, weights = ones_two_branch(2, 5)
    s = build_shift(tree, {v: float(w) for v, w in weights.items()})
    verdict = decide_cs(s)
    assert verdict.obstruction["kind"] == "chain_reversal"
    assert reevaluate_obstruction(s, verdict.obstruction, verdict.options)[0]
    s = ones_line_shift()
    decider._plan.cache_clear()
    verdict = decide_cs(s)
    assert verdict.obstruction["kind"] == "structure"
    assert reevaluate_obstruction(s, verdict.obstruction, verdict.options)[0]
    assert decider._plan.cache_info()[:2] == (1, 1)


def test_polar_factor_survives_gesdd_nonconvergence():
    # LAPACK gesdd raises "SVD did not converge" on this 27x27 matrix, whose
    # singular values are tightly clustered in [0.855, 1.154], when OpenBLAS
    # runs on one thread.  It came from a mirror-violating (6, 10) two-branch
    # tree during the unitary search.
    script = (
        "import sys, numpy as np\n"
        "from treeshift.decider import _polar_factor\n"
        "a = np.load(sys.argv[1])\n"
        "p, _s = _polar_factor(a)\n"
        "h = p.conj().T @ a\n"
        "print(np.linalg.norm(p @ p.conj().T - np.eye(a.shape[0])),"
        " np.linalg.norm(h - h.conj().T) / np.linalg.norm(a))\n"
    )
    src = str(Path(treeshift.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(DATA / "polar_gesdd_nonconvergence.npy")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    unitary, hermitian = (float(x) for x in run.stdout.split())
    assert unitary <= 1e-12
    assert hermitian <= 1e-12


def test_unitary_search_identity_direction():
    n = 2
    space = [np.eye(n, dtype=complex) / np.sqrt(n)]
    found = unitary_search(space, seed=0)
    assert found is not None
    # the only unitaries in the span are unimodular multiples of I
    off = found - np.diag(np.diag(found))
    assert np.linalg.norm(off) <= 1e-8
    assert abs(abs(found[0, 0]) - 1.0) <= 1e-8
    assert abs(found[0, 0] - found[1, 1]) <= 1e-8


def test_unitary_search_finds_exchange():
    t = build_shift(generate_path(2), {"1": 1.0})
    space, _sigma = dense_sylvester_nullspace(t.matrix, 1e-10)
    found = unitary_search(space, seed=0)
    assert found is not None
    assert np.linalg.norm(found @ found.conj().T - np.eye(2)) <= 1e-8
    assert np.linalg.norm(found - found.T) <= 1e-8
    assert np.linalg.norm(t.matrix @ found - found @ t.matrix.T) <= 1e-8


def test_unitary_search_empty_on_skew_space():
    # no unitary lies in the span of a rank-one symmetric projector direction
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    assert unitary_search([e11 * 0.0], seed=0) is None
    t = path3_shift(1.0, 2.0)
    space, _sigma = dense_sylvester_nullspace(t.matrix, 1e-10)
    assert unitary_search(space, seed=0) is None


def test_decide_cs_branching_example(y_shift):
    verdict = decide_cs(y_shift)
    assert verdict.kind == "cs"
    assert verdict.certificate is not None
    assert verdict.residuals["intertwining"] <= 1e-10
    report = verify_c_symmetry(y_shift, verdict.certificate)
    assert report.passed


def test_decide_cs_trunked_branching_not_cs(trunked_y_shift):
    verdict = decide_cs(trunked_y_shift)
    assert verdict.kind == "not_cs"
    assert verdict.obstruction["kind"] == "word_trace"
    witness = verdict.obstruction["witness"]
    assert witness["word"] == ["T", "T", "T*", "T", "T*", "T*"]
    trace = complex(*witness["trace"])
    trace_rev = complex(*witness["trace_reversed"])
    assert trace == pytest.approx(5.0, abs=1e-12)
    assert trace_rev == pytest.approx(4.0, abs=1e-12)


def test_decide_cs_weighted_path_not_cs():
    # a path is one chain, decided by its reversal before any word; the
    # word screen separates it as well
    s = path3_shift(1.0, 2.0)
    verdict = decide_cs(s)
    assert verdict.kind == "not_cs"
    assert verdict.obstruction == {
        "kind": "chain_reversal",
        "witness": {"weights": [1.0, 2.0], "gap": 0.5, "threshold": 1e3 * 1e-10},
    }
    assert verdict.residuals == {"witness_margin": 0.5}
    word = word_trace_obstruction(s.matrix)
    assert reevaluate_obstruction(s, {"kind": "word_trace", "witness": word})[0]


def test_decide_cs_equal_weight_path_cs():
    verdict = decide_cs(path3_shift(1.0, 1.0))
    assert verdict.kind == "cs"


def test_decide_cs_binary_equal_weights():
    tree = generate_binary(2)
    s = build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()})
    verdict = decide_cs(s)
    assert verdict.kind == "cs"
    assert verify_c_symmetry(s, verdict.certificate).passed


def test_decide_cs_one_by_one():
    verdict = decide_cs(np.zeros((1, 1), dtype=complex))
    assert verdict.kind == "cs"


def test_decide_cs_deterministic(trunked_y_shift, y_shift):
    for s in (trunked_y_shift, y_shift):
        first = dump_json(decide_cs(s).to_doc())
        second = dump_json(decide_cs(s).to_doc())
        assert first == second


def test_decide_cs_gauge_invariant(rng):
    tree = generate_path(4)
    weights = {
        v: complex(rng.standard_normal(), rng.standard_normal())
        for v in tree.nonroot_vertices()
    }
    s = build_shift(tree, weights)
    positive, _gauge = positivize_weights(tree, weights)
    s_pos = build_shift(tree, positive)
    assert decide_cs(s).kind == decide_cs(s_pos).kind


def phased_tree_shifts(count=30, seed=7):
    """Random trees with random phases; every third has one zero weight."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        tree = random_tree(rng, max_vertices=10)
        weights = random_weights(rng, tree)
        if rng.random() < 0.5:  # equal moduli: complex symmetric more often
            weights = {v: w / abs(w) for v, w in weights.items()}
        if k % 3 == 2:
            weights[sorted(weights)[int(rng.integers(len(weights)))]] = 0.0
        yield build_shift(tree, weights)


def test_a_shift_and_its_bare_matrix_give_the_same_report():
    # a bare matrix labels a certificate "0".."n-1"; all else is the same
    kinds = set()
    for s in phased_tree_shifts():
        doc, bare = decide_cs(s).to_doc(), decide_cs(s.matrix).to_doc()
        if doc["certificate"] is not None:
            assert doc["certificate"].pop("basis") == list(s.basis)
            assert bare["certificate"].pop("basis") == [str(i) for i in range(s.n)]
        assert dump_json(bare) == dump_json(doc)
        kinds.add(doc["verdict"])
    assert kinds == {"cs", "not_cs"}


def test_verdict_kind_does_not_depend_on_phases_or_arithmetic():
    # the phases gauge away, a zero weight included: the complex T decides
    # as the real |T| does
    for s in phased_tree_shifts():
        verdict = decide_cs(s)
        assert decide_cs(np.abs(s.matrix)).kind == verdict.kind
        if verdict.kind == "cs":
            assert verify_c_symmetry(s, verdict.certificate).passed
        else:
            ok, _margin = reevaluate_obstruction(s, verdict.obstruction)
            assert ok


def test_a_decision_reduces_once_and_reads_the_gauge_only_for_a_certificate(monkeypatch):
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)
        return call

    monkeypatch.setattr(decider, "twin_reduction", counted("reduce", twin_reduction))
    monkeypatch.setattr(decider, "tree_gauge", counted("gauge", shift.tree_gauge))
    kinds = set()
    for s in phased_tree_shifts():
        calls.clear()
        verdict = decide_cs(s)
        kinds.add(verdict.kind)
        assert calls.count("reduce") == 1
        assert ("gauge" in calls) == (verdict.kind == "cs")
    assert kinds == {"cs", "not_cs"}


def test_verdict_doc_shape(y_shift):
    doc = decide_cs(y_shift).to_doc()
    assert set(doc) == {
        "verdict",
        "certificate",
        "obstruction",
        "residuals",
        "diagnostics",
        "seed",
        "options",
    }
    assert doc["verdict"] == "cs"
    assert doc["obstruction"] is None
    assert doc["certificate"]["basis"] == list(y_shift.basis)


def test_reevaluate_word_trace(trunked_y_shift):
    verdict = decide_cs(trunked_y_shift)
    ok, margin = reevaluate_obstruction(trunked_y_shift, verdict.obstruction)
    assert ok
    assert margin == pytest.approx(1.0, abs=1e-12)


def test_reevaluate_rejects_stale_witness(y_shift):
    stale = {
        "kind": "word_trace",
        "witness": {"word": ["T", "T", "T*", "T", "T*", "T*"]},
    }
    ok, margin = reevaluate_obstruction(y_shift, stale)
    assert not ok
    assert margin <= 1e-10


def test_reevaluate_unknown_kind(y_shift):
    with pytest.raises(ValueError, match="unknown obstruction"):
        reevaluate_obstruction(y_shift, {"kind": "nonsense", "witness": {}})


# no dict, a missing or unhashable kind, a missing or non-dict witness, and a
# witness without the field its kind's replay reads
MALFORMED_OBSTRUCTIONS = {
    "not_a_dict": (None, "unknown obstruction kind None"),
    "no_kind": ({"witness": {"dim": 0}}, "unknown obstruction kind None"),
    "list_kind": ({"kind": ["structure"], "witness": {"dim": 0}},
                  "unknown obstruction kind ['structure']"),
    "no_witness": ({"kind": "structure"}, "a structure witness needs the field 'dim'"),
    "list_witness": ({"kind": "structure", "witness": [0]},
                     "a structure witness needs the field 'dim'"),
    "no_word": ({"kind": "word_trace", "witness": {}},
                "a word_trace witness needs the field 'word'"),
    "no_weights": ({"kind": "chain_reversal", "witness": {"gap": 1.0}},
                   "a chain_reversal witness needs the field 'weights'"),
    "no_dim": ({"kind": "structure", "witness": {"spread": 0.0}},
               "a structure witness needs the field 'dim'"),
    # these raised TypeError, returned (False, 0.0), or, for dim "x",
    # returned (False, 1.0) after the whole solve
    "int_word": ({"kind": "word_trace", "witness": {"word": 5}},
                 "a word is a list of letters, got 5"),
    "str_word": ({"kind": "word_trace", "witness": {"word": "TT*"}},
                 "a word is a list of letters, got 'TT*'"),
    # the search emits no word over 8 letters; the length is read before
    # the letters, and a 100 000-letter word took 0.41 s to replay
    "long_word": ({"kind": "word_trace", "witness": {"word": ["T"] * 9 + ["X"]}},
                  "a word_trace witness's 'word' has 10 letters, over 8"),
    "huge_word": ({"kind": "word_trace", "witness": {"word": ["T", "T*"] * 50_000}},
                  "a word_trace witness's 'word' has 100000 letters, over 8"),
    "dict_weights": ({"kind": "chain_reversal", "witness": {"weights": {"a": 1}}},
                     "a chain_reversal witness's 'weights' is malformed: {'a': 1}"),
    "none_weights": ({"kind": "chain_reversal", "witness": {"weights": None}},
                     "a chain_reversal witness's 'weights' is malformed: None"),
    "nan_weight": ({"kind": "chain_reversal", "witness": {"weights": [1.0, math.nan]}},
                   "a chain_reversal witness's 'weights' is malformed: [1.0, nan]"),
    "bool_weight": ({"kind": "chain_reversal", "witness": {"weights": [True]}},
                    "a chain_reversal witness's 'weights' is malformed: [True]"),
    "str_dim": ({"kind": "structure", "witness": {"dim": "x"}},
                "a structure witness's 'dim' is malformed: 'x'"),
    "bool_dim": ({"kind": "structure", "witness": {"dim": True}},
                 "a structure witness's 'dim' is malformed: True"),
    "negative_dim": ({"kind": "structure", "witness": {"dim": -1}},
                     "a structure witness's 'dim' is malformed: -1"),
}


@pytest.mark.parametrize("case", MALFORMED_OBSTRUCTIONS)
def test_a_malformed_witness_is_refused_before_any_stage_runs(case, y_shift, monkeypatch):
    obstruction, message = MALFORMED_OBSTRUCTIONS[case]

    def refused(*_args, **_kwargs):
        raise AssertionError("no stage may run")

    for stage in ("_prepared", "_joint_space", "_sylvester_nullspace", "twin_reduction"):
        monkeypatch.setattr(decider, stage, refused)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reevaluate_obstruction(y_shift, obstruction)
    assert time.perf_counter() - started < 0.01


def test_a_chain_witness_longer_than_any_chain_is_refused_unread(monkeypatch):
    # a chain of R has at most n - 1 links: on the all-ones two-branch (1, 3)
    # tree (n = 8) n - 1 weights are read, and more are refused by their
    # count before any is; 10^6 weights took 0.46 s to return (False, 0.0)
    tree = generate_two_branch(1, 3)
    s = build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()})

    def chain(weights):
        return {"kind": "chain_reversal", "witness": {"weights": weights}}

    assert reevaluate_obstruction(s, chain([1.0] * 7)) == (False, 0.0)
    read = [1.0] * 6 + [math.nan]
    with pytest.raises(ValueError, match=re.escape(f"'weights' is malformed: {read!r}")):
        reevaluate_obstruction(s, chain(read))

    def refused(*_args, **_kwargs):
        raise AssertionError("no stage may run")

    monkeypatch.setattr(decider, "_prepared", refused)
    for count in (8, 10**6):
        weights = [math.nan] * count  # a weight that is read is malformed
        started = time.perf_counter()
        with pytest.raises(
            ValueError,
            match=f"^a chain_reversal witness's 'weights' has {count} weights, over 7$",
        ):
            reevaluate_obstruction(s, chain(weights))
        assert time.perf_counter() - started < 0.01


@pytest.mark.parametrize("bad", ["X", "t", "T**", None, ["T"]])
def test_replayed_word_names_a_bad_letter(y_shift, bad):
    word = ["T", bad, "T*"]
    match = f"word letter {bad!r} is neither"
    with pytest.raises(ValueError, match=re.escape(match)):
        word_value(y_shift.matrix, word)
    witness = {"kind": "word_trace", "witness": {"word": word}}
    with pytest.raises(ValueError, match=re.escape(match)):
        reevaluate_obstruction(y_shift, witness)


@pytest.mark.parametrize("word", [5, "TT*", None])
def test_a_word_that_is_no_list_is_refused(y_shift, word):
    # word_value(m, 5) raised TypeError, and a string was read letter by letter
    with pytest.raises(ValueError, match=f"^a word is a list of letters, got {re.escape(repr(word))}$"):
        word_value(y_shift.matrix, word)


RANK_CUTS_BELOW_NOISE = (1e-10, 1e-17, 0.0)


def y_matrix(p):
    """Y(p + 1, p): a root with arms of ``p + 1`` and ``p`` edges, every
    weight 1 but the last of the long arm, which is sqrt 2."""
    m = np.zeros((2 * p + 2, 2 * p + 2))
    for arm in ([0, *range(1, p + 2)], [0, *range(p + 2, 2 * p + 2)]):
        m[arm[1:], arm[:-1]] = 1.0
    m[p + 1, p] = SQRT2
    return m


def complex_symmetric_matrices():
    # tree shifts that are cs through the solve of W, none by the chains
    c = math.sqrt(5.0)
    return [y_matrix(p) for p in range(1, 7)] + [fork(1.0, c, 2.0, np.nextafter(c, 3.0))]


def test_complex_symmetric_matrices_never_not_cs_at_any_rank_cut(monkeypatch):
    # these are cs, so no rank cut, however far below the rounding noise,
    # may turn one into a not_cs verdict
    for rank_rtol in RANK_CUTS_BELOW_NOISE:
        monkeypatch.setattr(decider, "_RANK_RTOL", rank_rtol)
        for i, t in enumerate(complex_symmetric_matrices()):
            verdict = decide_cs(t)
            assert verdict.kind != "not_cs", (rank_rtol, i, verdict.obstruction)
            if verdict.kind == "cs":
                assert verify_c_symmetry(t, verdict.certificate).passed


def test_complex_symmetric_matrices_certified_below_the_noise_floor(monkeypatch):
    # the rank cut is floored at the rounding noise, so the invertible
    # elements stay in W and the polar factor still certifies
    for rank_rtol in (1e-17, 0.0):
        monkeypatch.setattr(decider, "_RANK_RTOL", rank_rtol)
        for i, t in enumerate(complex_symmetric_matrices()):
            verdict = decide_cs(t)
            assert verdict.kind == "cs", (rank_rtol, i)
            assert verify_c_symmetry(t, verdict.certificate).passed


@pytest.mark.parametrize("rank_rtol", [1e-14, 1e-16])
def test_not_cs_witnesses_replay_under_tight_rank_cuts(rank_rtol, monkeypatch):
    # a rank cut near the rounding noise must not yield a witness that fails
    # to replay from the matrix; at 1e-8 the structure stage decides most
    monkeypatch.setattr(decider, "_RANK_RTOL", rank_rtol)
    replayed = Counter()
    for k, m in enumerate(random_tree_matrices()):
        for t in (m, 1e-8 * m):
            verdict = decide_cs(t)
            if verdict.kind == "not_cs":
                ok, margin = reevaluate_obstruction(t, verdict.obstruction, verdict.options)
                assert ok, (k, verdict.obstruction)
                assert margin == verdict.residuals["witness_margin"]
                replayed[verdict.obstruction["kind"]] += 1
    assert set(replayed) == {"chain_reversal", "word_trace", "structure"}
    assert sum(replayed.values()) >= 92


# sha256 of the reports and replays of the inputs that reach the solve of W:
# random trees at scale 1e-8 and the polar-path Y(p + 1, p).  A change that
# moves these bytes on purpose updates the pin and says so
SOLVE_PATH_DIGEST = "968231bb71a860863ccab52280041327498ad23ba5428aa8f45322237d3daf39"


def test_solve_path_reports_are_pinned(monkeypatch):
    solved = []
    monkeypatch.setattr(
        decider, "_joint_space", lambda *args: solved.append(1) or _joint_space(*args)
    )
    inputs = [1e-8 * m for m in random_tree_matrices(100, 5, 12)]
    inputs += [y_matrix(p) for p in range(1, 9)]
    records, reached = [], Counter()
    for m in inputs:
        before = len(solved)
        verdict = decide_cs(m)
        records.append(dump_json(verdict.to_doc()))
        if len(solved) > before:
            reached[(verdict.obstruction or {}).get("kind", verdict.kind)] += 1
        if verdict.kind == "not_cs":
            records.append(repr(reevaluate_obstruction(m, verdict.obstruction, verdict.options)))
    assert reached == {"structure": 62, "undetermined": 21, "cs": 8}
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == SOLVE_PATH_DIGEST


def ones_two_branch(kappa, theta, bump=None):
    """All-ones two-branch tree and its rational weights, one optionally
    changed to ``bump = (vertex, value)``."""
    tree = generate_two_branch(kappa, theta)
    weights = {v: Fraction(1) for v in tree.nonroot_vertices()}
    if bump is not None:
        weights[bump[0]] = Fraction(bump[1])
    return tree, weights


# no word of up to 8 letters separates these; each W is one singular line
STRUCTURE_CASES = [(3, 3, None), (2, 4, None), (2, 5, None), (2, 4, ("1,1", 2))]


@pytest.mark.parametrize("kappa, theta, bump", STRUCTURE_CASES)
def test_structure_witness_matches_exact_rational_oracle(kappa, theta, bump):
    tree, weights = ones_two_branch(kappa, theta, bump)
    exact = exact_joint_sylvester_space(tree, weights)
    assert len(exact) == 1
    element = exact[0]
    assert exact_rank(element) < tree.n
    s = build_shift(tree, {v: float(w) for v, w in weights.items()})
    verdict = decide_cs(s)
    assert verdict.kind == "not_cs"
    # R is all chains, so the chain decision settles the tree before the
    # solve; the solve of W on R still excludes a certificate
    assert verdict.obstruction["kind"] == "chain_reversal"
    assert reevaluate_obstruction(s, verdict.obstruction)[0]
    witness = structure_obstruction(s.matrix)["witness"]
    assert witness["dim"] == len(exact) == 1
    assert witness["spread"] <= 1e-12  # the exact element is singular
    # the computed element spans the exact line and has its rank
    space, _sigma = solved_basis(np.abs(s.matrix))
    b = np.array(element, dtype=float)
    assert abs(np.vdot(b, space[0])) / np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
    assert numerical_rank(space[0]) == exact_rank(element)


def random_tree_matrices(count=60, seed=5, max_vertices=10):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        tree = random_tree(rng, max_vertices=max_vertices)
        mats.append(build_shift(tree, random_weights(rng, tree)).matrix)
    return mats


def structure_case_matrices():
    """The ``STRUCTURE_CASES`` as float matrices."""
    for kappa, theta, bump in STRUCTURE_CASES:
        tree, weights = ones_two_branch(kappa, theta, bump)
        yield build_shift(tree, {v: float(w) for v, w in weights.items()}).matrix


def structure_witnesses():
    # all-ones and bumped two-branch trees at scale 1, and random trees at
    # 1e-8, where no word gap clears the threshold's absolute floor
    yield from structure_case_matrices()
    for m in random_tree_matrices():
        yield 1e-8 * m


def reduction(m):
    """The twin reduction of ``|m|``, as :func:`decide_cs` reads it."""
    return twin_reduction(_forest(np.abs(m)))


def structure_obstruction(m):
    """The structure witness of the solve of ``W`` on the twin reduction of
    ``m``, which :func:`decide_cs` reaches when the chain decision does not
    settle ``m``; ``None`` when ``W`` does not exclude a certificate."""
    _work, red = _prepared(_forest(m), reduce=True)
    _polar, witness, excluded = _joint_space(red, 1e-10, 0)
    return {"kind": "structure", "witness": witness} if excluded else None


def test_structure_witnesses_replay_and_fail_on_a_cs_matrix():
    dims, kinds = set(), set()
    for m in structure_witnesses():
        verdict = decide_cs(m)
        if verdict.kind != "not_cs":
            continue
        kind = verdict.obstruction["kind"]
        kinds.add(kind)
        ok, margin = reevaluate_obstruction(m, verdict.obstruction, verdict.options)
        assert ok and math.isfinite(margin)
        assert margin == verdict.residuals["witness_margin"]
        # a reduction to chains is decided before the solve, whose witness
        # is replayed directly
        obstruction = verdict.obstruction if kind == "structure" else structure_obstruction(m)
        assert kind in ("structure", "chain_reversal") and obstruction is not None
        dims.add(obstruction["witness"]["dim"])
        ok, margin = reevaluate_obstruction(m, obstruction)
        assert ok and margin == 1.0 - obstruction["witness"]["spread"]
        # the equal-weight path of the same size is complex symmetric
        path = generate_path(m.shape[0])
        cs = build_shift(path, {v: 1.0 for v in path.nonroot_vertices()})
        for witness in (verdict.obstruction, obstruction):
            ok, margin = reevaluate_obstruction(cs, witness, verdict.options)
            assert not ok and math.isfinite(margin)
    assert dims == {0, 1}
    assert kinds == {"structure", "chain_reversal"}


def test_no_witness_and_no_replay_reads_the_gauge(monkeypatch, trunked_y_shift):
    # the gauge only carries a certificate back, so a not_cs verdict of each
    # kind and its replay never read it; a word_trace replay reduces nothing
    picked = {}
    for m in [trunked_y_shift.matrix, *structure_witnesses()]:
        verdict = decide_cs(m)
        if verdict.kind == "not_cs":
            picked.setdefault(verdict.obstruction["kind"], (m, verdict))
    assert set(picked) == {"chain_reversal", "word_trace", "structure"}

    def refused(*_args):
        raise AssertionError("not to be called")

    monkeypatch.setattr(decider, "tree_gauge", refused)
    for kind, (m, verdict) in picked.items():
        assert dump_json(decide_cs(m).to_doc()) == dump_json(verdict.to_doc())
        with monkeypatch.context() as patch:
            if kind == "word_trace":
                patch.setattr(decider, "twin_reduction", refused)
            ok, margin = reevaluate_obstruction(m, verdict.obstruction, verdict.options)
        assert ok and margin == verdict.residuals["witness_margin"]


SCALES = (1e-150, 1e-8, 1.0, 1e8, 1e150)


def verdict_key(verdict):
    # kind and, for a structure witness, the dimension of W
    obstruction = verdict.obstruction or {}
    return verdict.kind, obstruction.get("kind"), obstruction.get("witness", {}).get("dim")


def test_structure_verdicts_do_not_depend_on_scale():
    # at c = 1 the random trees go to the word stage first; at the other
    # scales a word gap rarely clears its threshold (an absolute floor below,
    # an overflowing power above) and the structure stage decides.  A tree
    # that reduces to chains is decided by the chain rule first (whose scale
    # invariance test_chain_verdicts_do_not_depend_on_scale checks), so there
    # the structure stage is called directly, at every scale
    for m in structure_case_matrices():
        for c in SCALES:
            assert structure_obstruction(c * m)["witness"]["dim"] == 1
    recovered = 0
    for m in random_tree_matrices():
        if _chains(reduction(m).parent) is not None:
            found = [structure_obstruction(c * m) for c in SCALES]
            if any(found):
                assert decide_cs(m).kind == "not_cs"
                assert all(found)
                assert len({o["witness"]["dim"] for o in found}) == 1
                recovered += 1
            continue
        kinds = {
            c: verdict_key(decide_cs(c * m)) for c in SCALES
        }
        structure = {k for k in kinds.values() if k[1] == "structure"}
        if structure:
            assert kinds[1.0][0] == "not_cs"
            assert len(structure) == 1
            assert all(kinds[c] in structure for c in (1e-150, 1e-8, 1e150))
            recovered += 1
        assert {k[0] for k in kinds.values()} <= {kinds[1.0][0], "undetermined"}
    # the parent of this stage returned undetermined on all of these at 1e-8
    assert recovered >= 40


def test_one_shot_certificate_exists_iff_the_search_finds_one():
    # decide_cs certifies exactly when the reference multi-start search finds
    # a unitary in the same basis of W(|T|)
    mats = [s.matrix for s in phased_tree_shifts(count=24, seed=11)]
    mats += structure_case_matrices()
    found = set()
    for m in mats:
        assert _forest(m) is not None
        space, _sigma = solved_basis(np.abs(m))
        cs = decide_cs(m).kind == "cs"
        assert cs == (unitary_search(space, seed=0) is not None)
        found.add(cs)
    assert found == {True, False}


def test_line_spread_is_that_of_the_dense_oracle_basis_vector():
    # at dim W = 1 the spread comes from the drawn element, a multiple of the
    # basis vector; it must fall on the same side of 1/2 as the spread of the
    # dense joint oracle's basis vector
    sides = set()
    for m in [s.matrix for s in phased_tree_shifts()] + list(structure_case_matrices()):
        work = np.abs(m)
        polar, witness, _excluded = _joint_space(_forest(work), 1e-10, 0)
        if witness["dim"] != 1:
            continue
        ref, _sigma = dense_joint_sylvester_nullspace(work, 1e-10)
        assert ref.shape[0] == 1 and polar is not None
        s = np.linalg.svd(ref[0], compute_uv=False)
        assert (witness["spread"] < 0.5) == (s[-1] / s[0] < 0.5)
        assert witness["spread"] == pytest.approx(s[-1] / s[0], abs=1e-8)
        sides.add(witness["spread"] < 0.5)
    assert sides == {True, False}


# paths that miss a palindrome by eps: the chain rule leaves gaps below
# 1e3 tol to the later stages, and at 1e-8 a word separates the shortest
NARROW_GAP_PATHS = {
    1e-9: ((1.0, 1.0 + 1e-9), (1.0, 2.0, 1.0 + 1e-9), (1.0, 1.0, 1.0 + 1e-9, 1.0)),
    1e-8: ((1.0, 2.0, 1.0 + 1e-8), (1.0, 1.0, 1.0 + 1e-8, 1.0)),
}


@pytest.mark.parametrize("eps", [1e-9, 1e-8])
def test_structure_stage_leaves_a_narrow_gap_undetermined(eps):
    # each path's W is {0}, but its smallest kept singular value is only
    # ~eps, under 1e3 times the cut, so W = {0} is not a witness
    for links in NARROW_GAP_PATHS[eps]:
        verdict = decide_cs(chains_matrix(links))
        assert verdict.kind == "undetermined", (links, verdict.obstruction)
        assert verdict.diagnostics["sylvester_dim"] == 0


def planted_twin_matrix(seed, base, size, copies, leaves):
    """A random tree shift with ``copies`` equal subtrees of ``size``
    vertices under one vertex, on distinct random edges, and ``leaves``
    sibling leaves under another; random weights with random phases."""
    rng = np.random.default_rng(seed)

    def weight():
        return rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())

    edges = [(int(rng.integers(0, k)), k, weight()) for k in range(1, base)]
    inner = [(int(rng.integers(0, k)), k, weight()) for k in range(1, size)]
    n = base
    host = int(rng.integers(0, base))
    for _copy in range(copies):
        edges.append((host, n, weight()))
        edges += [(n + p, n + c, w) for p, c, w in inner]
        n += size
    host = int(rng.integers(0, base))
    for _leaf in range(leaves):
        edges.append((host, n, weight()))
        n += 1
    m = np.zeros((n, n), dtype=complex)
    for p, c, w in edges:
        m[c, p] = w
    return m


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.integers(1, 6),
    size=st.integers(1, 5),
    copies=st.integers(2, 3),
    leaves=st.integers(0, 3),
)
def test_twin_reduction_is_an_orthogonal_splitting_with_the_same_w(
    seed, base, size, copies, leaves
):
    m = planted_twin_matrix(seed, base, size, copies, leaves)
    n = m.shape[0]
    assert _forest(m) is not None
    work = np.abs(m)
    red = twin_reduction(_forest(work))
    assert red.split >= copies - 1
    assert np.abs(red.q.T @ red.q - np.eye(n)).max() <= 1e-14
    assert np.abs(red.q.T @ work @ red.q - forest_matrix(red)).max() <= 1e-14
    # every edge of R has a positive weight, so its parents fix its pattern
    has = np.flatnonzero(red.parent >= 0)
    assert np.all(red.weights[has] > 0)
    dim = _sylvester_nullspace(red, 1e-10)[0]
    assert dim == _sylvester_nullspace(_forest(work), 1e-10)[0]
    assert dim == dense_joint_sylvester_nullspace(work, 1e-10)[0].shape[0]
    verdict = decide_cs(m)
    with mock.patch.object(decider, "twin_reduction", lambda _m: None):
        assert decide_cs(m).kind == verdict.kind
    if verdict.kind == "cs":
        assert verify_c_symmetry(m, verdict.certificate).passed
    elif verdict.kind == "not_cs":
        assert reevaluate_obstruction(m, verdict.obstruction, verdict.options)[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.integers(1, 6),
    size=st.integers(1, 4),
    copies=st.integers(2, 3),
    leaves=st.integers(0, 2),
    scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150, None]),
    tol=st.sampled_from([1e-10, 1e-14, 0.0]),
)
def test_graded_word_screen_finds_what_the_full_scan_finds(
    seed, base, size, copies, leaves, scale, tol
):
    # a tree shift evaluates its balanced words only.  From 1e150 products
    # overflow; scale None puts ||T||_F^2 at 2^1022, near the float range
    m = planted_twin_matrix(seed, base, size, copies, leaves)
    rng = np.random.default_rng(seed)
    has = np.flatnonzero(m.any(axis=1))
    m[rng.choice(has), :] = 0.0  # a zero weight: the tree becomes a forest
    perm = rng.permutation(m.shape[0])
    m = m[np.ix_(perm, perm)]
    m *= 2.0**511 / np.linalg.norm(m) if scale is None else scale
    assert _forest(m) is not None
    tol = floored_word_tol(tol, 8, m.shape[0])
    got = word_trace_obstruction(m, tol=tol)
    want = sequential_word_trace_obstruction(m, max_len=8, tol=tol)
    assert bitwise(got) == bitwise(want)


def test_word_screen_refuses_a_cycle_that_breaks_the_grading():
    # a loop on the root of a tree shift: every row keeps at most one
    # nonzero, and only the cycle check tells the matrix from a forest.
    # Words that use the loop an odd number of times would reach odd lengths
    # that the balanced classes skip, so the search refuses the matrix
    m = np.zeros((6, 6))
    for v, p in enumerate((0, 1, 1, 3, 2), start=1):
        m[v, p] = 1.0
    m[0, 0] = 1e-5
    with pytest.raises(ValueError, match="^not a tree shift: vertex 0 lies on a cycle$"):
        word_trace_obstruction(m)


@pytest.mark.parametrize("nudge", [False, True])
def test_twins_are_matched_on_exact_weights_only(nudge):
    # root -> a, b on edges 1 and 2, each over a leaf on edge sqrt 5: the
    # twins reduce to the palindromic chains (sqrt 5, sqrt 5) and (sqrt 5).
    # One ulp on b's leaf makes the subtrees differ, so nothing merges and W
    # is solved on the whole tree
    c = math.sqrt(5.0)
    m = np.zeros((5, 5))
    m[1, 0], m[2, 1], m[3, 0] = 1.0, c, 2.0
    m[4, 3] = np.nextafter(c, 3.0) if nudge else c
    assert twin_reduction(_forest(m)).split == (0 if nudge else 1)
    verdict = decide_cs(m)
    assert verdict.kind == "cs"
    assert verify_c_symmetry(m, verdict.certificate).passed
    assert verdict.diagnostics["sylvester_dim"] == 2
    assert (verdict.diagnostics["spread"] == 1.0) != nudge


def test_a_reduction_that_leaves_no_chain_certifies_through_the_solve():
    # the cs shift y_shift with its leaf split into sibling leaves of moduli
    # 0.6 and 0.8: R is y_shift plus an isolated vertex, no chain, so W is
    # solved on R and the polar factor goes back through Q and the phases
    m = np.zeros((5, 5), dtype=complex)
    m[1, 0], m[2, 0], m[3, 0] = 0.6j, -0.8, np.exp(1j)
    m[4, 3] = SQRT2 * np.exp(2j)
    _work, red = _prepared(_forest(m), reduce=True)
    assert red.split == 1 and _chains(red.parent) is None
    assert _chain_decision(red, 1e-10) is None
    verdict = decide_cs(m)
    assert verdict.kind == "cs"
    assert verdict.diagnostics["spread"] < 1.0  # a random element, not a flip
    assert verify_c_symmetry(m, verdict.certificate).passed


@pytest.mark.parametrize(
    "tree", [generate_broom(120), generate_binary(6)], ids=["star121", "binary6"]
)
def test_trees_that_reduce_to_palindromic_chains_solve_nothing(tree, monkeypatch):
    # both reduce to chains of equal weights, so the certificate is the
    # direct sum of flips and W is never solved
    calls = []

    def counted(*args):
        calls.append(args)
        return _sylvester_nullspace(*args)

    monkeypatch.setattr(decider, "_sylvester_nullspace", counted)
    s = build_shift(tree, {v: 1.0 for v in tree.nonroot_vertices()})
    verdict = decide_cs(s)
    assert verdict.kind == "cs"
    assert verify_c_symmetry(s, verdict.certificate).passed
    assert not calls
    # dim W counted from the chains: the star has 119 isolated leaves and
    # one edge, 119 * 120 / 2 + 1
    assert verdict.diagnostics["sylvester_dim"] == {121: 7141, 127: 715}[tree.n]


def equal_weight_twin_matrix(seed, base, size, copies):
    """A random tree shift with ``copies`` equal subtrees of ``size``
    vertices planted under one vertex; every modulus is 1 or 2, with random
    phases, so that twins are common and the reduction often leaves chains
    only."""
    rng = np.random.default_rng(seed)

    def weight():
        return rng.choice((1.0, 2.0)) * np.exp(2j * np.pi * rng.random())

    edges = [(int(rng.integers(max(0, k - 2), k)), k, weight()) for k in range(1, base)]
    inner = [(k - 1, k, weight()) for k in range(1, size)]
    n, host = base, int(rng.integers(0, base))
    for _copy in range(copies):
        edges.append((host, n, weight()))
        edges += [(n + p, n + c, w) for p, c, w in inner]
        n += size
    m = np.zeros((n, n), dtype=complex)
    for p, c, w in edges:
        m[c, p] = w
    return m


def certifies(m, candidate) -> bool:
    try:
        return verify_c_symmetry(m, conjugation_from_matrix(candidate)).passed
    except ConjugationError:
        return False


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.integers(1, 5),
    size=st.integers(1, 3),
    copies=st.integers(2, 3),
)
def test_the_chain_decision_agrees_with_the_words_and_the_solve(seed, base, size, copies):
    m = equal_weight_twin_matrix(seed, base, size, copies)
    opts = DeciderOptions()
    _work, red = _prepared(_forest(m), reduce=True)
    chains = _chains(red.parent)
    decided = _chain_decision(red, _chain_tol(opts))
    if chains is None:
        assert decided is None
        return
    # on a connected tree every chain of R is a tail of the root chain, so
    # a chain decision is never left open
    links = [red.weights[chain[1:]].tolist() for chain in chains]
    assert all(a == links[0][len(links[0]) - len(a):] for a in links)
    assert decided is not None
    kind = decided[0]
    if word_trace_obstruction(np.abs(m), _word_tol(opts, m.shape[0])):
        assert kind == "not_cs"
    polar, _witness, excluded = _joint_space(red, _RANK_RTOL, opts.seed)
    if excluded:
        assert kind == "not_cs"
    elif polar is not None and certifies(forest_matrix(red), polar):
        assert kind == "cs"
    verdict = decide_cs(m)
    assert verdict.kind == kind
    if kind == "not_cs":
        assert verdict.obstruction["kind"] == "chain_reversal"
        assert reevaluate_obstruction(m, verdict.obstruction, verdict.options)[0]
    else:
        assert verify_c_symmetry(m, verdict.certificate).passed


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base=st.integers(1, 6),
    size=st.integers(1, 3),
    copies=st.integers(2, 3),
)
def test_siblings_of_different_heights_leave_a_reduction_that_is_no_chain(
    seed, base, size, copies
):
    # twins are equal subtrees, so siblings of different heights are never
    # merged, their parent keeps two children, and R is not all chains
    m = equal_weight_twin_matrix(seed, base, size, copies)
    assert m.shape[0] <= 15
    parent, _levels, height, _weights = _forest(m)
    has = parent >= 0
    if not np.array_equal(height[parent[has]], height[has] + 1):
        assert _chains(reduction(m).parent) is None


def test_chain_verdicts_do_not_depend_on_scale():
    # the chain decision compares weights relative to the largest, and the
    # reduction merges them with hypot, so no scale moves it; at 1e200 a
    # chain_reversal witness still holds, while a cs certificate's check
    # overflows there (the scale hole), so cs may turn undetermined
    cases = list(structure_case_matrices())
    for m in random_tree_matrices():
        if _chains(reduction(m).parent) is not None:
            cases.append(m)
    seen = []
    for m in cases:
        kinds = {verdict_key(decide_cs(c * m)) for c in SCALES}
        assert len(kinds) == 1
        (kind,) = kinds
        seen.append(kind[1] or kind[0])
        with np.errstate(over="ignore"):
            far = decide_cs(1e200 * m)
        if kind[0] == "not_cs":
            assert verdict_key(far) == kind == ("not_cs", "chain_reversal", None)
            assert reevaluate_obstruction(1e200 * m, far.obstruction, far.options)[0]
        else:
            assert far.kind in ("cs", "undetermined")
    # the STRUCTURE_CASES come first, each excluded by its chain's reversal
    assert seen[:len(STRUCTURE_CASES)] == ["chain_reversal"] * len(STRUCTURE_CASES)
    assert seen.count("cs") >= 10 and seen.count("chain_reversal") >= 10


def chains_matrix(*chains):
    """The raw matrix of a direct sum of chains, each given by its links,
    with a zero row at each chain's top."""
    n = sum(len(links) + 1 for links in chains)
    m = np.zeros((n, n))
    top = 0
    for links in chains:
        for k, w in enumerate(links):
            m[top + k + 1, top + k] = w
        top += len(links) + 1
    return m


def test_a_mirror_pair_of_chains_is_cs_through_the_solve():
    # S + rev(S): neither chain reads the same backwards, but each is the
    # other's reversal, so the chain decision falls through and the solve
    # of W certifies.  Only a forest can hold such a pair
    m = chains_matrix((1.0, 2.0, 3.0), (3.0, 2.0, 1.0))
    red = reduction(m)
    assert len(_chains(red.parent)) == 2
    assert _chain_decision(red, 1e-10) is None
    verdict = decide_cs(m)
    assert verdict.kind == "cs"
    assert verdict.diagnostics["spread"] < 1.0  # a random element, not a flip
    assert verify_c_symmetry(m, verdict.certificate).passed


def test_two_copies_of_a_chain_are_not_cs_by_its_reversal():
    # S + S: the reversal of S is far from both chains of its length
    m = chains_matrix((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    verdict = decide_cs(m)
    assert verdict.obstruction == {
        "kind": "chain_reversal",
        "witness": {"weights": [1.0, 2.0, 3.0], "gap": 2.0 / 3.0, "threshold": 1e3 * 1e-10},
    }
    assert reevaluate_obstruction(m, verdict.obstruction, verdict.options) == (True, 2.0 / 3.0)
    # the witness fails where the reversal is present and where the chain is
    # absent, and a matrix that is no tree shift is refused
    for other in (
        chains_matrix((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)),
        chains_matrix((1.0, 2.0, 4.0)),
    ):
        ok, margin = reevaluate_obstruction(other, verdict.obstruction, verdict.options)
        assert not ok and math.isfinite(margin)
    with pytest.raises(ValueError, match="^not a tree shift: row 0 has more than one nonzero$"):
        reevaluate_obstruction(np.ones((4, 4)), verdict.obstruction, verdict.options)


# r -> c -> {a, b}: the twin reduction merges the leaves a and b and splits
# off an isolated vertex; listed leaves first, that vertex comes before the
# witnessing chain in root order
LABEL_ORDER_EDGES = (("r", "c"), ("c", "a"), ("c", "b"))
LABEL_ORDER_WEIGHTS = {"c": 1.0, "a": SQRT2, "b": 0.5}


@pytest.mark.parametrize("vertices", [("a", "b", "r", "c"), ("r", "c", "a", "b")])
def test_an_isolated_vertex_of_r_is_skipped_by_the_chain_witness(vertices):
    s = build_shift(
        DirectedTree(vertices=vertices, edges=LABEL_ORDER_EDGES, root="r"),
        LABEL_ORDER_WEIGHTS,
    )
    verdict = decide_cs(s)
    assert verdict.obstruction == {
        "kind": "chain_reversal",
        "witness": {"weights": [1.0, 1.5], "gap": 1.0 / 3.0, "threshold": 1e3 * 1e-10},
    }
    assert reevaluate_obstruction(s, verdict.obstruction, verdict.options) == (True, 1.0 / 3.0)


def float_range_shift(name):
    # entries near the top of the float range: the solve of W scales them
    # by up to sqrt 2 and adds them, and an entry or a singular value of its
    # system overflows
    if name == "path":
        return build_shift(generate_path(3), {"1": 1.5e308, "2": 1.5e308})
    if name == "binary":
        tree = generate_binary(2)
        return build_shift(tree, dict.fromkeys(tree.nonroot_vertices(), 1e308))
    star = DirectedTree.from_edges([("r", "a"), ("r", "b")], root="r")
    return build_shift(star, {"a": 1.5e308, "b": 1.5e308})


@pytest.mark.parametrize("name", ["path", "binary", "star"])
def test_a_system_of_w_that_is_not_finite_gives_no_certificate_and_no_witness(name):
    s = float_range_shift(name)
    with np.errstate(over="ignore", invalid="ignore"):
        if name == "star":
            # the merged twin edge overflows, so there is no reduction
            assert reduction(s.matrix) is None
        assert _joint_space(_forest(np.abs(s.matrix)), 1e-10, 0) is None
        verdict = decide_cs(s)
        assert verdict.kind == "undetermined"
        assert verdict.diagnostics == {}
        witness = {"dim": 0, "spread": 0.0, "sigma_kept": 1.0, "sigma_cut": 0.0}
        replay = reevaluate_obstruction(s, {"kind": "structure", "witness": witness})
    assert replay == (False, 0.0)


def test_polar_factor_falls_back_to_qr_when_the_svd_fails(rng):
    a = random_complex(rng, (6, 6))
    direct, sigma = decider._polar_factor(a)
    svd, calls = np.linalg.svd, []

    def fails_first(*args, **kwargs):
        calls.append(args[0].shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    with mock.patch.object(np.linalg, "svd", fails_first):
        polar, s = decider._polar_factor(a)
    assert len(calls) == 2  # the failed SVD of a, then the SVD of r
    assert np.abs(polar - direct).max() <= 1e-12
    assert np.abs(s - sigma).max() <= 1e-12


def test_chain_reversal_verdicts_and_replays_need_no_dense_matrix(monkeypatch):
    # a ShiftMatrix builds its n x n matrix only on first use: with that use
    # refused, every chain_reversal verdict of the three benchmark workloads
    # at seed 1 comes out byte for byte as before, and replays alike
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import generate

    def shift_of(inst):
        doc = json.loads(inst.doc)
        return build_shift(tree_from_doc(doc["tree"]), weights_from_doc(doc["weights"]))

    picked = {}
    for workload in ("audit_mix", "binary_scale", "hard_two_branch"):
        for inst in generate(workload, 1):
            verdict = decide_cs(shift_of(inst))
            if (verdict.obstruction or {}).get("kind") == "chain_reversal":
                picked.setdefault(workload, []).append((inst, verdict))
    assert {w: len(v) for w, v in picked.items()} == {"audit_mix": 200, "hard_two_branch": 57}

    def refused(_self):
        raise AssertionError("the dense matrix is not to be built")

    monkeypatch.setattr(shift.ShiftMatrix, "matrix", property(refused))
    for cases in picked.values():
        for inst, verdict in cases:
            s = shift_of(inst)
            assert dump_json(decide_cs(s).to_doc()) == dump_json(verdict.to_doc())
            ok, margin = reevaluate_obstruction(s, verdict.obstruction, verdict.options)
            assert ok and margin == verdict.residuals["witness_margin"]
    # a cs verdict does need it, for the certificate's check
    with pytest.raises(AssertionError, match="not to be built"):
        decide_cs(shift_of(generate("binary_scale", 1)[0]))
