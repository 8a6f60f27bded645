import json
import math
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import KernelTable, dump_json, weights_from_doc, weights_to_doc
from treeshift.serialize import (
    _DISTINCT_GATE,
    complex_to_pair,
    matrix_to_pairs,
    pair_to_complex,
    pairs_to_matrix,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_complex_pair_basics():
    assert complex_to_pair(1 + 2j) == [1.0, 2.0]
    assert pair_to_complex([3.0, -4.0]) == 3 - 4j
    assert pair_to_complex(2.5) == 2.5 + 0j


@settings(max_examples=100, deadline=None)
@given(finite, finite)
def test_complex_pair_round_trip(re, im):
    z = complex(re, im)
    assert pair_to_complex(complex_to_pair(z)) == z


def test_pair_rejects_bad_shape():
    with pytest.raises(ValueError):
        pair_to_complex([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "value",
    [True, False, [True, 0.0], [1.0, False], math.nan, [math.nan, 0.0],
     [0.0, -math.inf], math.inf, [None, 0.0], pytest.param(10**400, id="huge-int"),
     # a JSON string is no number, inside a pair as well as bare
     "1.5", ["1.5", "0"], [" 2 ", "1e3"], [1.0, "0"], ["nan", 0.0]],
)
def test_pair_rejects_booleans_and_non_finite_parts(value):
    with pytest.raises(ValueError):
        pair_to_complex(value)


@pytest.mark.parametrize(
    "value",
    [True, [math.nan, 0.0], [1.0, math.inf], ["1.5", "0"], math.nan, math.inf, -math.inf, "1.0"],
)
def test_weights_doc_error_names_the_vertex(value):
    with pytest.raises(ValueError, match="weight for vertex 2,1"):
        weights_from_doc({"1,1": 1.0, "2,1": value})


def test_matrix_round_trip(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rows = matrix_to_pairs(m)
    assert isinstance(rows[0][0], list) and len(rows[0][0]) == 2
    back = pairs_to_matrix(rows)
    assert np.array_equal(back, m)


def test_weights_round_trip():
    w = {"1": 1.5, "2": 1 - 2j, "3": math.sqrt(2)}
    doc = weights_to_doc(w)
    back = weights_from_doc(doc)
    assert back == {k: complex(v) for k, v in w.items()}


def test_weights_doc_plain_reals_accepted():
    assert weights_from_doc({"1": 2}) == {"1": 2 + 0j}


@settings(max_examples=50, deadline=None)
@given(st.lists(finite, max_size=20))
def test_plain_real_weights_read_as_their_pairs_bit_for_bit(values):
    values += [-0.0, 0.0, 5e-324, -5e-324, 1.0]
    plain = weights_from_doc({str(k): x for k, x in enumerate(values)})
    pairs = weights_from_doc({str(k): [x, 0.0] for k, x in enumerate(values)})
    assert list(plain) == list(pairs)
    bits = [np.array(list(w.values())).view(np.int64).tolist() for w in (plain, pairs)]
    assert bits[0] == bits[1]


def test_plain_real_weights_read_no_slower_than_pairs():
    # min of 5 by timeit, which holds the garbage collector off while it
    # times, so a collection of other tests' garbage lands on neither side
    values = np.random.default_rng(0).uniform(0.5, 2.0, 20_000).tolist()
    docs = {str(k): x for k, x in enumerate(values)}, {str(k): [x, 0.0] for k, x in enumerate(values)}
    plain, pairs = (min(timeit.repeat(lambda: weights_from_doc(doc), number=1, repeat=5)) for doc in docs)
    assert plain <= pairs


def test_dump_json_peak_memory_is_a_small_multiple_of_its_text():
    # the kernel table of a path of 10^5 vertices, 9 MB of small dicts: the
    # dump holds one growing buffer, not one string per chunk
    doc = KernelTable(rows=tuple((m, m, m) for m in range(1, 100_001))).to_doc()
    tracemalloc.start()
    try:
        text = dump_json(doc)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
    assert text == json.dumps(doc, indent=2) + "\n"


def test_dump_json_deterministic_and_exact():
    doc = {"b": 1 / 3, "a": [complex_to_pair(0.1 + 0.2j)]}
    text = dump_json(doc)
    assert text == dump_json(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["b"] == 1 / 3
    # insertion order is preserved so byte comparison is meaningful
    assert text.index('"b"') < text.index('"a"')


def test_dump_json_rejects_nan():
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})


# finite floats, -0.0 and subnormals included
edge_floats = st.one_of(
    finite, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.tuples(edge_floats, edge_floats), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
)
def test_matrix_to_pairs_matches_per_entry_conversion(rows):
    m = np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=complex
    ).reshape(len(rows), len(rows))
    fast = matrix_to_pairs(m)
    slow = [[complex_to_pair(z) for z in row] for row in m]
    assert dump_json(fast) == dump_json(slow)
    flat = [x for row in fast for pair in row for x in pair]
    assert all(type(x) is float for x in flat)
    assert [x.hex() for x in flat] == [
        x.hex() for row in slow for pair in row for x in pair
    ]


def json_reference(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


json_floats = st.one_of(
    finite,
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, 0.1, 1e16, 1e-7]
    ),
)
json_ints = st.one_of(st.integers(), st.integers(-(10**300), 10**300))
json_text = st.one_of(
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é 😀", '"\\/', "\ud800", "\n\t\r\b\f"]),
)
json_scalars = st.one_of(st.none(), st.booleans(), json_ints, json_floats, json_text)


def float_grid(shape):
    grid = json_floats
    for size in reversed(shape):
        grid = st.lists(grid, min_size=size, max_size=size)
    return grid


# rectangular float lists take the writer's template path; everything else,
# ragged, empty or mixed with ints, takes the walk
float_grids = st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(float_grid)
json_documents = st.recursive(
    st.one_of(json_scalars, float_grids),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(json_text, kids, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_documents)
def test_dump_json_is_json_dumps_with_indent_2(doc):
    assert dump_json(doc) == json_reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [[1.0, 2], [3.0, 4.0]],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], []],
        [[], []],
        [[[0.5]], [[True]]],
        {"a": [[-0.0, 5e-324]], "b": {}, "c": [[1.5, 2.5]]},
        [1.0, None, 2.0],
        {"\x00é": [[1e308, -1e308], [0.1, 2.0]]},
    ],
)
def test_dump_json_matches_json_dumps_on_mixed_and_ragged_lists(doc):
    assert dump_json(doc) == json_reference(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: x,
        lambda x: {"a": 1, "b": x},
        lambda x: [[0.5, 1.5], [2.5, x]],
        lambda x: [1, [2.0, x]],
        lambda x: {"m": [[[0.0, 0.0], [x, 0.0]]]},
    ],
    ids=["top", "dict", "grid", "ragged", "pairs"],
)
def test_dump_json_rejects_non_finite_floats_anywhere(bad, place):
    doc = place(bad)
    with pytest.raises(ValueError):
        json.dumps(doc, allow_nan=False)
    with pytest.raises(ValueError):
        dump_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        (1.0, 2.0),
        {1: "a"},
        {None: 1},
        {"a": {2.5: 1}},
        {1, 2},
        1j,
        b"x",
        object(),
        np.float64(1.0),
        np.int64(3),
        [[1.0, np.float64(2.0)]],
        {"a": [1, (2, 3)]},
    ],
    ids=["tuple", "int-key", "none-key", "float-key", "set", "complex", "bytes",
         "object", "np-float", "np-int", "np-float-in-grid", "nested-tuple"],
)
def test_dump_json_rejects_types_reports_never_hold(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


# grids at or over the gate, where each distinct bit pattern is written
# once: values from a small pool, so that they repeat, with both signed
# zeros planted in every grid
GRID_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1, 0.5, -0.7071067811865476,
             1 / 3, 2.2250738585072014e-308, 1.7976931348623157e308]
large_shapes = st.sampled_from(
    [(256,), (300,), (16, 16), (12, 12, 2), (31, 31, 2), (3, 5, 7, 3)]
)


@st.composite
def large_grids(draw):
    shape = draw(large_shapes)
    size = math.prod(shape)
    flat = draw(st.lists(st.sampled_from(GRID_POOL), min_size=size, max_size=size))
    plus, minus = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    flat[plus], flat[minus] = 0.0, -0.0
    return shape, flat


def nest(shape, flat):
    return np.array(flat).reshape(shape).tolist()


@settings(max_examples=60, deadline=None)
@given(large_grids(), st.integers(0, 2))
def test_a_grid_over_the_gate_is_written_as_json_dumps_writes_it(grid, depth):
    shape, flat = grid
    assert len(flat) >= _DISTINCT_GATE
    doc = nest(shape, flat)
    for _ in range(depth):
        doc = {"certificate": {"matrix": doc, "basis": ["0"]}}
    assert dump_json(doc) == json_reference(doc)


@settings(max_examples=40, deadline=None)
@given(large_grids(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_a_grid_over_the_gate_refuses_non_finite_floats_anywhere(grid, bad, data):
    shape, flat = grid
    flat[data.draw(st.integers(0, len(flat) - 1))] = bad
    doc = {"m": nest(shape, flat)}
    with pytest.raises(ValueError):
        json.dumps(doc, allow_nan=False)
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        dump_json(doc)
