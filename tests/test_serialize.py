import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import dump_json, weights_from_doc, weights_to_doc
from treeshift.serialize import (
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
     [0.0, -math.inf], math.inf, [None, 0.0], pytest.param(10**400, id="huge-int")],
)
def test_pair_rejects_booleans_and_non_finite_parts(value):
    with pytest.raises(ValueError):
        pair_to_complex(value)


@pytest.mark.parametrize("value", [True, [math.nan, 0.0], [1.0, math.inf]])
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


def test_dump_json_writes_to_fp(tmp_path):
    path = tmp_path / "out.json"
    with open(path, "w") as fp:
        assert dump_json({"x": 1}, fp) is None
    assert json.loads(path.read_text()) == {"x": 1}
