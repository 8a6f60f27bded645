"""JSON document helpers.

Complex scalars travel as [re, im] pairs and complex matrices as row-major
nested lists of pairs.  Floats are emitted through ``repr`` (shortest
round-trip form), so a report rebuilt from the same inputs is byte-identical.

:func:`dump_json` writes the layout of ``json.dumps(indent=2)`` itself, in
one pass: with ``indent`` set, the json module falls back to its
pure-Python encoder.  A rectangular nested list of floats, such as a
certificate matrix, is written in one join of its floats' texts with
the layout around them.  Below
:data:`_DISTINCT_GATE` floats each float goes through ``float.__repr__``;
at or above it, ``float.__repr__`` runs once per distinct float64 bit
pattern (so ``0.0`` and ``-0.0`` stay apart) and the texts are scattered
back, since a certificate repeats few values many times, unless nearly
every float is distinct, as in a long chain's weights.  Strings go
through the json module's C ``encode_basestring_ascii``.
"""

from __future__ import annotations

import cmath
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "complex_to_pair",
    "pair_to_complex",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "weights_to_doc",
    "weights_from_doc",
    "dump_json",
]


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(value) -> complex:
    """A finite complex number from a real number or an ``[re, im]`` pair
    of them, where a number is an ``int`` or a ``float``.

    Booleans are rejected although Python counts them as integers, and so
    are strings, NaN and infinite parts.
    """
    if isinstance(value, (int, float)):
        re, im = value, 0.0
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
    else:
        raise ValueError(f"expected a number or an [re, im] pair, got {value!r}")
    if isinstance(re, bool) or isinstance(im, bool):
        raise ValueError(f"expected numbers, got the boolean in {value!r}")
    if not (isinstance(re, (int, float)) and isinstance(im, (int, float))):
        raise ValueError(f"expected numbers, got {value!r}")
    try:
        z = complex(float(re), float(im))
    except OverflowError:
        raise ValueError(f"expected numbers, got {value!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"expected a finite number, got {value!r}")
    return z


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Row-major ``[re, im]`` pairs, the floats :func:`complex_to_pair` gives."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def pairs_to_matrix(rows) -> np.ndarray:
    return np.array([[pair_to_complex(z) for z in row] for row in rows], dtype=complex)


def weights_to_doc(weights: dict) -> dict:
    return {label: complex_to_pair(w) for label, w in weights.items()}


def weights_from_doc(doc: dict) -> dict[str, complex]:
    if not isinstance(doc, dict):
        raise ValueError("weights document must be an object mapping labels to values")
    weights = {}
    for label, value in doc.items():
        # an [re, im] pair of floats, the form weights_to_doc writes, is
        # read directly; any other value is checked by pair_to_complex
        if type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is float:
            z = complex(*value)
            if cmath.isfinite(z):
                weights[str(label)] = z
                continue
        try:
            weights[str(label)] = pair_to_complex(value)
        except ValueError as exc:
            raise ValueError(f"weight for vertex {label}: {exc}") from None
    return weights


# The size from which a float grid is written with one ``repr`` per distinct
# bit pattern.  On certificates the two ways cost the same at 100-130
# floats, and the distinct one saves a fifth at 160-290 and two thirds at
# 1922; on a grid whose floats all differ it costs 17% more at 256 floats
# and 7% at 1922 (one core, x86-64).  Below the gate each float is written
# directly.
_DISTINCT_GATE = 256

# The share of distinct bit patterns above which a grid at the gate or over
# is written directly after all: the scatter back costs about a sixth of a
# ``repr`` per float, so the two ways break even near 0.8 distinct (10^5
# floats: 83 ms through the distinct patterns and 68 ms directly when all
# differ, 48 against 65 ms at 0.55 distinct; one core, x86-64).
_DISTINCT_SHARE = 0.8


def _float_repr(x: float) -> str:
    text = float.__repr__(x)
    if "n" in text:  # nan, inf, -inf
        raise ValueError(f"Out of range float values are not JSON compliant: {text}")
    return text


def _grid_layout(shape: tuple[int, ...], indent: int) -> list[str]:
    """The texts around the floats of a rectangular nested list of
    ``shape`` whose opening bracket sits at ``indent``: one before each
    float, in row-major order, and one after the last.  Each level is built
    once and repeated by reference, so this costs little next to the
    floats' ``repr``."""
    inner = "\n" + " " * (indent + 2)
    head, *body, tail = _grid_layout(shape[1:], indent + 2) if len(shape) > 1 else ("", "")
    return [
        "[" + inner + head,
        *body,
        *[tail + "," + inner + head, *body] * (shape[0] - 1),
        tail + "\n" + " " * indent + "]",
    ]


def _float_grid(value: list) -> Optional[tuple[tuple[int, ...], list]]:
    """``(shape, floats)`` of a rectangular nested list of floats, the floats
    in row-major order, or ``None`` for any other list."""
    shape, level = [], [value]
    while True:
        kinds = set(map(type, level))
        if kinds != {list}:
            return (tuple(shape), level) if kinds == {float} else None
        lengths = set(map(len, level))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))


def _grid_reprs(floats: list) -> Sequence[str]:
    """``float.__repr__`` of each of ``floats``, in order, through one call
    per distinct bit pattern from :data:`_DISTINCT_GATE` floats on, unless
    over :data:`_DISTINCT_SHARE` of them are distinct; :class:`ValueError`
    names the first NaN or infinite one."""
    if len(floats) < _DISTINCT_GATE:
        reprs = tuple(map(float.__repr__, floats))
        finite = "n" not in "".join(reprs)  # nan, inf, -inf
    else:
        bits = np.fromiter(floats, float, len(floats)).view(np.int64)
        distinct, places = np.unique(bits, return_inverse=True)
        values = distinct.view(float)
        finite = bool(np.isfinite(values).all())
        if finite and values.size > _DISTINCT_SHARE * len(floats):
            reprs = tuple(map(float.__repr__, floats))
        elif finite:
            texts = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
            reprs = texts[places].tolist()
    if not finite:
        for x in floats:
            _float_repr(x)
    return reprs


def _write(value, indent: int, put) -> None:
    """Append the text of ``value``, whose first line sits at ``indent``,
    to a chunk list through its ``put``.  A module-level function: a
    nested one that calls itself is a reference cycle, which would keep
    each document's chunks alive until the next garbage collection."""
    kind = type(value)
    if kind is str:
        put(encode_basestring_ascii(value))
    elif kind is float:
        put(_float_repr(value))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is bool:
        put("true" if value else "false")
    elif value is None:
        put("null")
    elif kind is list or kind is dict:
        if not value:
            put("[]" if kind is list else "{}")
            return
        grid = _float_grid(value) if kind is list else None
        if grid is not None:
            shape, floats = grid
            text = [""] * (2 * len(floats) + 1)
            text[::2] = _grid_layout(shape, indent)
            text[1::2] = _grid_reprs(floats)
            put("".join(text))
            return
        inner = "\n" + " " * (indent + 2)
        sep = inner
        if kind is list:
            put("[")
            for item in value:
                put(sep)
                _write(item, indent + 2, put)
                sep = "," + inner
            put("\n" + " " * indent + "]")
            return
        put("{")
        for key, item in value.items():
            put(sep)
            put(encode_basestring_ascii(key))
            put(": ")
            _write(item, indent + 2, put)
            sep = "," + inner
        put("\n" + " " * indent + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """The text of ``obj`` in a fixed layout (indent 2, keys in insertion
    order); the caller writes it.

    The text is that of ``json.dumps(obj, indent=2, allow_nan=False)`` and
    a newline, byte for byte, for documents built from ``dict`` with
    ``str`` keys, ``list``, ``str``, ``int``, ``float``, ``bool`` and
    ``None``; NaN and infinite floats raise :class:`ValueError`, and any
    other type, tuples and non-string keys included, raises
    :class:`TypeError`.
    """
    chunks = []
    _write(obj, 0, chunks.append)
    chunks.append("\n")
    return "".join(chunks)
