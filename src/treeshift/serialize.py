"""JSON document helpers.

Complex scalars travel as [re, im] pairs and complex matrices as row-major
nested lists of pairs.  Floats are emitted through ``repr`` (shortest
round-trip form), so a report rebuilt from the same inputs is byte-identical.
"""

from __future__ import annotations

import json
from typing import IO, Optional

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
    """A finite complex number from a real number or an ``[re, im]`` pair.

    Booleans are rejected although Python counts them as integers, and so
    are NaN and infinite parts.
    """
    if isinstance(value, (int, float)):
        parts = (value, 0.0)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        parts = value
    else:
        raise ValueError(f"expected a number or an [re, im] pair, got {value!r}")
    if any(isinstance(part, bool) for part in parts):
        raise ValueError(f"expected numbers, got the boolean in {value!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected numbers, got {value!r}") from None
    if not np.isfinite(z):
        raise ValueError(f"expected a finite number, got {value!r}")
    return z


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(z) for z in row] for row in m]


def pairs_to_matrix(rows) -> np.ndarray:
    return np.array([[pair_to_complex(z) for z in row] for row in rows], dtype=complex)


def weights_to_doc(weights: dict) -> dict:
    return {label: complex_to_pair(w) for label, w in weights.items()}


def weights_from_doc(doc: dict) -> dict[str, complex]:
    if not isinstance(doc, dict):
        raise ValueError("weights document must be an object mapping labels to values")
    weights = {}
    for label, value in doc.items():
        try:
            weights[str(label)] = pair_to_complex(value)
        except ValueError as exc:
            raise ValueError(f"weight for vertex {label}: {exc}") from None
    return weights


def dump_json(obj, fp: Optional[IO[str]] = None) -> Optional[str]:
    """Serialize with a fixed layout (indent 2, keys in insertion order)."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    if fp is None:
        return text + "\n"
    fp.write(text + "\n")
    return None
