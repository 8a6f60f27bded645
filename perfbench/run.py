#!/usr/bin/env python3
"""Time-to-verdict benchmark for treeshift.

Run from the repository root:

    python3 perfbench/run.py --workload audit_mix --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and traced in turn and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.

This launcher pins the BLAS thread count before numpy loads and imports the
package from ``src/`` of the checkout it sits in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["audit_mix", "binary_scale", "hard_two_branch"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: import the package, generate the inputs, print their digest",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treeshift" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}; run from a full checkout\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    import treeshift

    if Path(treeshift.__file__).resolve().parent != SRC / "treeshift":
        sys.stderr.write(f"error: imported treeshift from {treeshift.__file__}, not {SRC}\n")
        return 2
    if args.setup_probe:
        import treeshift.cli  # noqa: F401  (part of the measured cold start)
        from workloads import digest, generate

        print(digest(generate(args.workload, args.seed)))
        return 0

    import bench

    return bench.main(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
