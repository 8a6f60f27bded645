"""Command-line interface.

Subcommands wrap the library: ``check`` decides complex symmetry of a
tree+weights document, ``classify`` evaluates the printed family criteria,
``conjugate`` runs the explicit constructions, ``kernels`` prints kernel
dimension tables, ``crossval`` and ``broom`` emit audit reports, and
``generate`` produces input documents.  Every subcommand has ``--tol`` and
``--seed`` checked by :class:`DeciderOptions` before it reads any input,
whether it uses them or not.

Exit codes for ``check``: 0 = complex symmetric, 1 = not, 2 = undetermined,
3 = input error, a usage error and an input too large for memory included.
Other commands use 0 for success, 1 for a negative or infeasible outcome, 3
for input errors.  All numbers in text output are printed with 17
significant digits so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from .audit import cross_validate
from .broom import BroomSchedule, InfeasibleScheduleError, build_broom_conjugation, solve_h_sequence
from .decider import DeciderOptions, decide_cs
from .families import (
    BinaryWeights,
    FamilyConditionError,
    TwoBranchWeights,
    binary_cs_condition,
    reversal_pairing_conjugation,
    two_branch_conjugation,
    two_branch_cs_condition,
)
from .serialize import dump_json, matrix_to_pairs, weights_from_doc, weights_to_doc
from .shift import WeightError, build_shift, kernel_table
from .trees import (
    generate_binary,
    generate_broom,
    generate_path,
    generate_two_branch,
    generate_two_level_broom,
    tree_from_doc,
    tree_to_doc,
)

EXIT_CS = 0
EXIT_NOT_CS = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT_ERROR = 3


def fmt(x) -> str:
    """17 significant digits; complex rendered as re+imj."""
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{float(x):.17g}"


def _emit(args, text: str | None, doc: dict | None) -> None:
    """Write JSON to --out when given; otherwise honor --json on stdout."""
    if args.out is not None and doc is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc))
        return
    if args.json and doc is not None:
        sys.stdout.write(dump_json(doc))
        return
    if text is not None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _read_document(path: str):
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    doc = json.loads(raw)
    if not isinstance(doc, dict) or "tree" not in doc:
        raise ValueError("document must be a JSON object with a 'tree' field")
    tree = tree_from_doc(doc["tree"])
    if "weights" not in doc:
        raise ValueError("document must carry a 'weights' field")
    weights = weights_from_doc(doc["weights"])
    return tree, weights


def _parse_weight_list(text: str) -> list[complex]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty entry in weight list")
        try:
            value = complex(part)
        except ValueError:
            raise ValueError(f"cannot parse weight {part!r}")
        if not cmath.isfinite(value):
            raise ValueError(f"weight {part!r} is not finite")
        values.append(value)
    return values


def _family_weights(args) -> TwoBranchWeights | BinaryWeights:
    values = _parse_weight_list(args.weights)
    if args.family == "two-branch":
        if args.theta is None:
            raise ValueError("two-branch family needs --theta")
        # trunk then branch; TwoBranchWeights checks the ranges and counts
        return TwoBranchWeights(
            kappa=args.kappa, theta=args.theta,
            trunk=tuple(values[:args.kappa]), branch=tuple(values[args.kappa:]),
        )
    return BinaryWeights(kappa=args.kappa, levels=tuple(values))


def cmd_check(args, options: DeciderOptions) -> int:
    tree, weights = _read_document(args.input)
    s = build_shift(tree, weights)
    verdict = decide_cs(s, options)
    doc = verdict.to_doc()
    if args.dump_matrix:
        doc["matrix"] = matrix_to_pairs(s.matrix)
        doc["basis"] = list(s.basis)
    # the text is written only without --json and --out
    text = None if args.json or args.out is not None else _verdict_text(verdict)
    _emit(args, text, doc)
    if verdict.kind == "cs":
        return EXIT_CS
    if verdict.kind == "not_cs":
        return EXIT_NOT_CS
    return EXIT_UNDETERMINED


def _verdict_text(verdict) -> str:
    lines = [f"verdict: {verdict.kind}"]
    for key, value in verdict.residuals.items():
        lines.append(f"{key}: {fmt(value)}")
    if verdict.obstruction is not None:
        lines.append(f"obstruction: {verdict.obstruction['kind']}")
        witness = verdict.obstruction.get("witness", {})
        if "word" in witness:
            lines.append(f"  word: {witness['word']}")
        if "weights" in witness:
            lines.append("  weights: " + ", ".join(fmt(w) for w in witness["weights"]))
        for key in ("trace", "trace_reversed", "dim", "spread", "gap", "threshold"):
            if key in witness:
                lines.append(f"  {key}: {fmt(complex(*witness[key]) if isinstance(witness[key], list) else witness[key])}")
    return "\n".join(lines)


def cmd_classify(args, options: DeciderOptions) -> int:
    w = _family_weights(args)
    if isinstance(w, TwoBranchWeights):
        report = two_branch_cs_condition(w)
        label = "j"
    else:
        report = binary_cs_condition(w)
        label = "l"
    doc = report.to_doc()
    doc["family"] = args.family
    if report.satisfied:
        text = "satisfied"
    else:
        first = next(c for c in report.clauses if not c["holds"])
        text = f"not satisfied ({label}={first[label]})"
    if report.skipped:
        text += f" [skipped clause references: {len(report.skipped)}]"
    _emit(args, text, doc)
    return 0 if report.satisfied else 1


def cmd_conjugate(args, options: DeciderOptions) -> int:
    w = _family_weights(args)
    tol = max(options.tol, 1e-14)
    if isinstance(w, TwoBranchWeights):
        try:
            cert = two_branch_conjugation(w, tol=tol)
        except FamilyConditionError as exc:
            _emit(args, f"no conjugation: {exc}", {"error": str(exc)})
            return 1
    else:
        tree = generate_binary(w.kappa)
        cert = reversal_pairing_conjugation(tree, w.to_assignment(), tol=tol)
        if cert is None:
            _emit(args, "no conjugation: chains admit no reversal pairing",
                  {"error": "no reversal pairing"})
            return 1
    doc = cert.to_doc()
    text = "\n".join([
        "conjugation found",
        f"residual_unitary: {fmt(cert.residual_unitary)}",
        f"residual_symmetric: {fmt(cert.residual_symmetric)}",
    ])
    _emit(args, text, doc)
    return 0


def cmd_kernels(args, options: DeciderOptions) -> int:
    tree, weights = _read_document(args.input)
    s = build_shift(tree, weights)
    max_power = args.max_power if args.max_power is not None else s.n
    table = kernel_table(s, max_power=max_power)
    doc = table.to_doc()
    lines = ["m dim_ker_T^m dim_ker_Tstar^m"]
    for row in table.rows:
        lines.append(f"{row[0]} {row[1]} {row[2]}")
    _emit(args, "\n".join(lines), doc)
    return 0


def cmd_crossval(args, options: DeciderOptions) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    two_branch = args.family == "two-branch"
    kappas = range(0 if two_branch else 2, args.kappa_max + 1)
    thetas = range(1, args.theta_max + 1)
    if not kappas or two_branch and not thetas:
        least = "--kappa-max 0 and --theta-max 1" if two_branch else "--kappa-max 2"
        raise ValueError(f"empty {args.family} grid: crossval needs at least {least}")
    # a lazy grid: cross_validate refuses its first cell over the vertex cap
    cells = ((kappa, theta) for kappa in kappas for theta in thetas) if two_branch else kappas
    report = cross_validate(
        args.family, cells, samples=args.samples,
        seed=options.seed, tol=max(options.tol, 1e-12),
    )
    summary = report["summary"]
    text = (
        f"instances: {summary['instances']}\n"
        f"agreements: {summary['agreements']}\n"
        f"disagreements: {len(summary['disagreements'])}\n"
        f"all_disagreements_certified: {summary['all_disagreements_certified']}"
    )
    _emit(args, text, report)
    return 0


def cmd_broom(args, options: DeciderOptions) -> int:
    values = [float(x.real) for x in _parse_weight_list(args.weights)]
    if args.n is not None:
        if not 1 <= args.n <= len(values):
            raise ValueError(f"--n must be in 1..{len(values)} (the weights given), got {args.n}")
        values = values[: args.n]
    schedule = BroomSchedule(tuple(values))
    try:
        h = solve_h_sequence(schedule)
        embedding = build_broom_conjugation(
            schedule, h, n_teeth=args.teeth, tol=max(options.tol, 1e-14)
        )
    except InfeasibleScheduleError as exc:
        _emit(args, str(exc), {
            "error": "infeasible", "step": exc.step, "deficit": exc.deficit,
        })
        return 1
    doc = {"h_sequence": h.to_doc(), "embedding": embedding.to_doc()}
    text = "\n".join([
        f"steps: {h.n} (all feasible)",
        f"gram_offdiag_residual: {fmt(h.gram_offdiag_residual())}",
        f"norm_residual: {fmt(h.norm_residual())}",
        f"max_intertwining_residual: {fmt(embedding.report['max_intertwining_residual'])}",
    ])
    _emit(args, text, doc)
    return 0


def cmd_generate(args, options: DeciderOptions) -> int:
    family = args.family
    if family == "path":
        tree = generate_path(args.n)
    elif family == "two-branch":
        if args.theta is None:
            raise ValueError("two-branch family needs --theta")
        tree = generate_two_branch(args.kappa, args.theta)
    elif family == "binary":
        tree = generate_binary(args.kappa)
    elif family == "broom":
        tree = generate_broom(args.n)
    else:
        tree = generate_two_level_broom(args.n)
    if args.weights is not None:
        values = _parse_weight_list(args.weights)
        if len(values) != tree.depth:
            raise ValueError(
                f"expected {tree.depth} generation weights, got {len(values)}"
            )
        weights = {v: values[tree.depth_of(v) - 1] for v in tree.nonroot_vertices()}
    else:
        weights = {v: 1.0 + 0.0j for v in tree.nonroot_vertices()}
    doc = {"tree": tree_to_doc(tree), "weights": weights_to_doc(weights)}
    _emit(args, dump_json(doc), doc)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' too (``add_subparsers`` makes them of
    this class), exit 3, not argparse's 2, which is ``check``'s undetermined."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DeciderOptions.tol)
    parser.add_argument("--seed", type=int, default=DeciderOptions.seed)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--out", default=None)


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=["two-branch", "binary"], required=True)
    parser.add_argument("--kappa", type=int, required=True)
    parser.add_argument("--theta", type=int, default=None)
    parser.add_argument("--weights", required=True,
                        help="comma-separated weights, one per generation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treeshift",
        description="Weighted shifts on rooted trees: complex-symmetry "
                    "certificates, printed-criterion audits, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide complex symmetry of a document")
    p.add_argument("input", help="JSON document path, or - for stdin")
    p.add_argument("--dump-matrix", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="evaluate the printed family criterion")
    _add_family(p)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conjugate", help="run the explicit conjugation construction")
    _add_family(p)
    _add_common(p)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser(
        "kernels", help="kernel dimension table of a document",
        description="Kernel dimension table of a document.  The ranks of a "
                    "tree shift's powers are read exactly, so --tol does not "
                    "apply here.",
    )
    p.add_argument("input")
    p.add_argument("--max-power", type=int, default=None, dest="max_power")
    _add_common(p)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("crossval", help="cross-validate printed criteria on a grid")
    p.add_argument("--family", choices=["two-branch", "binary"], required=True)
    p.add_argument("--kappa-max", type=int, default=3, dest="kappa_max")
    p.add_argument("--theta-max", type=int, default=4, dest="theta_max")
    p.add_argument("--samples", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("broom", help="h-sequence induction and broom conjugation")
    p.add_argument("--weights", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--teeth", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_broom)

    p = sub.add_parser("generate", help="emit a tree+weights document")
    p.add_argument("--family", required=True,
                   choices=["path", "two-branch", "binary", "broom", "two-level-broom"])
    p.add_argument("--kappa", type=int, default=0)
    p.add_argument("--theta", type=int, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--weights", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, DeciderOptions(tol=args.tol, seed=args.seed))
    except (ValueError, WeightError, OSError, json.JSONDecodeError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
