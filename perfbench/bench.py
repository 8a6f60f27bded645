"""Measured loop, correctness checks, metrics and report.

The load is a closed loop: one caller in one process, and the next input
starts only after the previous verdict has been returned and checked.  One
operation, a verdict, is the library path of ``treeshift check``::

    tree_from_doc + weights_from_doc -> build_shift -> decide_cs
        -> dump_json(verdict.to_doc())

After each verdict the loop replays its evidence and runs the family oracles
(printed criterion and reversal pairing), the per-record work of
``cross_validate`` and ``soundness_fuzz``.  A pass runs every input of the
workload once.  A run makes a whole number of passes, fixed by ``--seconds``
and the workload, so every run measures the same mix and the same number of
verdicts whatever the machine's speed.  No layer has a queue or a retry, so waiting time does not
apply.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from treeshift import decider, families, serialize, shift, trees
from treeshift.decider import DeciderOptions
from treeshift.families import TwoBranchWeights
from tracing import Tracer
from workloads import PASS_SECONDS, digest, generate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
TAIL_BEYOND = 10
# Printed and written to the report, but kept off the result line because
# they can be 0; decided_frac and the line's failed count carry them there.
REPORT_ONLY = ("undetermined_frac", "failed_frac")
# The defaults of ``treeshift check``.
OPTIONS = DeciderOptions()

TRACED = (
    (decider, "decide_cs", "decider.decide"),
    (decider, "kernel_obstruction", "decider.kernel"),
    (decider, "word_trace_obstruction", "decider.words"),
    (decider, "unitary_search", "decider.unitary"),
    (decider, "conjugation_from_matrix", "conjugation.from_matrix"),
    (decider, "verify_c_symmetry", "conjugation.verify"),
    (decider, "reevaluate_obstruction", "decider.replay"),
    (shift, "build_shift", "shift.build"),
    (families, "reversal_pairing_conjugation", "families.pairing"),
    (families, "two_branch_cs_condition", "families.printed"),
    (families, "binary_cs_condition", "families.printed"),
    (trees, "tree_from_doc", "serialize.parse"),
    (serialize, "weights_from_doc", "serialize.parse"),
    (serialize, "dump_json", "serialize.dump"),
)


@dataclass
class Outcome:
    latency: float
    kind: str
    obstruction: str | None = None
    dump_bytes: int = 0
    sylvester_dim: int = 0
    printed_disagrees: bool = False
    failures: list = field(default_factory=list)


def verdict_once(inst, sha) -> Outcome:
    """One verdict plus its checks; failures are recorded, never raised.

    The dumped report goes into ``sha`` (a sha256) instead of being kept,
    so memory does not grow with the number of passes.
    """
    started = perf_counter()
    try:
        doc = json.loads(inst.doc)
        tree = trees.tree_from_doc(doc["tree"])
        weights = serialize.weights_from_doc(doc["weights"])
        s = shift.build_shift(tree, weights)
        verdict = decider.decide_cs(s, OPTIONS)
        # allow_nan=False: a NaN or inf anywhere in the report raises here.
        text = serialize.dump_json(verdict.to_doc())
    except Exception as exc:  # noqa: BLE001 -- every failure is counted
        return Outcome(perf_counter() - started, "error", failures=[raised_at(exc)])
    latency = perf_counter() - started
    dumped = text.encode()
    sha.update(dumped)
    out = Outcome(
        latency,
        verdict.kind,
        (verdict.obstruction or {}).get("kind"),
        len(dumped),
        int(verdict.diagnostics.get("sylvester_dim", 0)),
    )
    try:
        check(inst, tree, weights, s, verdict, out)
    except Exception as exc:  # noqa: BLE001
        out.failures.append(f"check raised {raised_at(exc)}")
    return out


def raised_at(exc: Exception) -> str:
    """``repr(exc)`` and the innermost package frame that raised it."""
    frames = [
        f for f in traceback.extract_tb(exc.__traceback__)
        if f"{os.sep}treeshift{os.sep}" in f.filename
    ]
    if not frames:
        return repr(exc)
    f = frames[-1]
    return f"{exc!r} in treeshift/{Path(f.filename).name}:{f.lineno} {f.name}"


def check(inst, tree, weights, s, verdict, out: Outcome) -> None:
    """Replay the evidence and compare with the known answers."""
    numbers = [float(np.linalg.norm(s.matrix))]
    if verdict.kind == "cs":
        report = decider.verify_c_symmetry(s, verdict.certificate, tol=OPTIONS.tol)
        numbers.append(report.residual)
        if not report.passed:
            out.failures.append(f"certificate residual {report.residual!r} does not replay")
    elif verdict.kind == "not_cs":
        ok, margin = decider.reevaluate_obstruction(s, verdict.obstruction, verdict.options)
        numbers.append(margin)
        if not ok:
            out.failures.append(f"{out.obstruction} obstruction does not replay")
        if inst.expect == "cs":
            out.failures.append("known complex symmetric input came back not_cs")
    if not np.all(np.isfinite(numbers)):
        out.failures.append(f"non-finite norm or replay value {numbers!r}")
    if inst.family is not None:
        printed = (
            families.two_branch_cs_condition(inst.family)
            if isinstance(inst.family, TwoBranchWeights)
            else families.binary_cs_condition(inst.family)
        )
        out.printed_disagrees = verdict.kind != "undetermined" and (
            printed.satisfied != (verdict.kind == "cs")
        )
    pairing = families.reversal_pairing_conjugation(tree, weights, tol=OPTIONS.tol)
    if pairing is not None and verdict.kind == "not_cs":
        out.failures.append("reversal-pairing certificate beside a not_cs verdict")


@dataclass
class Pass:
    wall: float
    outcomes: list
    digest: str


def run_pass(instances, tracer: Tracer | None = None) -> Pass:
    """All inputs once; ``digest`` covers the concatenated dumped reports."""
    outcomes = []
    sha = hashlib.sha256()
    started = perf_counter()
    if tracer is None:
        for inst in instances:
            outcomes.append(verdict_once(inst, sha))
    else:
        with tracer:
            for index, inst in enumerate(instances):
                with tracer.span("bench.instance", index):
                    outcomes.append(verdict_once(inst, sha))
    return Pass(perf_counter() - started, outcomes, sha.hexdigest())


def measure(instances, rounds: int, traced: bool):
    """``rounds`` untraced passes; traced, each followed by a traced pass
    over the same inputs."""
    plain, with_trace = [], []
    tracer = Tracer(TRACED) if traced else None
    for _ in range(rounds):
        plain.append(run_pass(instances))
        if traced:
            with_trace.append(run_pass(instances, tracer))
    return plain, with_trace, tracer


def setup_seconds(workload: str, seed: int, expected_digest: str) -> list[float]:
    """Wall time of fresh processes that import the package and its CLI and
    generate the workload's inputs."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        times.append(perf_counter() - started)
        if done.returncode != 0 or done.stdout.strip() != expected_digest:
            raise RuntimeError(
                f"setup probe failed or generated other inputs: {done.stderr.strip()!r}"
            )
    return times


def blas_threads_reported():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args, blas_threads: int, instances) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "blas_threads_reported": blas_threads_reported(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "instances": len(instances),
        "instances_by_group": dict(Counter(inst.group for inst in instances)),
        "load": "closed loop, one caller, one process",
        "waiting_time": "not applicable: no layer has a queue or a retry",
    }


def ledger(p: Pass) -> dict:
    return {
        "digest": p.digest,
        "verdicts": dict(Counter(o.kind for o in p.outcomes)),
        "obstructions": dict(Counter(o.obstruction for o in p.outcomes if o.obstruction)),
        "printed_disagreements": sum(o.printed_disagrees for o in p.outcomes),
        "dump_bytes": sum(o.dump_bytes for o in p.outcomes),
        "sylvester_dim_sum": sum(o.sylvester_dim for o in p.outcomes),
    }


def end_to_end(plain: list, setup: list):
    """Metrics over the untraced passes; every verdict measured is a sample."""
    latency = sorted(o.latency for p in plain for o in p.outcomes)
    n = len(latency)
    first = plain[0].outcomes
    undetermined = sum(o.kind == "undetermined" for o in first) / len(first)
    failed = sum(bool(o.failures) for p in plain for o in p.outcomes) / n
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdicts_per_s": (n / sum(p.wall for p in plain), "1/s"),
        "verdict_p50_s": (statistics.median(latency), "s"),
    }
    if n > TAIL_BEYOND:
        metrics["verdict_tail_s"] = (latency[n - TAIL_BEYOND - 1], "s")
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "decided_frac": (1.0 - undetermined, "fraction"),
        "undetermined_frac": (undetermined, "fraction"),
        "failed_frac": (failed, "fraction"),
    })
    notes = {
        "verdict_p50_s": f"median of {n} verdicts ({len(first)} inputs x {len(plain)} passes)",
        "verdict_tail_s": (
            f"percentile {100.0 * (n - TAIL_BEYOND) / n:.2f} of {n} verdicts, "
            f"{TAIL_BEYOND} slower"
            if n > TAIL_BEYOND else f"omitted: {n} verdicts are too few"
        ),
        "setup_s": f"median of {len(setup)} fresh processes: {[round(t, 4) for t in setup]}",
    }
    return metrics, notes


def latency_by_group(instances, plain: list) -> dict:
    groups: dict[str, list] = {}
    for p in plain:
        for inst, o in zip(instances, p.outcomes):
            groups.setdefault(inst.group, []).append(o.latency)
    return {
        g: {
            "verdicts": len(v),
            "median_s": statistics.median(v),
            "max_s": max(v),
            "per_pass_s": sum(v) / len(plain),
        }
        for g, v in groups.items()
    }


def per_layer(plain: list, traced: list, tracer: Tracer) -> dict:
    passes = len(traced)
    own = tracer.self_times()
    total = tracer.totals()
    book = ledger(traced[0])
    obstructions = book["obstructions"]

    def s(name):
        return own.get(name, 0.0) / passes

    calls = tracer.count("decider.unitary") / passes
    found = tracer.count("decider.unitary", returned=True) / passes
    return {
        "serialize.parse_s": (s("serialize.parse"), "s"),
        "serialize.dump_s": (s("serialize.dump"), "s"),
        "serialize.dump_bytes": (book["dump_bytes"], "bytes"),
        "shift.build_s": (s("shift.build"), "s"),
        "decider.decide_s": (total.get("decider.decide", 0.0) / passes, "s"),
        "decider.kernel_s": (s("decider.kernel"), "s"),
        "decider.words_s": (s("decider.words"), "s"),
        # decide_cs minus its wrapped stages: the Sylvester nullspace SVD
        # and the assembly of the basis.
        "decider.sylvester_s": (s("decider.decide"), "s"),
        "decider.unitary_s": (s("decider.unitary"), "s"),
        "decider.replay_s": (s("decider.replay"), "s"),
        "decider.decided_by.kernel_dim": (obstructions.get("kernel_dim", 0), "count"),
        "decider.decided_by.word_trace": (obstructions.get("word_trace", 0), "count"),
        "decider.decided_by.empty_sylvester_space": (
            obstructions.get("empty_sylvester_space", 0), "count",
        ),
        "decider.decided_by.certificate": (book["verdicts"].get("cs", 0), "count"),
        "decider.sylvester_dim_sum": (book["sylvester_dim_sum"], "count"),
        "decider.unitary_calls": (calls, "count"),
        "decider.unitary_found": (found, "count"),
        "decider.unitary_yield": (found / calls if calls else 0.0, "ratio"),
        "conjugation.from_matrix_s": (s("conjugation.from_matrix"), "s"),
        "conjugation.verify_s": (s("conjugation.verify"), "s"),
        "families.pairing_s": (s("families.pairing"), "s"),
        "families.pairing_cs": (tracer.count("families.pairing", returned=True) / passes, "count"),
        "families.printed_s": (s("families.printed"), "s"),
        "trace.overhead": (
            sum(p.wall for p in traced) / sum(p.wall for p in plain[: len(traced)]), "ratio",
        ),
        "trace.unattributed_s": (s("bench.instance"), "s"),
    }


def stage_shares(layers: dict) -> dict:
    decide = layers["decider.decide_s"][0]
    stages = {
        name: layers[f"decider.{name}_s"][0] / decide if decide else 0.0
        for name in ("kernel", "words", "sylvester", "unitary")
    }
    return {"of_decide_cs": stages, "dominant": max(stages, key=stages.get)}


def accounting(plain: list, traced: list, tracer: Tracer) -> dict:
    """Do the traced self times add up to the untraced wall time?

    Their sum per traced pass, over the mean untraced pass, should lie
    between 1 and ``trace.overhead``.
    """
    self_sum = sum(tracer.self_times().values()) / len(traced)
    untraced = sum(p.wall for p in plain) / len(plain)
    return {
        "self_time_sum_per_pass_s": self_sum,
        "untraced_pass_s": untraced,
        "ratio": self_sum / untraced,
    }


def main(args, blas_threads: int) -> int:
    instances = generate(args.workload, args.seed)
    inputs_digest = digest(instances)
    prov = provenance(args, blas_threads, instances)
    setup = setup_seconds(args.workload, args.seed, inputs_digest)
    round_s = PASS_SECONDS[args.workload] * (2 if args.trace else 1)
    rounds = max(1, int(args.seconds // round_s))
    plain, traced, tracer = measure(instances, rounds, bool(args.trace))

    problems = []
    passes = plain + traced
    book = ledger(plain[0])
    if len({p.digest for p in passes}) != 1:
        problems.append(
            "verdict digests differ between passes"
            + (" (traced vs untraced)" if traced else "")
        )
    failures = [
        {"pass": k, "input": i, "group": instances[i].group, "failures": o.failures}
        for k, p in enumerate(passes) for i, o in enumerate(p.outcomes) if o.failures
    ]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(bool(o.failures) for p in passes for o in p.outcomes)

    e2e, notes = end_to_end(plain, setup)
    report = {
        "provenance": prov,
        "inputs_digest": inputs_digest,
        "ledger": book,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "notes": notes,
        "latency_by_group": latency_by_group(instances, plain),
        "failures": failures[:20],
        "problems": problems,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(prov))
    print("ledger " + json.dumps(book))
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}  {notes.get(name, '')}".rstrip())
    if args.trace:
        layers = per_layer(plain, traced, tracer)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["stage_shares"] = stage_shares(layers)
        report["accounting"] = accounting(plain, traced, tracer)
        for name, (value, unit) in layers.items():
            print(f"{name} = {value:.6g} {unit}")
        print("stage_shares " + json.dumps(report["stage_shares"]))
        print("accounting " + json.dumps(report["accounting"]))
    for line in problems + [f"failure {f}" for f in failures[:20]]:
        print(line)
        # Also on stderr, where a harness that keeps only the tail of a
        # failed run looks; the input is ``generate(workload, seed)[input]``.
        print(f"{args.workload} seed {args.seed}: {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    print(f"report {OUT.relative_to(ROOT) / (stem + '.json')}")

    chosen = report["per_layer"] if args.trace else {
        k: v for k, v in report["end_to_end"].items() if k not in REPORT_ONLY
    }
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": chosen,
    }))
    return 0
