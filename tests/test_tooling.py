import ast
import hashlib
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import treeshift

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_perfbench_traced_functions_exist(monkeypatch):
    # the traced benchmark run wraps these by name; a missing one makes
    # `perfbench/run.py --trace 1` fail with AttributeError
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _span in bench.TRACED
        if not hasattr(module, attr)
    ]
    assert bench.TRACED and not missing


def perfbench_result(*args: str) -> dict:
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), *args],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


# audit_mix also runs the pairing oracle and the printed criteria on all
# three family shapes; hard_two_branch replays chain_reversal witnesses (57
# at seed 1, beside 6 cs verdicts), and no workload reaches the solve of W
@pytest.mark.parametrize("workload", ["binary_scale", "audit_mix", "hard_two_branch"])
def test_perfbench_smoke_run_is_correct(workload):
    # one untimed pass of the benchmark's checks: a package change that makes
    # a verdict fail to replay or a known answer come back wrong fails here
    result = perfbench_result(
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"
    )
    assert result["correct"] is True
    assert result["failed"] == 0


# binary_scale and hard_two_branch reduce to chains and are decided before
# any word; audit_mix also holds trees that reach the word screen
@pytest.mark.parametrize("workload", ["binary_scale", "hard_two_branch", "audit_mix"])
def test_perfbench_traced_run_is_correct(workload):
    # an untraced and a traced pass; correct needs equal verdict digests, so
    # the wrappers the trace puts on the package change no verdict
    result = perfbench_result(
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"
    )
    assert result["correct"] is True
    assert result["failed"] == 0
    # decide_cs must reach the word screen through its traced module name
    words = result["metrics"]["decider.words_s"]["value"]
    assert (words > 0) == (workload == "audit_mix")


# sha256 of the reports at a fixed seed: the concatenated dumped verdicts of
# one benchmark pass at seed 1, and the dumped soundness_fuzz(200) report at
# seed 0.  Equal under one and two BLAS threads.  A change that moves these
# bytes on purpose updates the pins and says so
PASS_DIGESTS = {
    "audit_mix": "dbdf9e1ae307b86e21d234392bf581fab74b6d156722ad167aeed67936b91935",
    "binary_scale": "23adf8e1bd503df13ca705f3b87a74fc60df333924d904501499850520135e01",
    "hard_two_branch": "91d97c7ddb886922f70ed850c440026f7230a81c3bc5641a1b157b7e6d6391ba",
}
FUZZ_DIGEST = "b35c52516884c57e83680cde0c1256fad3c19c8233c3fe9664c97598fe3b5dc8"


def test_report_bytes_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    passes = {workload: bench.run_pass(bench.generate(workload, 1)) for workload in PASS_DIGESTS}
    assert {workload: p.digest for workload, p in passes.items()} == PASS_DIGESTS
    assert not [o.failures for p in passes.values() for o in p.outcomes if o.failures]
    fuzz = treeshift.dump_json(treeshift.soundness_fuzz(200, seed=0))
    assert hashlib.sha256(fuzz.encode()).hexdigest() == FUZZ_DIGEST


# sha256 of the dumped cross_validate report of the crossval defaults, 20
# samples a cell at seed 0 and tol 1e-10: the two-branch grid (0..3, 1..4)
# and binary kappa 2-5.  Each record embeds the decider's options doc
CROSSVAL_DIGESTS = {
    "two-branch": "b685bba81d0769fc3fa2e4c886d92204751e31f891a48246479bbd2aad41d3f4",
    "binary": "a4407e47422923b54c9c53b1b6ad3b382c5f0a9ee23453f54a524d4c6d25ef2b",
}


@pytest.mark.parametrize("family", sorted(CROSSVAL_DIGESTS))
def test_crossval_report_bytes_are_pinned(family):
    cells = [(k, t) for k in range(4) for t in range(1, 5)] if family == "two-branch" else [2, 3, 4, 5]
    report = treeshift.cross_validate(family, cells, samples=20, seed=0, tol=1e-10)
    digest = hashlib.sha256(treeshift.dump_json(report).encode()).hexdigest()
    assert digest == CROSSVAL_DIGESTS[family]


def test_every_exported_name_exists():
    modules = [treeshift] + [
        importlib.import_module(f"treeshift.{info.name}")
        for info in pkgutil.iter_modules(treeshift.__path__)
        if not info.name.startswith("_")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1 and not missing


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated ``@dataclass`` or ``@dataclass(...)``."""
    for decorator in node.decorator_list:
        name = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def init_fields(node: ast.ClassDef):
    """``(name, has_default)`` for each field of a dataclass that its
    ``__init__`` takes, in order; ``field(init=False)`` takes none."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            given = {k.arg: k.value for k in value.keywords}
            init = given.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            yield stmt.target.id, "default" in given or "default_factory" in given
        else:
            yield stmt.target.id, value is not None


def defaulted_parameters():
    """``(module, function, parameter, position, method)`` for every
    parameter with a default in the package, a dataclass field with a
    default counting as a parameter of its class; ``position`` is None for
    a keyword-only one, and ``method`` tells whether the first parameter is
    ``self`` or ``cls``."""
    for path in sorted((ROOT / "src" / "treeshift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                for k, (name, has_default) in enumerate(init_fields(node)):
                    if has_default:
                        yield path.name, node.name, name, k, False
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            method = bool(positional) and positional[0].arg in ("self", "cls")
            for k in range(len(positional) - len(args.defaults), len(positional)):
                yield path.name, node.name, positional[k].arg, k, method
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.name, node.name, arg.arg, None, method


def calls_by_name(paths):
    """Every call in the files ``paths``, by the name it calls (``f(...)``
    or ``x.f(...)``)."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append((node, False))
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append((node, True))
    return calls


def passes(call, bound, parameter, position) -> bool:
    """Whether ``call`` passes ``parameter``, by keyword or at ``position``;
    ``bound`` says that the call supplies ``self`` or ``cls`` itself.  A
    ``**mapping`` passes every parameter, a ``*sequence`` every one from
    its place on."""
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    if position is None:
        return False
    slots = len(call.args) + bound
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position < slots or starred


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller overrides is a setting nobody runs: make it a
    # fixed value instead.  The callers are the package and the benchmark;
    # tests are none, but for the paper's acceptance criteria.  A function
    # only tests call is an entry point whose parameters are its inputs
    callers = sorted((ROOT / "src").rglob("*.py")) + sorted(PERFBENCH.rglob("*.py"))
    called = calls_by_name(callers)
    calls = calls_by_name(callers + [ROOT / "tests" / "test_acceptance.py"])
    found, unpassed = 0, []
    for module, function, parameter, position, method in defaulted_parameters():
        if function not in called:
            continue
        found += 1
        if not any(
            passes(call, method and attr, parameter, position)
            for call, attr in calls.get(function, ())
        ):
            unpassed.append(f"{module}:{function}({parameter})")
    assert found and not unpassed, "never passed: " + ", ".join(unpassed)


def definitions(tree: ast.Module):
    """The functions, classes and constants a module defines at its top
    level, as ``(name, node)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def private_definitions(tree: ast.Module):
    """The private :func:`definitions`; dunder names are not private."""
    for name, node in definitions(tree):
        if name.startswith("_") and not name.endswith("__"):
            yield name, node


def reads(node: ast.AST) -> list[str]:
    """Every name ``node`` reads, bare (``f``) or as an attribute (``x.f``)."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    ]


def test_every_private_helper_is_read_in_the_package():
    # a private helper that only the tests call is dead code the tests keep
    # alive; a read inside its own definition does not count
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "treeshift").glob("*.py"))
    }
    read = Counter(name for tree in modules.values() for name in reads(tree))
    found, unread = 0, []
    for module, tree in modules.items():
        for name, node in private_definitions(tree):
            found += 1
            if read[name] == reads(node).count(name):
                unread.append(f"{module}:{name}")
    assert found and not unread, "never read in the package: " + ", ".join(unread)


def test_a_decision_reads_its_forest_once(monkeypatch):
    # decide_cs reads the forest once, keyed on the parents of its input,
    # and hands it to every stage; only the word search, which keeps its own
    # input check of |T|, whose parents are the same, reads it again.  A
    # replay reads it once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    from treeshift import decider, shift

    keys, searches = [], []
    cached, search = shift._pattern_forest, decider.word_trace_obstruction
    monkeypatch.setattr(shift, "_pattern_forest", lambda key: keys.append(key) or cached(key))
    monkeypatch.setattr(
        decider, "word_trace_obstruction", lambda *a, **k: searches.append(1) or search(*a, **k)
    )

    def counted(function, seen):
        def call(s, *args, **kwargs):
            at = len(keys), len(searches)
            result = function(s, *args, **kwargs)
            parents = s.parent.tobytes()
            seen.append((keys[at[0]:] == [parents] * (len(keys) - at[0]),
                         len(keys) - at[0], len(searches) - at[1]))
            return result
        return call

    calls = {"decide_cs": [], "reevaluate_obstruction": []}
    for name, seen in calls.items():
        monkeypatch.setattr(decider, name, counted(getattr(decider, name), seen))
    reads = {}
    for workload in PASS_DIGESTS:
        calls["decide_cs"].clear()
        bench.run_pass(bench.generate(workload, 1))
        assert all(by_parents and read == 1 + searched
                   for by_parents, read, searched in calls["decide_cs"])
        reads[workload] = sum(read for _by_parents, read, _searched in calls["decide_cs"])
    assert reads == {"audit_mix": 649, "binary_scale": 12, "hard_two_branch": 63}
    assert set(calls["reevaluate_obstruction"]) == {(True, 1, 0)}


def test_every_public_name_is_read_or_documented():
    # a name in the package's __all__ that the package, the CLI and the
    # benchmark never read and the README never names is an entry point
    # only the tests keep alive; a read inside its own definition does not
    # count
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "treeshift").glob("*.py"))
        if path.name != "__init__.py"
    }
    read = Counter(name for tree in modules.values() for name in reads(tree))
    read.update(name for path in PERFBENCH.glob("*.py") for name in reads(ast.parse(path.read_text())))
    named = {
        word
        for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
        for word in re.findall(r"\w+", span)
    }
    unused = []
    for name in treeshift.__all__:
        home = modules[getattr(treeshift, name).__module__.rpartition(".")[2]]
        node = dict(definitions(home))[name]
        if name not in named and read[name] == reads(node).count(name):
            unused.append(name)
    assert len(treeshift.__all__) > 1 and not unused, "unused public names: " + ", ".join(unused)
