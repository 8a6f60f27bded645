import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import treeshift

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
# three family shapes; hard_two_branch replays structure witnesses
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
