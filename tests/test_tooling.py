import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# audit_mix also runs the pairing oracle and the printed criteria on all
# three family shapes; hard_two_branch replays structure witnesses
@pytest.mark.parametrize("workload", ["binary_scale", "audit_mix", "hard_two_branch"])
def test_perfbench_smoke_run_is_correct(workload):
    # one untimed pass of the benchmark's checks: a package change that makes
    # a verdict fail to replay or a known answer come back wrong fails here
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
