from pathlib import Path

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
