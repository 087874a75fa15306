"""Every request of the benchmark's workloads still runs against the library.

perfbench/workloads.py builds each workload's requests from a seed, and
perfbench/tracing.py wraps the library's public functions by name to count
them. A change that renames or retypes a name either of them uses makes those
requests raise. This test calls each request of seed 1 once, under the tracer,
and checks that none raises and that every CLI request exits 0. It runs no
oracle checks: the benchmark's own run compares the results.
"""

import importlib
import sys
from pathlib import Path

import mpmath as mp
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """(workloads, tracing), imported from perfbench/ with sys.path, sys.modules and mp.mp.dps restored.

    The import of oracle.py sets mpmath's precision to its DPS; the workloads keep
    their references to the modules, so their names leave sys.modules again.
    """
    path, dps = list(sys.path), mp.mp.dps
    names = ("oracle", "workloads", "tracing")
    saved = {name: sys.modules[name] for name in names if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path[:] = path
        mp.mp.dps = dps
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("workload", ["eval-grid", "theorem-sweeps", "sample-stream"])
def test_requests_run(perfbench, workload):
    W, tracing = perfbench
    with mp.workdps(W.O.DPS):  # the precision the benchmark builds its requests at
        ops = W.GENERATORS[workload](1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = []
        for op in ops:
            try:
                results.append((op, op.call()))
            except Exception as exc:  # any raise fails the request; the traceback follows
                pytest.fail(f"{op.kind} {op.label} raises {type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
    exits = [(op.label, *result[::2]) for op, result in results if op.kind == "cli" and result[0] != 0]
    assert exits == []
