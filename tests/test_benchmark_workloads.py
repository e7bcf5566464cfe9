"""The benchmark's own workloads, run once through their checks.

perfbench/workloads.py calls the library by name, reads report keys and
runs the CLI with fixed arguments. A change that renames one of them, or
moves an output past a gate, fails here as it would fail the benchmark.
The benchmark's files are only read: no bytecode is written next to them.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("workloads", "inputs", "reference")


@pytest.fixture(scope="module")
def workloads():
    before = {name: sys.modules.get(name) for name in _MODULES}
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import dlh.cli  # noqa: F401  (the in-process CLI tasks call it through sys.modules)
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
        for name, module in before.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _run_all(wl, inprocess=False) -> list[str]:
    tasks = wl.tasks(wl.build(), inprocess=inprocess)
    for task in tasks:
        err = task.check(task.run())
        assert err >= 0.0, task.name
    return [task.name for task in tasks]


def test_oracle_grid_tasks_pass_their_gates(workloads):
    wl = workloads.WORKLOADS["oracle_grid"](11)
    assert _run_all(wl) == ["wilson", "fd:Ex_prime", "fd:Ey_prime", "fd:lambda_density", "fd:B", "report"]


def test_cli_batch_tasks_pass_in_process(workloads, tmp_path):
    wl = workloads.WORKLOADS["cli_batch"](11, workdir=tmp_path)
    assert len(_run_all(wl, inprocess=True)) == 12


def test_shrunken_holonomy_refine_passes(workloads):
    wl = workloads.WORKLOADS["holonomy_refine"](11, shrink=True)
    assert all(dev <= tol for dev, tol in wl.selfcheck.values())
    assert _run_all(wl) == ["box:ABCHEFA", "rotating:0"]
