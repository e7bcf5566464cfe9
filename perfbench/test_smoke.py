"""Fast smoke test of the benchmark harness on shrunken workloads.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from calibrate import HostProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _names(kind: str) -> set[str]:
    return set(run.declared(kind))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_shrunken_workload_passes(workload):
    record = run.run(workload, seed=7, seconds=0.1, trace=False, shrink=True)
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert set(record["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert all(c["deviation"] <= c["tolerance"] for c in record["selfcheck"].values())


def test_traced_run_reports_every_layer_metric():
    record = run.run("holonomy_refine", seed=7, seconds=0.1, trace=True, shrink=True)
    assert record["correct"], record["failures"]
    metrics = {k: m["value"] for k, m in record["metrics"].items()}
    assert set(metrics) == _names("per_layer")
    assert metrics["linalg.unitary_exp_i.calls"] > 0
    assert metrics["holonomy.steps"] > 0
    assert 0 < metrics["holonomy.box.max_err"] <= 1e-5
    # the wrapped names are restored once the traced pass ends
    import dlh.holonomy
    import dlh._linalg

    assert dlh.holonomy.unitary_exp_i is dlh._linalg.unitary_exp_i
    assert not hasattr(dlh.holonomy.holonomy_path_ordered, "__wrapped__")


def test_tracer_self_time_excludes_children():
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        sum(range(20000))
    t = tracer.table()
    outer, inner = t["duration"]
    assert t["self"][0] == pytest.approx(outer - inner)
    assert t["self"][1] == pytest.approx(inner)
    assert list(t["root"]) == [0, 0]


def _corrupt_and_run(workload: str, corrupt, tmp_path: Path):
    wl = WORKLOADS[workload](7, shrink=True, workdir=tmp_path, env=run.child_env())
    corrupt(wl)
    tasks = wl.tasks(wl.build())
    return tasks, run.run_pass(tasks, HostProbe(wl.PROBE))


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("holonomy_refine", lambda wl: wl.refs.__setitem__(0, wl.refs[0] + 1e-3)),
        ("oracle_grid", lambda wl: setattr(wl, "wilson_ref", -wl.wilson_ref)),
        ("cli_batch", lambda wl: wl.first_stdout.__setitem__("derive", b"corrupted\n")),
    ],
)
def test_corrupted_reference_counts_as_failure(workload, corrupt, tmp_path):
    tasks, outcomes = _corrupt_and_run(workload, corrupt, tmp_path)
    failed = [o for o in outcomes if not o.ok]
    # exactly the corrupted task fails; it is counted, not skipped or retried
    assert len(outcomes) == len(tasks)
    assert len(failed) == 1, [o.reason for o in failed]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "oracle_grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
