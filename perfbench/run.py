"""Benchmark of the `dlh` package: end-to-end timings and traced per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload holonomy_refine --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``holonomy_refine``, ``oracle_grid`` and
``cli_batch``. One process runs the tasks one at a time: a closed loop with a
single client. BLAS, OpenMP and ``DLH_THREADS`` are pinned to one thread.

With ``--trace 0`` the run times set-up (the median of several fresh
interpreters that import the package and build the inputs), then repeats
passes through the task list for about ``--seconds`` (at least two) and
reports the pass time (each task at its median), the peak resident set and
the set-up time. With ``--trace 1`` it runs a traced in-process pass between
two untraced ones and reports the per-layer metrics named in
``BENCHMARK.json``. Every task's output is checked; a task that raises, exits
non-zero or misses its reference counts as failed.

Times are reported in reference-host seconds: each timed call and each
set-up is bracketed by a fixed probe kernel and scaled by the host's
momentary speed (see ``calibrate.py``); the raw wall times are kept in the
result file. The run and every child it starts are pinned to one CPU, so the
probe runs where the timed work runs.

A human-readable summary goes to stdout; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results,
the generated inputs and the span file of a traced run are written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
MIN_PASSES = 2
IMPORT_REPEATS = 3
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DLH_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    task: str
    group: str
    seconds: float  # wall time of the call
    scaled: float  # the same in reference-host seconds (calibrate.py)
    ok: bool
    err: float | None
    reason: str = ""


def run_pass(tasks, host, tracer=None) -> list[Outcome]:
    """Run every task once, timing only its call into the program.

    A host-speed probe runs before the first task and after each one, so
    every call is bracketed by two probes.
    """
    from workloads import Mismatch

    outcomes = []
    before = host.probe()
    for task in tasks:
        value, reason = None, ""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = task.run()
            else:
                with tracer.span(f"task:{task.name}"):
                    value = task.run()
        except Exception as exc:  # a task that raises is a failed task
            reason = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        after = host.probe()
        scaled = dt * host.scale(before, after)
        before = after
        err = None
        if not reason:
            try:
                err = task.check(value)
            except Mismatch as exc:
                reason = str(exc)
        outcomes.append(Outcome(task.name, task.group, dt, scaled, not reason, err, reason))
    return outcomes


def pass_wall(outcomes: list[Outcome], scaled: bool = False) -> float:
    return sum(o.scaled if scaled else o.seconds for o in outcomes)


def measure(tasks, seconds: float, host) -> list[list[Outcome]]:
    """At least MIN_PASSES passes, then more while one of median length still fits in `seconds`."""
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(run_pass(tasks, host))
        typical = statistics.median(pass_wall(p) for p in passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - t0 + typical > seconds:
            return passes


def median_pass(passes: list[list[Outcome]]) -> float:
    """One pass through the task list at each task's median reference-host time."""
    per_task: dict[str, list[float]] = {}
    for p in passes:
        for o in p:
            per_task.setdefault(o.task, []).append(o.scaled)
    return sum(statistics.median(v) for v in per_task.values())


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (percent, value)."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(samples)[k]


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def time_ready(argv: list[str], env: dict, cwd: Path) -> float:
    """Seconds from spawning a fresh interpreter until it prints its monotonic clock."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def time_setups(argv: list[str], env: dict, cwd: Path, host, repeats: int) -> tuple[list[float], list[float]]:
    """`repeats` fresh set-ups, each bracketed by host probes: (raw, reference-host) seconds."""
    raw, scaled = [], []
    before = host.probe()
    for _ in range(repeats):
        raw.append(time_ready(argv, env, cwd))
        after = host.probe()
        scaled.append(raw[-1] * host.scale(before, after))
        before = after
    return raw, scaled


def blas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, else the pinned setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"pinned {os.environ.get('OPENBLAS_NUM_THREADS')}"


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "pinned": PINNED_THREADS,
        "seed": seed,
    }


def peak_rss_mb(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


# public functions whose own calls and self time are reported
FUNCTION_METRICS = (
    "linalg.unitary_exp_i",
    "oracle.wilson_loop_oracle",
    "oracle.window_states",
    "oracle.displace_field",
    "oracle.fd_connection_matrix",
    "displaced.displacement_matrix",
)


def layer_metrics(tracer, traced: list[Outcome], time_scale: float, overhead: float, import_s: float, cli_walls: dict) -> dict:
    """Per-layer metrics from the spans and counters of one traced pass.

    Span times are turned into reference-host seconds with the traced pass's
    own host-speed factor `time_scale`.
    """
    import numpy as np

    from tracer import LAYERS

    t = tracer.table()
    nid, dur = t["name_id"], t["duration"] * time_scale
    ids = {name: i for i, name in enumerate(tracer.names)}
    self_by = np.bincount(nid, weights=t["self"] * time_scale, minlength=len(ids))
    calls_by = np.bincount(nid, minlength=len(ids))

    def named(prefix: str) -> list[int]:
        return [i for name, i in ids.items() if name.startswith(prefix)]

    m: dict[str, float] = {}
    for layer in LAYERS.values():
        m[f"{layer}.self_s"] = float(self_by[named(layer + ".")].sum())
        m[f"{layer}.calls"] = int(calls_by[named(layer + ".")].sum())
    for fn in FUNCTION_METRICS:
        i = [ids[fn]] if fn in ids else []
        m[f"{fn}.self_s"] = float(self_by[i].sum())
        m[f"{fn}.calls"] = int(calls_by[i].sum())
    for key in ("holonomy.steps", "oracle.links", "displaced.max_dim"):
        m[key] = int(tracer.counters.get(key, 0))
    m["oracle.wilson.min_singular"] = float(tracer.counters.get("oracle.wilson.min_singular", 0.0))

    for group in ("box", "rotating"):
        loops = np.isin(nid, named(f"task:{group}:"))
        m[f"holonomy.{group}.s_per_loop"] = float(dur[loops].mean()) if loops.any() else 0.0
        errs = [o.err for o in traced if o.group == group and o.err is not None]
        m[f"holonomy.{group}.max_err"] = max(errs) if errs else 0.0
    row_ids = [ids.get("holonomy.holonomy_path_ordered", -1)]
    rows = np.isin(nid, row_ids) & np.isin(nid[t["root"]], [ids.get("task:sweep", -1)])
    m["holonomy.sweep.s_per_row"] = float(dur[rows].mean()) if rows.any() else 0.0

    m["cli.import_s"] = import_s
    for task, wall in cli_walls.items():
        m[f"cli.{task}.wall_s"] = wall
    m["trace.overhead_s"] = overhead
    return m


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(values: dict, kind: str) -> dict:
    units = declared(kind)
    missing, extra = units.keys() - values.keys(), values.keys() - units.keys()
    if missing or extra:
        raise BenchError(f"{kind} metrics do not match BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run(workload: str, seed: int, seconds: float, trace: bool, shrink: bool = False) -> dict:
    """One benchmark run. Returns the result record; raises BenchError if it cannot run."""
    if not (SRC / "dlh" / "__init__.py").is_file():
        raise BenchError(f"no dlh package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import dlh

    if Path(dlh.__file__).resolve().parent != (SRC / "dlh").resolve():
        raise BenchError(f"imported dlh from {dlh.__file__}, not from {SRC}")
    from calibrate import HostProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    try:
        env = child_env()
        wl = WORKLOADS[workload](seed, shrink=shrink, workdir=workdir, env=env)
        spec_file = workdir / "spec.json"
        spec_file.write_text(json.dumps(wl.spec, indent=1))
        setup_argv = [sys.executable, str(BENCH / "inputs.py"), workload, str(spec_file)]
        import_argv = [sys.executable, "-c", "import time, dlh.cli; print(repr(time.monotonic()))"]
        record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
        record["selfcheck"] = {k: {"deviation": d, "tolerance": tol} for k, (d, tol) in wl.selfcheck.items()}
        selfcheck_ok = all(d <= tol for d, tol in wl.selfcheck.values())

        host = HostProbe(wl.PROBE)
        if not trace:
            setup_raw, setup = time_setups(setup_argv, env, workdir, host, SETUP_REPEATS)
            tasks = wl.tasks(wl.build())
            passes = measure(tasks, seconds, host)
            outcomes = [o for p in passes for o in p]
            values = {
                "wall_s": median_pass(passes),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb(children=workload == "cli_batch"),
            }
            record["samples"] = {
                "pass_s": [pass_wall(p, scaled=True) for p in passes],
                "pass_raw_s": [pass_wall(p) for p in passes],
                "setup_s": setup,
                "setup_raw_s": setup_raw,
            }
            record["metrics"] = with_units(values, "end_to_end")
        else:
            import_s = statistics.median(time_setups(import_argv, env, workdir, host, IMPORT_REPEATS)[1])
            objs = wl.build()
            outcomes, cli_walls = [], {}
            if workload == "cli_batch":
                sub = run_pass(wl.tasks(objs), host)
                outcomes += sub
                cli_walls = {o.task: o.scaled for o in sub}
            # untraced passes on both sides of the traced one, so drift and
            # first-pass warm-up do not count as tracing overhead
            tasks = wl.tasks(objs, inprocess=True)
            before = run_pass(tasks, host)
            tracer = Tracer()
            with tracer.installed():
                traced = run_pass(tasks, host, tracer)
            after = run_pass(tasks, host)
            outcomes += before + traced + after
            overhead = pass_wall(traced, True) - (pass_wall(before, True) + pass_wall(after, True)) / 2.0
            walls = {k: cli_walls.get(k, 0.0) for k in declared_cli_tasks()}
            time_scale = pass_wall(traced, True) / pass_wall(traced)
            values = layer_metrics(tracer, traced, time_scale, overhead, import_s, walls)
            tracer.save(RESULTS / f"trace-{workload}-seed{seed}.npz")
            record["metrics"] = with_units(values, "per_layer")

        failed = [o for o in outcomes if not o.ok]
        record["attempted"] = len(outcomes)
        record["failed"] = len(failed)
        record["correct"] = not failed and selfcheck_ok
        record["failures"] = [{"task": o.task, "reason": o.reason} for o in failed]
        record["tasks"] = summarize(outcomes)
        record["environment"] = environment(seed)
        record["host_probe_s"] = {
            "kind": host.kind,
            "reference": host.reference,
            "median": statistics.median(host.samples),
            "min": min(host.samples),
            "max": max(host.samples),
            "count": len(host.samples),
        }
        (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def declared_cli_tasks() -> list[str]:
    return [n[len("cli."):-len(".wall_s")] for n in declared("per_layer") if n.startswith("cli.") and n.endswith(".wall_s")]


def summarize(outcomes: list[Outcome]) -> dict:
    """Per task: runs, failures, median seconds and the largest error reached."""
    out: dict = {}
    for o in outcomes:
        s = out.setdefault(o.task, {"runs": 0, "failed": 0, "seconds": [], "max_err": None})
        s["runs"] += 1
        s["failed"] += not o.ok
        s["seconds"].append(o.seconds)
        if o.err is not None:
            s["max_err"] = o.err if s["max_err"] is None else max(s["max_err"], o.err)
    for s in out.values():
        s["median_s"] = statistics.median(s.pop("seconds"))
    return out


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, tails, counts and failures."""
    env = record["environment"]
    lines = [
        f"dlh benchmark: workload={record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}",
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "pinned"),
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for name, sample in record.get("samples", {}).items():
        t = tail(sample)
        tail_txt = f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no tail percentile (n <= 10)"
        lines.append(f"  {name + ' samples':<36} median {statistics.median(sample):.4f} s, {tail_txt}, n={len(sample)}")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"  {'fail_frac':<36} {failed / attempted:.4g} ratio ({failed} failed of {attempted} attempted)")
    for task, s in record["tasks"].items():
        err = f" max_err {s['max_err']:.3g}" if s["max_err"] is not None else ""
        lines.append(f"    task {task:<24} runs {s['runs']:>3} failed {s['failed']} median {s['median_s']:.4f} s raw{err}")
    for name, c in record["selfcheck"].items():
        lines.append(f"    self-check {name}: {c['deviation']:.3g} (tolerance {c['tolerance']:.0e})")
    hp = record["host_probe_s"]
    lines.append(
        f"    host probe ({hp['kind']}): median {hp['median']:.5f} s (min {hp['min']:.5f}, max {hp['max']:.5f}, n={hp['count']}),"
        f" reference {hp['reference']} s; times are in reference-host seconds"
    )
    for f in record["failures"]:
        lines.append(f"    FAILED {f['task']}: {f['reason']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("holonomy_refine", "oracle_grid", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy loads: one BLAS thread; and one CPU for this process and
    # every child it starts, so the host probe times the CPU the work runs on
    os.environ.update(PINNED_THREADS)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in report(record):
        print(line)
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
