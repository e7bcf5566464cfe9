import json
import re
import shlex
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from dlh.cli import main
from dlh.errors import ConsistencyError, ConvergenceError

from _refusals import refusal_test


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def split_csv(out: str) -> tuple[list[str], list[str]]:
    """The leading '# name = value' lines of a CSV table, and the header and rows after them."""
    lines = out.splitlines()
    count = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    return lines[:count], lines[count:]


def test_spectrum_csv_header_and_rows(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--n", "1", "--m", "1")
    assert rc == 0
    comments, lines = split_csv(out)
    assert comments == ["# sigma = 1"]
    assert lines[0] == "n,m,l,E_over_hw,Lz_over_h"
    assert lines[1] == "0,0,0,0.5,0"
    assert lines[2] == "0,1,1,0.5,1"
    assert lines[3] == "1,0,-1,1.5,-1"
    assert lines[4] == "1,1,0,1.5,0"
    assert len(lines) == 5


def test_spectrum_json(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--format", "json", "--n", "0", "--m", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["sigma"] == 1
    assert [r["Lz_over_h"] for r in payload["rows"]] == [0, 1, 2]


def test_derive_csv_and_json(capsys):
    rc, out, _ = run_cli(capsys, "derive")
    assert rc == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["sigma"] == "1"
    assert rows["u"] == "0.5"
    assert rows["l_m"] == "1.0"
    # desk-scale units sit far from the lab regime, so screening warns
    assert rows["regime_verdict"] == "warn"
    rc, out, _ = run_cli(capsys, "derive", "--format", "json")
    payload = json.loads(out)
    assert payload["omega"] == 1.0
    assert payload["nu"] == [0.0, 0.0]
    assert payload["regime"]["verdict"] == "warn"


def test_phase_c1_rectangle(capsys):
    rc, out, _ = run_cli(capsys, "phase", "--named", "C1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["kind"] == "C1_rectangle"
    assert payload["signed_area"] == 1.0
    assert payload["gamma_area_law"] == -0.125
    assert payload["line_over_area_law"] == pytest.approx(-2.0)
    rc, out, _ = run_cli(capsys, "phase", "--named", "C1", "--area", "2.0")
    assert json.loads(out)["gamma_area_law"] == -0.25


def test_phase_box_kinds(capsys):
    rc, out, _ = run_cli(capsys, "phase", "--named", "ABCHEFA")
    assert rc == 0
    payload = json.loads(out)
    assert payload["S_closed_form"] == pytest.approx(-0.75)
    assert payload["S_deviation"] < 1e-12
    # u = 0.5 for the default config, so the angle prefactor is S/2
    assert payload["angle_prefactor"] == pytest.approx(payload["S_quadrature"] / 2.0)
    rc, out, _ = run_cli(capsys, "phase", "--named", "ADCHEFA", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("S_closed_form,0.5") for line in lines)


def test_displace_json_and_csv(capsys):
    rc, out, _ = run_cli(
        capsys, "displace", "--nu-re", "0.3", "--nu-im", "-0.2", "--n-max", "14", "--m-max", "2"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["nu"] == [0.3, -0.2]
    assert len(payload["coefficients"]) == 15 * 3
    assert payload["trunc_deficit"] < 1e-9
    rc, out, _ = run_cli(capsys, "displace", "--format", "csv", "--nu-re", "0.3")
    comments, lines = split_csv(out)
    assert comments[:6] == ["# m = 0", "# m_max = 12", "# n = 0", "# n_max = 12", "# nu_re = 0.3", "# nu_im = 0.0"]
    assert comments[6].startswith("# trunc_deficit = ")
    assert len(comments) == 7
    assert lines[0] == "n,m,re,im"


test_displace_refuses_a_non_finite_nu = refusal_test("test_displace_refuses_a_non_finite_nu")


# stdout of `displace --n-max 4 --m-max 1 --nu-re 0.5 --nu-im -0.2 --format csv`,
# recorded before the truncation rule read the weight past n_max
_UNRESOLVED_DISPLACE = """\
# m = 0
# m_max = 1
# n = 0
# n_max = 4
# nu_re = 0.5
# nu_im = -0.2
# trunc_deficit = 1.3434530218044426e-05
n,m,re,im
0,0,0.8650223564752078,4.30072748299391e-18
0,1,0.0,0.0
1,0,0.4325100689299998,-0.1730040275719999
1,1,0.0,0.0
2,0,0.12845904125321342,-0.1223419440506794
2,1,0.0,0.0
3,0,0.022906892905844172,-0.0500427506558441
3,1,0.0,0.0
4,0,0.0007594760691037156,-0.015559997513343598
4,1,0.0,0.0
"""


@pytest.mark.parametrize("argv, warning, stdout", [
    (("--n-max", "4", "--m-max", "1", "--nu-re", "0.5", "--nu-im", "-0.2"), "level 0 keeps 1.34e-05",
     _UNRESOLVED_DISPLACE),
    (("--n", "1", "--m", "1", "--nu-re", "0.3", "--nu-im", "-0.2", "--n-max", "5", "--m-max", "2"),
     "level 1 keeps 1.6e-06", (Path(__file__).parent / "golden" / "displace_excited.csv").read_text()),
])
def test_displace_warns_once_on_an_unresolved_level(argv, warning, stdout):
    # the requested level keeps more than 1.8e-8 of its weight past n_max:
    # one one-line warning on stderr, and stdout unmoved
    proc = subprocess.run([sys.executable, "-m", "dlh.cli", "displace", *argv, "--format", "csv"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, stdout)
    n_max = dict(zip(argv[::2], argv[1::2]))["--n-max"]
    assert proc.stderr == f"dlh: warning: {warning} of its weight past n_max = {n_max} (resolved up to 1.8e-08)\n"


def test_warning_handler_is_scoped_to_main(capsys):
    shown = warnings.showwarning
    rc, out, err = run_cli(capsys, "displace", "--n-max", "4", "--m-max", "1", "--nu-re", "0.5", "--nu-im", "-0.2",
                           "--format", "csv")
    assert (rc, out) == (0, _UNRESOLVED_DISPLACE)
    assert err == "dlh: warning: level 0 keeps 1.34e-05 of its weight past n_max = 4 (resolved up to 1.8e-08)\n"
    assert warnings.showwarning is shown


def test_connection_csv_and_json(capsys):
    rc, out, _ = run_cli(capsys, "connection", "--param", "lambda", "--window", "0..2")
    assert rc == 0
    comments, lines = split_csv(out)
    assert comments == ["# n = 0", "# param = lambda_density", "# point_0 = 0.0", "# point_1 = 0.0",
                        "# point_2 = 2.0", "# point_3 = 1.0", "# u = 0.5", "# window_0 = 0", "# window_1 = 2"]
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 9
    rc, out, _ = run_cli(
        capsys, "connection", "--param", "B", "--window", "0..3", "--format", "json"
    )
    payload = json.loads(out)
    mat = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    assert mat.shape == (4, 4)
    assert np.abs(mat - mat.conj().T).max() < 1e-15


def test_holonomy_identity_loop(capsys):
    rc, out, _ = run_cli(
        capsys,
        "holonomy",
        "--named", "ABCHEFA",
        "--Ey2", "0.0",
        "--steps", "64",
        "--target", "0",
        "--window", "0..1",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["identity_distance"] < 1e-7
    assert payload["unitarity_defect"] < 1e-12
    assert payload["steps"] == 64
    assert len(payload["matrix"]) == 2
    assert len(payload["vertices"]) == 7


def test_holonomy_has_no_plot_data_flag(capsys, tmp_path):
    plot = tmp_path / "X"
    with pytest.raises(SystemExit) as exc:
        main(["holonomy", "--named", "ABCHEFA", "--emit-plot-data", str(plot)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --emit-plot-data" in capsys.readouterr().err
    assert not plot.exists()


def test_holonomy_steps_past_the_cap_name_steps(capsys):
    rc, out, err = run_cli(capsys, "holonomy", "--named", "ABCHEFA", "--steps", "2097152")
    assert (rc, out) == (2, "")
    assert err == "dlh: validation error: steps must be <= the step cap 1048576, got 2097152\n"


def test_holonomy_csv_table_is_the_json_matrix(capsys):
    argv = ("holonomy", "--named", "ADCHEFA", "--window", "1..3")
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    rc_json, out_json, _ = run_cli(capsys, *argv)
    assert rc == rc_json == 0
    payload = json.loads(out_json)
    comments, lines = split_csv(out)
    assert "# kind = ADCHEFA" in comments
    assert f"# steps = {payload['steps']}" in comments
    assert comments[-2:] == ["# window_0 = 1", "# window_1 = 3"]
    assert lines[0] == "row,col,re,im"
    cells = [line.split(",") for line in lines[1:]]
    assert [(int(r), int(c)) for r, c, _, _ in cells] == [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]
    matrix = [[float(re), float(im)] for _, _, re, im in cells]
    assert matrix == [pair for row in payload["matrix"] for pair in row]


def test_vertices_file(capsys, tmp_path):
    vf = tmp_path / "loop.txt"
    vf.write_text(
        "# a flat rectangle in the field plane\n"
        "0 0 1 1\n0.5 0 1 1\n0.5 0.5 1 1\n0 0.5 1 1\n0 0 1 1\n"
    )
    rc, out, _ = run_cli(
        capsys, "holonomy", "--vertices", str(vf), "--steps", "64", "--target", "0",
        "--window", "0..0",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["kind"] == "custom"
    rc, out, _ = run_cli(capsys, "phase", "--vertices", str(vf))
    payload = json.loads(out)
    # planar custom loop gets the abelian treatment
    assert payload["signed_area"] == pytest.approx(0.25)


test_holonomy_rejects_the_sigma_minus_branch = refusal_test("test_holonomy_rejects_the_sigma_minus_branch")


@pytest.mark.parametrize("column", [2, 3])
def test_loop_commands_run_the_sigma_minus_branch(capsys, tmp_path, column):
    # C9's loop with lambda (or B) negated at every vertex reports what the loop itself reports: the closed form
    # reads |lambda B| and the log-step, which do not see the sign
    mirror = np.array([[0, 0, 1, 1], [0.6, 0.2, 1, 1], [0.6, 0.9, 2, 1], [0.2, 0.9, 2, 2], [0, 0, 1, 1]], dtype=float)
    flipped = mirror * np.where(np.arange(4) == column, -1.0, 1.0)
    reports = []
    for vertices in (mirror, flipped):
        np.savetxt(tmp_path / "loop.txt", vertices)
        for command in ("holonomy", "phase"):
            rc, out, err = run_cli(capsys, command, "--vertices", str(tmp_path / "loop.txt"))
            assert (rc, err) == (0, "")
            reports.append({k: v for k, v in json.loads(out).items() if k != "vertices"})
    assert reports[:2] == reports[2:]
    assert reports[0]["steps"] > 32 and reports[1]["S_quadrature"] != 0.0


def test_out_file_matches_stdout(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "phase", "--named", "ABCHGFA")
    target = tmp_path / "phase.json"
    rc2 = main(["phase", "--named", "ABCHGFA", "--out", str(target)])
    capsys.readouterr()
    assert rc == rc2 == 0
    assert target.read_text() == out


def test_holonomy_steps_default_is_the_library_default(capsys):
    from dlh.holonomy import DEFAULT_STEPS, box_loop, holonomy_path_ordered

    rc, out, _ = run_cli(capsys, "holonomy", "--named", "ABCHEFA")
    assert rc == 0
    lib = holonomy_path_ordered(box_loop("ABCHEFA", (0.0, 1.0), (1.0, 4.0), (1.0, 4.0)), 0.5)
    payload = json.loads(out)
    assert payload["steps"] == lib.steps == DEFAULT_STEPS
    assert payload["convergence_estimate"] == 0.0


def test_refined_holonomy_is_byte_deterministic(capsys, tmp_path):
    vf = tmp_path / "rotating.txt"
    vf.write_text("0 0 1 1\n0.6 0.2 1 1\n0.6 0.9 2 1\n0.2 0.9 2 2\n0 0 1 1\n")
    for argv in (("--named", "ABCHEFA"), ("--vertices", str(vf), "--target", "1e-9")):
        _, out1, _ = run_cli(capsys, "holonomy", *argv)
        _, out2, _ = run_cli(capsys, "holonomy", *argv)
        assert out1 == out2
    assert json.loads(out1)["steps"] > 32


def test_byte_determinism(capsys):
    _, out1, _ = run_cli(capsys, "holonomy", "--named", "ABCHGFA", "--steps", "64",
                         "--target", "0", "--window", "0..1")
    _, out2, _ = run_cli(capsys, "holonomy", "--named", "ABCHGFA", "--steps", "64",
                         "--target", "0", "--window", "0..1")
    assert out1 == out2
    _, d1, _ = run_cli(capsys, "derive", "--format", "json")
    _, d2, _ = run_cli(capsys, "derive", "--format", "json")
    assert d1 == d2


def test_config_file_loading(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mass_kg": 1.0,
                "alpha_Fm2": 1.0,
                "hbar": 1.0,
                "lambda_Vm2": 1.0,
                "B_T": 1.0,
                "Ex_Vm": 0.0,
                "Ey_Vm": 0.5,
                "sigma_override": -1,
            }
        )
    )
    rc, out, _ = run_cli(capsys, "derive", "--config", str(cfg))
    assert rc == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["sigma"] == "-1"
    assert rows["nu_re"] != "0.0"


test_config_errors = refusal_test("test_config_errors")
test_non_finite_config_values_exit_2 = refusal_test("test_non_finite_config_values_exit_2")


test_mistyped_sigma_override_exits_2 = refusal_test("test_mistyped_sigma_override_exits_2")
test_bad_inputs_exit_2 = refusal_test("test_bad_inputs_exit_2")
test_window_errors_name_their_reason = refusal_test("test_window_errors_name_their_reason")


def test_writing_to_a_directory_exits_2(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    rc, out, err = run_cli(capsys, "holonomy", "--named", "ABCHEFA", "--out", str(taken))
    assert rc == 2 and "validation error: cannot write" in err
    assert out == ""
    # no temporary file is left beside the target or in it
    assert list(tmp_path.iterdir()) == [taken] and not any(taken.iterdir())


test_bad_target_exit_2 = refusal_test("test_bad_target_exit_2")
test_escaping_inputs_are_validation_errors = refusal_test("test_escaping_inputs_are_validation_errors")
test_escaping_library_calls_are_validation_errors = refusal_test("test_escaping_library_calls_are_validation_errors")
test_edge_of_range_inputs_compute_or_name_the_input = refusal_test("test_edge_of_range_inputs_compute_or_name_the_input")


def test_exit_3_on_numerical_failure(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("no convergence at step cap")

    monkeypatch.setattr("dlh.holonomy.holonomy_path_ordered", explode)
    rc, _, err = run_cli(capsys, "holonomy", "--named", "ABCHEFA")
    assert rc == 3
    assert "numerical failure" in err


def test_sweep_c1_area(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--named", "C1", "--sweep", "area=0.5,1.0,2.0")
    assert rc == 0
    comments, lines = split_csv(out)
    assert comments == ["# kind = C1_rectangle"]
    assert lines[0] == "area,signed_area,curvature,gamma_line_integral,gamma_area_law"
    rows = [line.split(",") for line in lines[1:]]
    areas = [float(r[0]) for r in rows]
    gammas = [float(r[4]) for r in rows]
    assert areas == [0.5, 1.0, 2.0]
    # area-law phase is linear in the loop area
    assert gammas == pytest.approx([-0.0625, -0.125, -0.25])


def test_sweep_box_steps_convergence(capsys):
    # every segment of a box loop is exact, so the step count changes nothing but steps_used
    tables = []
    for steps in ("64", "256"):
        rc, out, _ = run_cli(
            capsys, "sweep", "--named", "ABCHEFA", "--window", "0..1", "--steps", steps,
            "--sweep", "Ey2=0.5,1.0",
        )
        assert rc == 0
        comments, lines = split_csv(out)
        assert comments == ["# kind = ABCHEFA"]
        assert lines[0] == "Ey2,S_closed_form,identity_distance,unitarity_defect,convergence_estimate,steps_used"
        rows = [line.split(",") for line in lines[1:]]
        assert all(float(r[4]) <= 1e-13 and r[5] == steps for r in rows)
        tables.append([r[:5] for r in rows])
    assert tables[0] == tables[1]
    assert [float(r[1]) for r in tables[0]] == pytest.approx([-0.375, -0.75])


def test_sweep_two_axes_sorted(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "--named", "ABCHGFA", "--window", "0..1", "--steps", "64",
        "--sweep", "Ey2=1.0,0.5", "--sweep", "B2=4.0,2.0",
    )
    assert rc == 0
    comments, lines = split_csv(out)
    assert comments == ["# kind = ABCHGFA"]
    assert lines[0].startswith("Ey2,B2,")
    combos = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
    assert combos == sorted(combos)
    assert len(combos) == 4


test_sweep_validation = refusal_test("test_sweep_validation")
test_sweep_has_no_steps_axis = refusal_test("test_sweep_has_no_steps_axis")


def test_oracle_check_passes(capsys, tmp_path):
    out_file = tmp_path / "oracle.json"
    rc, _, err = run_cli(capsys, "oracle-check", "--grid-points", "128", "--out", str(out_file))
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["pass"] is True
    assert payload["sign_report"]["diagonal"]["resolved_relative_sign"] == "opposite"
    assert "sign convention report" in err


_SCRIPT_ARGVS = [
    ("spectrum",),
    ("connection", "--param", "B"),
    ("holonomy", "--named", "ABCHEFA"),
    ("oracle-check", "--grid-points", "128"),
    ("connection", "--param", "bogus"),
]


def _script_run(argv: tuple[str, ...]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "dlh.cli", *argv], capture_output=True, text=True)


def test_console_entry_point(capsys):
    # the script path prints what main(argv) prints in-process, byte for byte
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(_script_run, _SCRIPT_ARGVS))
    for argv, proc in zip(_SCRIPT_ARGVS, procs):
        rc, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err), argv
    assert [proc.returncode for proc in procs] == [0, 0, 0, 0, 2]
    assert procs[-1].stderr.startswith("dlh: validation error: unknown control parameter 'bogus'")


_CLI_RUN = "import contextlib, io\nfrom dlh.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"

_GC_PROBES = {
    "main": _CLI_RUN.format(argv=["spectrum"]),
    "script": """import contextlib, io, runpy, sys
sys.argv = ["dlh", "spectrum"]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_module("dlh.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
else:
    raise AssertionError("no SystemExit")""",
}


def _collector_after(code: str) -> tuple[bool, int]:
    probe = f"import gc\n{code}\nprint(gc.isenabled(), gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    enabled, frozen = proc.stdout.split()
    return enabled == "True", int(frozen)


def test_only_the_script_path_skips_the_collector():
    # a dlh process runs and exits without collector passes; importing
    # dlh.cli and calling main leave a long-lived caller's collector alone
    with ThreadPoolExecutor(max_workers=2) as pool:
        after = dict(zip(_GC_PROBES, pool.map(_collector_after, _GC_PROBES.values())))
    assert after["main"] == (True, 0)
    enabled, frozen = after["script"]
    assert not enabled and frozen > 0


@pytest.mark.skipif(sys.version_info < (3, 11), reason="reading pyproject.toml needs tomllib, new in Python 3.11")
def test_the_dlh_script_is_the_main_block_entry():
    import ast
    import importlib
    import tomllib

    import dlh.cli

    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["dlh"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    main_blocks = [
        node
        for node in ast.parse(Path(dlh.cli.__file__).read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    called = {
        call.func.id
        for block in main_blocks
        for call in ast.walk(block)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }
    assert {getattr(dlh.cli, n) for n in called} == {entry}


# the dlh modules each subcommand may load, beyond dlh and dlh.cli
_SCALES = {"params", "errors"}
_STATES = _SCALES | {"fock", "displaced", "_linalg"}
_LOOPS = _SCALES | {"_linalg", "connection", "holonomy"}
_FOOTPRINTS = {
    ("spectrum",): _SCALES,
    ("derive",): _STATES,
    ("displace", "--n-max", "4"): _STATES,
    ("connection", "--param", "B"): _STATES | {"connection"},
    ("phase", "--named", "C1"): _LOOPS,
    ("holonomy", "--named", "ABCHEFA"): _LOOPS | _STATES,  # the level's block is a window of D(i Z)
    ("sweep", "--named", "C1", "--sweep", "area=1,2"): _LOOPS,
    ("oracle-check", "--grid-points", "128"): _LOOPS | _STATES | {"oracle"},
}
_PROBES = {
    "import dlh": "import dlh",
    "import dlh.cli": "import dlh.cli",
    **{argv: _CLI_RUN.format(argv=list(argv)) for argv in _FOOTPRINTS},
}


def _loaded_modules(code: str) -> set[str]:
    probe = f"import sys\n{code}\nprint(' '.join(m for m in sys.modules if m.split('.')[0] in ('dlh', 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def loaded_modules():
    """The dlh and scipy modules loaded by each of _PROBES, each run in a fresh interpreter."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(_PROBES, pool.map(_loaded_modules, _PROBES.values())))


def test_import_loads_no_scipy(loaded_modules):
    # start-up cost: scipy is a test-only dependency, and neither a fresh
    # `import dlh` or `import dlh.cli` nor any subcommand may load any part of it
    for probe, loaded in loaded_modules.items():
        assert not any(m.split(".")[0] == "scipy" for m in loaded), (probe, loaded)


@pytest.mark.parametrize("argv", list(_FOOTPRINTS), ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_modules(loaded_modules, argv):
    # start-up cost: each subcommand imports the library modules it calls
    loaded = loaded_modules[argv]
    assert loaded <= {"dlh", "dlh.cli"} | {f"dlh.{m}" for m in _FOOTPRINTS[argv]}, loaded
    assert ("dlh.oracle" in loaded) == (argv[0] == "oracle-check")
    assert ("dlh.holonomy" in loaded) == (argv[0] in ("phase", "holonomy", "sweep", "oracle-check"))


def test_import_dlh_loads_no_submodule(loaded_modules):
    assert loaded_modules["import dlh"] == {"dlh"}


def test_every_module_all_lists_bound_names_once():
    # each module's __all__ is the one list of its public names, and the
    # benchmark's tracer wraps what it lists: a stale name would go untraced
    import importlib
    import pkgutil

    import dlh

    modules = [info.name for info in pkgutil.iter_modules(dlh.__path__)]
    assert {"params", "holonomy", "oracle", "errors", "cli"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"dlh.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name


def _benchmark_reads() -> set[str]:
    """The dlh modules and names that perfbench/{workloads,inputs,reference}.py import or read as alias.name.

    Each is checked to exist as it is found.
    """
    import ast
    import importlib
    from types import ModuleType

    def resolve(module: str, name: str):
        """The submodule module.name, or else the attribute `name` of `module`, which must exist."""
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
            return getattr(importlib.import_module(module), name)

    checked = set()
    for file in ("workloads.py", "inputs.py", "reference.py"):
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / file).read_text())
        modules = {}  # alias -> the dlh module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dlh":
                for alias in node.names:
                    bound = resolve(node.module, alias.name)
                    checked.add(f"{node.module}.{alias.name}")
                    if isinstance(bound, ModuleType):
                        modules[alias.asname or alias.name] = bound
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "dlh":
                        bound = importlib.import_module(alias.name)
                        checked.add(alias.name)
                        if alias.asname:
                            modules[alias.asname] = bound
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                module = modules[node.value.id]
                assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"
                checked.add(f"{module.__name__}.{node.attr}")
    return checked


def test_every_dlh_name_the_benchmark_reads_exists():
    # the benchmark imports dlh names and reads them as alias.name; a name
    # dropped from dlh fails here, not as an exception in a benchmark run
    checked = _benchmark_reads()
    assert {"dlh.holonomy.abelian_phase", "dlh.oracle.sign_convention_report",
            "dlh.connection.chain_rule_consistency", "dlh.params.PhysicalConfig", "dlh.cli"} <= checked


def test_src_holds_only_what_dlh_or_the_benchmark_reaches():
    # Every top-level definition in src/dlh (a function, a class or an assigned
    # name) is reached from the code each module runs on import, the `dlh`
    # entry of dlh.cli among it, or from a name the benchmark reads, through
    # the dlh names that each reached definition reads. A helper that only the
    # tests call lives in tests/, beside its callers.
    import ast

    trees = {path.stem: ast.parse(path.read_text()) for path in (Path(__file__).parents[1] / "src" / "dlh").glob("*.py")}
    defined, bound = {}, {}  # module -> {name: its statement}; module -> {alias: (module, name or None)}
    for module, tree in trees.items():
        defined[module], bound[module] = {}, {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[module][stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if name != "__all__":  # lists names, defines none
                        defined[module][name] = stmt
        for node in ast.walk(tree):  # function-level imports too
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    target = (alias.name, None) if node.module is None else (node.module, alias.name)
                    bound[module][alias.asname or alias.name] = target

    def resolve(module, name):
        """(module, name) of the definition that `name` binds in `module`, or None."""
        ref = (module, name) if name in defined[module] else bound[module].get(name)
        return ref if ref is not None and ref[1] in defined.get(ref[0], {}) else None

    def reads(module, node) -> set:
        """Every dlh definition that `node` reads by name or as alias.name."""
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(resolve(module, n.id))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                target = bound[module].get(n.value.id)
                if target is not None and target[1] is None:  # the alias of a module
                    out.add(resolve(target[0], n.attr))
        return out - {None}

    # the roots: what each module runs on import, and the names the benchmark reads
    todo = [ref for m, tree in trees.items() for stmt in tree.body if stmt not in defined[m].values()
            for ref in reads(m, stmt)]
    todo += {resolve(*name.split(".")[1:]) for name in _benchmark_reads() if name.count(".") == 2} - {None}
    reached = set()
    while todo:
        ref = todo.pop()
        if ref not in reached:
            reached.add(ref)
            todo += reads(ref[0], defined[ref[0]][ref[1]])
    unreached = {(m, name) for m in defined for name in defined[m]} - reached
    assert unreached == {("__init__", "__version__")}


def test_src_members_are_read_by_dlh_or_the_benchmark():
    # Below the name level: every method and property of a src/dlh class
    # (dunders aside) is read as an attribute by src/dlh outside its own
    # definition, or by a benchmark file that reads dlh. Dataclass fields are
    # out of scope, as asdict reads them. The match is by attribute name
    # alone, whatever the receiver: a member named like an attribute read
    # elsewhere (`.x`, `.size` of an array) passes unflagged.
    import ast

    root = Path(__file__).parents[1]
    src = [ast.parse(path.read_text()) for path in (root / "src" / "dlh").glob("*.py")]
    bench = [ast.parse((root / "perfbench" / f).read_text()) for f in ("workloads.py", "inputs.py", "reference.py")]

    def reads(tree, skip=None) -> set:
        """The attribute names that `tree` reads, outside the definition `skip`."""
        out, todo = set(), [tree]
        while todo:
            node = todo.pop()
            if node is not skip:
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    out.add(node.attr)
                todo += ast.iter_child_nodes(node)
        return out

    members = [(cls.name, f) for tree in src for cls in tree.body if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
    assert ("Grid2D", "check_adequate") in {(c, f.name) for c, f in members}
    benchmark = set().union(*map(reads, bench))
    unread = [f"{c}.{f.name}" for c, f in members
              if f.name not in benchmark and not any(f.name in reads(tree, skip=f) for tree in src)]
    assert unread == []


def test_no_test_module_imports_another():
    # what several test modules share lives in a helper module (tests/_*.py),
    # so a test module that fails to collect takes no other module with it
    import ast

    imports = [
        f"{path.name}: {name}"
        for path in Path(__file__).parent.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if name.split(".")[0].startswith("test_")
    ]
    assert imports == []


def test_oracle_check_at_a_strong_field(capsys, tmp_path):
    # |nu|^2 = 0.78: inside the truncation guards, but a fixed 16-level
    # basis would put the two displacement routes 1e-7 apart
    cfg = tmp_path / "strong.json"
    cfg.write_text(json.dumps({"mass_kg": 1.0, "alpha_Fm2": 0.5, "hbar": 1.0, "lambda_Vm2": 2.0,
                               "B_T": 1.0, "Ex_Vm": 2.5, "Ey_Vm": 0.0}))
    rc, out, err = run_cli(capsys, "oracle-check", "--grid-points", "128", "--config", str(cfg))
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["cross_checks"]["dual_route_displacement_ok"] is True
    assert payload["sign_report"]["operating_point"]["Ex_prime"] == 2.5


@pytest.mark.parametrize("field", [{"lambda_Vm2": -2.0}, {"B_T": -1.0}])
def test_oracle_check_passes_on_the_sigma_minus_branch(capsys, tmp_path, field):
    # the grid's curvature is +w^2/(8 u^2) on both chiralities, and its fd connection meets the closed form
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FIELDS_ON, **field}))
    rc, out, err = run_cli(capsys, "oracle-check", "--config", str(cfg))
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["sign_report"]["curvature"]["closed_form"] == 0.25
    assert payload["sign_report"]["curvature"]["measured"] == pytest.approx(0.25, abs=1e-10)


def test_oracle_check_names_a_failed_dual_route(capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr("dlh.displaced.displacement_matrix", disagree)
    rc, out, err = run_cli(capsys, "oracle-check", "--grid-points", "128")
    assert rc == 3
    assert json.loads(out)["pass"] is False
    assert "oracle cross-validation failed: dual_route_displacement_ok" in err


def test_box_sweep_rows_equal_single_holonomies(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--named", "ABCHEFA", "--sweep", "Ey2=0.6,1.3",
                         "--sweep", "lam2=2.5,3.5")
    assert rc == 0
    comments, lines = split_csv(out)
    assert comments == ["# kind = ABCHEFA"]
    assert lines[0] == "Ey2,lam2,S_closed_form,identity_distance,unitarity_defect,convergence_estimate,steps_used"
    for line in lines[1:]:
        ey2, lam2, s_closed, dist, defect, estimate, steps = line.split(",")
        rc, hol, _ = run_cli(capsys, "holonomy", "--named", "ABCHEFA", "--Ey2", ey2, "--lam2", lam2,
                             "--steps", "512", "--target", "0")
        rc_phase, phase, _ = run_cli(capsys, "phase", "--named", "ABCHEFA", "--Ey2", ey2, "--lam2", lam2)
        assert rc == rc_phase == 0
        payload = json.loads(hol)
        assert float(dist) == payload["identity_distance"]
        assert float(defect) == payload["unitarity_defect"]
        assert float(estimate) == payload["convergence_estimate"]
        assert int(steps) == payload["steps"]
        assert float(s_closed) == json.loads(phase)["S_closed_form"]


def test_c1_sweep_rows_equal_single_phases(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--named", "C1", "--sweep", "area=0.3,1.7")
    assert rc == 0
    comments, lines = split_csv(out)
    assert comments == ["# kind = C1_rectangle"]
    header, *rows = [line.split(",") for line in lines]
    for row in rows:
        rc, phase, _ = run_cli(capsys, "phase", "--named", "C1", "--area", row[0])
        assert rc == 0
        payload = json.loads(phase)
        assert [float(v) for v in row[1:]] == [payload[k] for k in header[1:]]


README = Path(__file__).parents[1] / "README.md"
# the config of the connection example, whose header shows its point (0.3, 0.7, 2.0, 1.0) at u = 0.5
FIELDS_ON = {"mass_kg": 1.0, "alpha_Fm2": 0.5, "hbar": 1.0, "lambda_Vm2": 2.0, "B_T": 1.0, "Ex_Vm": 0.3, "Ey_Vm": 0.7}


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ dlh ...` line of README's code blocks with the output lines shown under it."""
    examples, shown, inside = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            inside, shown = not inside, None
        elif inside and line.startswith("$ "):
            shown = []
            examples.append((line[2:], shown))
        elif shown is not None:
            shown.append(line)
    for _, shown in examples:
        while shown and not shown[-1].strip():
            shown.pop()
    return examples


def _shown_pattern(shown: list[str]) -> str:
    """The shown lines as a regex of the whole output: each line verbatim, a `...` line any run of lines."""
    return "".join(r"(?:.*\n)*?" if line.strip() == "..." else re.escape(line) + r"\n" for line in shown)


_README_EXAMPLES = _readme_examples()


def test_readme_python_example_prints_what_its_comments_show():
    # each ```python block runs statement by statement; a statement whose line
    # ends in `# value` must print exactly that value
    import ast
    import contextlib
    import io

    blocks, block = [], None
    for line in README.read_text().splitlines():
        if block is None and line.startswith("```python"):
            block = []
        elif block is not None and line.startswith("```"):
            blocks.append(block)
            block = None
        elif block is not None:
            block.append(line)
    checked = []
    for lines in blocks:
        namespace: dict = {}
        for statement in ast.parse("\n".join(lines)).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            tail = lines[statement.end_lineno - 1][statement.end_col_offset:].strip()
            if tail.startswith("#"):
                assert out.getvalue() == tail[1:].strip() + "\n", tail
                checked.append(tail[1:].strip())
    assert "-0.75" in checked


@pytest.mark.parametrize("command, shown", _README_EXAMPLES, ids=[command for command, _ in _README_EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, monkeypatch, tmp_path, command, shown):
    if "my_loop.txt" in command:
        pytest.skip("README gives no vertex file for this example")
    (tmp_path / "fields_on.json").write_text(json.dumps(FIELDS_ON))
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(command, comments=True)
    assert program == "dlh"
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    if shown:
        assert re.fullmatch(_shown_pattern(shown), out), out
