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


@pytest.mark.parametrize("nu", [("--nu-re", "nan"), ("--nu-im=-inf",), ("--nu-re", "inf", "--nu-im", "0.1")])
def test_displace_refuses_a_non_finite_nu(capsys, nu):
    rc, out, err = run_cli(capsys, "displace", *nu)
    assert (rc, out) == (2, "")
    assert "nu must be finite" in err


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
    rc, _, err = run_cli(capsys, "holonomy", "--vertices", str(vf), "--named", "C1")
    assert rc == 2 and "mutually exclusive" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 1\n0 1 1\n")
    rc, _, err = run_cli(capsys, "holonomy", "--vertices", str(bad))
    assert rc == 2


@pytest.mark.parametrize("vertex", ["0.6 0.9 -2 1", "0.6 0.9 2 -1"], ids=["lambda", "B"])
def test_holonomy_rejects_the_sigma_minus_branch(capsys, tmp_path, vertex):
    # the engine and the Wilson oracle cover lambda, B > 0 only
    vf = tmp_path / "loop.txt"
    vf.write_text(f"0 0 1 1\n0.6 0.2 1 1\n{vertex}\n0 0 1 1\n")
    rc, out, err = run_cli(capsys, "holonomy", "--vertices", str(vf))
    assert rc == 2 and out == ""
    assert "validation error" in err and "positive" in err


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


def test_config_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mass_kg": 1.0, "alpha_Fm2": 1.0, "lambda_Vm2": 1.0,
                               "B_T": 1.0, "Ex_Vm": 0.0, "Ey_Vm": 0.0, "charge_C": 2.0}))
    rc, _, err = run_cli(capsys, "derive", "--config", str(bad))
    assert rc == 2
    assert "charge_C" in err
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"mass_kg": 1.0}))
    rc, _, err = run_cli(capsys, "derive", "--config", str(missing))
    assert rc == 2 and "alpha_Fm2" in err
    nonjson = tmp_path / "nonjson.json"
    nonjson.write_text("{not json")
    rc, _, err = run_cli(capsys, "derive", "--config", str(nonjson))
    assert rc == 2
    boolval = tmp_path / "bool.json"
    boolval.write_text(json.dumps({"mass_kg": True, "alpha_Fm2": 1.0, "lambda_Vm2": 1.0,
                                   "B_T": 1.0, "Ex_Vm": 0.0, "Ey_Vm": 0.0}))
    rc, _, err = run_cli(capsys, "derive", "--config", str(boolval))
    assert rc == 2
    rc, _, err = run_cli(capsys, "derive", "--config", str(tmp_path / "absent.json"))
    assert rc == 2


_GOOD_CONFIG = {"mass_kg": 1.0, "alpha_Fm2": 0.5, "hbar": 1.0, "lambda_Vm2": 2.0, "B_T": 1.0,
                "Ex_Vm": 0.3, "Ey_Vm": 0.7}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", sorted(_GOOD_CONFIG))
def test_non_finite_config_values_exit_2(capsys, tmp_path, key, value):
    # json reads the NaN and Infinity literals as floats
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_GOOD_CONFIG, key: value}))
    rc, out, err = run_cli(capsys, "derive", "--config", str(cfg))
    assert (rc, out) == (2, "") and "must be a finite number" in err


@pytest.mark.parametrize("value", [True, 1.0, -1.0, "1"])
def test_mistyped_sigma_override_exits_2(capsys, tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_GOOD_CONFIG, "sigma_override": value}))
    rc, out, err = run_cli(capsys, "derive", "--config", str(cfg))
    assert (rc, out) == (2, "") and "sigma_override" in err
    cfg.write_text(json.dumps({**_GOOD_CONFIG, "sigma_override": -1}))
    rc, out, _ = run_cli(capsys, "derive", "--config", str(cfg))
    assert rc == 0 and "sigma,-1" in out.splitlines()


def test_bad_inputs_exit_2(capsys):
    rc, _, err = run_cli(capsys, "phase", "--named", "Q3")
    assert rc == 2
    rc, _, err = run_cli(capsys, "holonomy", "--named", "ABCHEFA", "--steps", "8")
    assert rc == 2
    rc, _, err = run_cli(capsys, "phase", "--named", "C1", "--area", "-1")
    assert rc == 2
    rc, _, err = run_cli(capsys, "holonomy")
    assert rc == 2 and "path is required" in err
    with pytest.raises(SystemExit) as exc:
        main(["connection", "--param", "B", "--window", "3..1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "window, reason",
    [("3..1", "0 <= m_lo <= m_hi"), ("-1..2", "0 <= m_lo <= m_hi"), ("3", "lo..hi"), ("a..b", "integers")],
)
def test_window_errors_name_their_reason(capsys, window, reason):
    with pytest.raises(SystemExit) as exc:
        main(["connection", "--param", "B", f"--window={window}"])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


def test_writing_to_a_directory_exits_2(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    rc, out, err = run_cli(capsys, "holonomy", "--named", "ABCHEFA", "--out", str(taken))
    assert rc == 2 and "validation error: cannot write" in err
    assert out == ""
    # no temporary file is left beside the target or in it
    assert list(tmp_path.iterdir()) == [taken] and not any(taken.iterdir())


@pytest.mark.parametrize("target", ["-1e-8", "nan", "inf"])
def test_bad_target_exit_2(capsys, target):
    rc, out, err = run_cli(capsys, "holonomy", "--named", "ABCHEFA", f"--target={target}")
    assert rc == 2 and "target" in err
    assert out == ""


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


def test_sweep_validation(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--named", "C1", "--sweep", "Ey2=1,2")
    assert rc == 2 and "does not apply" in err
    rc, _, err = run_cli(capsys, "sweep", "--named", "C1", "--sweep", "area=1")
    assert rc == 2 and "at least 2" in err
    rc, _, err = run_cli(capsys, "sweep", "--named", "C1")
    assert rc == 2
    rc, _, err = run_cli(capsys, "sweep", "--named", "C1", "--sweep", "zz=1,2")
    assert rc == 2 and "unknown sweep axis" in err


def test_sweep_has_no_steps_axis(capsys):
    # the step count is --steps; a swept steps axis would move only steps_used
    rc, out, err = run_cli(capsys, "sweep", "--named", "ABCHEFA", "--sweep", "steps=64,128")
    assert (rc, out) == (2, "")
    assert "unknown sweep axis 'steps'" in err


def test_oracle_check_passes(capsys, tmp_path):
    out_file = tmp_path / "oracle.json"
    rc, _, err = run_cli(capsys, "oracle-check", "--grid-points", "128", "--out", str(out_file))
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["pass"] is True
    assert payload["sign_report"]["diagonal"]["resolved_relative_sign"] == "opposite"
    assert payload["cross_checks"]["ladder_commutator_max_dev"] <= 1e-12
    assert "sign convention report" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dlh.cli", "derive"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("quantity,value")


_CLI_RUN = "import contextlib, io\nfrom dlh.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"

# the dlh modules each subcommand may load, beyond dlh and dlh.cli
_SCALES = {"params", "errors"}
_STATES = _SCALES | {"fock", "displaced", "_linalg"}
_LOOPS = _STATES | {"connection", "holonomy"}
_FOOTPRINTS = {
    ("spectrum",): _SCALES,
    ("derive",): _STATES,
    ("displace", "--n-max", "4"): _STATES,
    ("connection", "--param", "B"): _STATES | {"connection"},
    ("phase", "--named", "C1"): _LOOPS,
    ("holonomy", "--named", "ABCHEFA"): _LOOPS,
    ("sweep", "--named", "C1", "--sweep", "area=1,2"): _LOOPS,
    ("oracle-check", "--grid-points", "128"): _LOOPS | {"oracle"},
}
_PROBES = {
    "import dlh": "import dlh",
    "import dlh.cli": "import dlh.cli",
    "first export": "import dlh\ndlh.derive_scales",
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


def test_package_exports_load_on_first_use(loaded_modules, monkeypatch):
    assert loaded_modules["import dlh"] == {"dlh"}
    assert loaded_modules["first export"] == {"dlh", "dlh.params", "dlh.errors"}
    import dlh
    import dlh.params

    # no cached value: a rebinding in the module, and its undoing, show through
    original = dlh.params.derive_scales
    monkeypatch.setattr(dlh.params, "derive_scales", len)
    assert dlh.derive_scales is len
    monkeypatch.undo()
    assert dlh.derive_scales is original

    namespace: dict = {}
    exec("from dlh import *", namespace)
    for name in dlh.__all__:
        assert namespace[name] is getattr(dlh, name) is not None
        assert name in dir(dlh)
    with pytest.raises(AttributeError):
        dlh.no_such_name


def test_every_export_is_in_its_modules_all():
    # the package table and the modules' __all__ are two lists of one public surface
    import importlib

    import dlh

    for module, names in dlh._EXPORTS.items():
        missing = set(names) - set(importlib.import_module(f"dlh.{module}").__all__)
        assert not missing, (module, missing)


def test_every_dlh_name_the_benchmark_reads_exists():
    # the benchmark imports dlh names and reads them as alias.name; a name
    # dropped from dlh fails here, not as an exception in a benchmark run
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
    assert {"dlh.holonomy.abelian_phase", "dlh.oracle.sign_convention_report",
            "dlh.connection.chain_rule_consistency", "dlh.params.PhysicalConfig", "dlh.cli"} <= checked


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
