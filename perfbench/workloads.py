"""The three benchmark workloads: seeded inputs, references, tasks and gates.

Every workload draws its inputs from ``--seed`` alone, computes its
references before anything is timed, and then offers a fixed task list. A
task's ``run`` is the timed call into the program; its ``check`` compares the
result with the reference and returns the error reached, raising
:class:`Mismatch` when a gate is missed.

holonomy_refine
    ``holonomy_path_ordered`` at target 1e-8 on window (0, 3): the three box
    itineraries at their default corners (closed-form reference) and seeded
    rotating polygons with Ex' varying (ODE reference, see ``reference.py``).
oracle_grid
    ``wilson_loop_oracle`` on a seeded box loop, ``fd_connection_matrix`` for
    all four parameters at a seeded operating point, and
    ``sign_convention_report``, on the default 256-point grid.
cli_batch
    A fixed script of ``dlh`` calls, run as subprocesses (or in-process
    through ``dlh.cli.main`` for the traced pass), each checked against
    library-computed references and against its own first output, byte for
    byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

BOX_KINDS = ("ABCHEFA", "ABCHGFA", "ADCHEFA")
# desk-scale particle of the CLI default: u = 0.5
DESK = {"mass": 1.0, "alpha": 0.5, "hbar": 1.0}
# natural units, hbar = alpha = 1: u = 1/sqrt(8)
NATURAL = {"mass": 1.0, "alpha": 1.0, "hbar": 1.0}


class Mismatch(Exception):
    """A task's output missed its reference or its accuracy gate."""


@dataclass
class Task:
    name: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], float]


def _max_dev(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


def _gate(what: str, err: float, tol: float) -> float:
    if not err <= tol:
        raise Mismatch(f"{what}: error {err:.3e} above gate {tol:.1e}")
    return err


def _adequate(grid, config, point) -> bool:
    """Grid2D.check_adequate at one control point, as the oracle applies it."""
    from dlh.errors import ValidationError
    from dlh.params import derive_scales

    sc = derive_scales(config.at_point(*point))
    try:
        grid.check_adequate(sc.l_m, shift=math.sqrt(2.0) * sc.l_m * abs(sc.nu))
    except ValidationError:
        return False
    return True


def _operating_point(rng, grid, particle: dict) -> dict:
    """Seeded desk-scale point (Ex', Ey', lambda, B) on which `grid` is adequate."""
    from dlh.params import PhysicalConfig

    base = PhysicalConfig(lambda_density=2.0, B=1.0, **particle)
    while True:
        point = [
            round(float(rng.uniform(-0.6, 0.6)), 6),
            round(float(rng.uniform(-0.8, 0.8)), 6),
            round(float(rng.uniform(2.0, 3.0)), 6),
            round(float(rng.uniform(1.0, 1.5)), 6),
        ]
        if _adequate(grid, base, point):
            return dict(particle, Ex_prime=point[0], Ey_prime=point[1], lambda_density=point[2], B=point[3])


class Workload:
    """Seeded spec, references and task list of one workload."""

    name = ""
    PROBE = "small"  # host-probe kind (calibrate.py) matching the workload's work

    def __init__(self, seed: int, shrink: bool = False, workdir: Path = Path("."), env: dict | None = None) -> None:
        self.shrink = shrink
        self.workdir = workdir
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.spec: dict = {}
        # benchmark self-checks: name -> (deviation, tolerance)
        self.selfcheck: dict[str, tuple[float, float]] = {}
        self._generate()

    def _generate(self) -> None:
        """Draw the inputs from the seed and compute their references."""
        raise NotImplementedError

    def build(self) -> dict:
        return inputs.build(self.name, self.spec)

    def tasks(self, objs: dict, inprocess: bool = False) -> list[Task]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class HolonomyRefine(Workload):
    name = "holonomy_refine"
    WINDOW = (0, 3)
    GAP_MIN = 1e-4  # ordered-vs-unordered gap a rotating loop must show
    SELFCHECK_TOL = 1e-11  # ODE reference vs box closed form

    def _generate(self) -> None:
        from dlh import holonomy as hol
        from dlh.params import PhysicalConfig, derive_scales

        from reference import ode_holonomy

        config = dict(DESK, lambda_density=2.0, B=1.0)
        u = derive_scales(PhysicalConfig(**config)).u
        self.target = 1e-6 if self.shrink else 1e-8
        box = [{"kind": k, "ey": [0.0, 1.0], "lam": [1.0, 4.0], "b": [1.0, 4.0]} for k in BOX_KINDS]
        if self.shrink:
            box = box[:1]
        self.refs: list[np.ndarray] = []
        for b in box:
            self.refs.append(hol.commuting_holonomy(hol.area_closed_form(b["kind"], b["ey"], b["lam"], b["b"]), u, self.WINDOW))
            # the ODE route must reproduce the closed form on the commuting family
            dev = _max_dev(ode_holonomy(inputs.box_from_spec(b).vertices, u, self.WINDOW), self.refs[-1])
            self.selfcheck[f"ode_vs_closed_form:{b['kind']}"] = (dev, self.SELFCHECK_TOL)
        # Rotating loops: a fixed family of random quadrilaterals (stream 0),
        # each turned by a seeded angle in the (Ex', Ey') plane and jittered.
        # The turn conjugates every step generator by diag(e^{i m theta}), so
        # it changes the inputs but not the work; the small jitter keeps the
        # step counts of the family from moving between seeds.
        shapes = np.random.default_rng(0)
        rotating = []
        while len(rotating) < (1 if self.shrink else 8):
            base = np.column_stack(
                [
                    shapes.uniform(-0.75, 0.75, 4),
                    shapes.uniform(-0.75, 0.75, 4),
                    shapes.uniform(1.0, 4.0, 4),
                    shapes.uniform(1.0, 4.0, 4),
                ]
            )
            theta = self.rng.uniform(0.0, 2.0 * np.pi)
            turn = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
            corners = np.column_stack(
                [base[:, :2] @ turn + self.rng.uniform(-0.02, 0.02, (4, 2)), base[:, 2:] + self.rng.uniform(-0.04, 0.04, (4, 2))]
            ).round(6)
            verts = np.vstack([corners, corners[:1]])
            ref = ode_holonomy(verts, u, self.WINDOW)
            path = hol.ParameterPath(verts)
            if _max_dev(ref, hol.unordered_holonomy(path, u, window=self.WINDOW)) < self.GAP_MIN:
                continue
            rotating.append(verts.tolist())
            self.refs.append(ref)
        self.spec = {"config": config, "window": list(self.WINDOW), "target": self.target, "box": box, "rotating": rotating}

    def tasks(self, objs: dict, inprocess: bool = False) -> list[Task]:
        from dlh import holonomy as hol

        u, target, gate = objs["u"], self.target, 10.0 * self.target
        named = [(f"box:{p.kind}", "box", p) for p in objs["box"]]
        named += [(f"rotating:{i}", "rotating", p) for i, p in enumerate(objs["rotating"])]
        out = []
        for (name, group, path), ref in zip(named, self.refs):

            def run(path=path):
                return hol.holonomy_path_ordered(path, u, window=self.WINDOW, target=target)

            def check(res, ref=ref, name=name):
                return _gate(name, _max_dev(res.matrix, ref), gate)

            out.append(Task(name, group, run, check))
        return out


# ---------------------------------------------------------------------------


class OracleGrid(Workload):
    name = "oracle_grid"
    PROBE = "grid"
    GRID = {"extent": 12.0, "points": 256}
    LINKS = 64
    FD_WINDOW = (0, 3)
    # tolerances of the existing oracle tests at these grid sizes and link counts
    WILSON_TOL = 1e-4  # 64-link Wilson loop, as in acceptance check C6
    FD_TOL = 1e-6  # fd connection vs closed form on the 256-point grid
    REPORT_TOL = {"diagonal": 1e-6, "off_diagonal": 1e-4, "curvature": 1e-2}

    def _generate(self) -> None:
        from dlh import connection as con
        from dlh import holonomy as hol
        from dlh.oracle import Grid2D
        from dlh.params import PhysicalConfig, derive_scales

        grid = Grid2D(**self.GRID)
        wcfg = PhysicalConfig(lambda_density=1.0, B=1.0, **NATURAL)
        # One itinerary with fixed side lengths, placed by the seed inside
        # lambda, B in [1, 2]: every seed then gets the same links, and the
        # same number of them on the Ey' = 0 legs, where the field vanishes and
        # the oracle skips the FFT translation.
        kind, ey = "ABCHEFA", [0.0, 0.5]
        while True:
            lam1, b1 = (round(float(x), 6) for x in self.rng.uniform(1.0, 1.5, 2))
            lam, b = [lam1, lam1 + 0.5], [b1, b1 + 0.5]
            s = hol.area_closed_form(kind, ey, lam, b)
            corners = [(0.0, e, la, bb) for e in ey for la in lam for bb in b]
            if abs(s) >= 0.02 and all(_adequate(grid, wcfg, c) for c in corners):
                break
        u_nat = derive_scales(wcfg).u
        self.wilson_ref = hol.commuting_holonomy(s, u_nat, (0, 1))
        fd_config = _operating_point(self.rng, grid, DESK)
        point = (fd_config["Ex_prime"], fd_config["Ey_prime"], fd_config["lambda_density"], fd_config["B"])
        u_desk = derive_scales(PhysicalConfig(**fd_config)).u
        self.params = con.CONTROL_PARAMS[:1] if self.shrink else con.CONTROL_PARAMS
        self.fd_refs = {p: con.connection_matrix(p, point, u_desk, 0, self.FD_WINDOW).entries for p in self.params}
        self.spec = {
            "grid": self.GRID,
            "wilson": {"config": asdict(wcfg), "kind": kind, "ey": ey, "lam": lam, "b": b},
            "fd": {"config": fd_config, "point": list(point)},
        }

    def tasks(self, objs: dict, inprocess: bool = False) -> list[Task]:
        from dlh import oracle as orc

        grid, wcfg, loop = objs["grid"], objs["wilson_config"], objs["wilson_loop"]
        fcfg, point = objs["fd_config"], objs["fd_point"]
        out = [
            Task(
                "wilson",
                "wilson",
                lambda: orc.wilson_loop_oracle(grid, wcfg, loop, n=0, window=(0, 1), steps=self.LINKS),
                lambda res: _gate("wilson", _max_dev(res.matrix, self.wilson_ref), self.WILSON_TOL),
            )
        ]
        for p in self.params:
            out.append(
                Task(
                    f"fd:{p}",
                    "fd",
                    lambda p=p: orc.fd_connection_matrix(grid, fcfg, p, point, 0, self.FD_WINDOW),
                    lambda res, p=p: _gate(f"fd:{p}", _max_dev(res, self.fd_refs[p]), self.FD_TOL),
                )
            )
        out.append(Task("report", "report", lambda: orc.sign_convention_report(fcfg, grid), self._check_report))
        return out

    def _check_report(self, rep: dict) -> float:
        devs = {
            "diagonal": rep["diagonal"]["deviation_resolved"],
            "off_diagonal": rep["off_diagonal"]["deviation_resolved"],
            "curvature": rep["curvature"]["deviation"],
        }
        for key, tol in self.REPORT_TOL.items():
            _gate(f"report {key}", devs[key], tol)
        _gate("report curvature/area-law ratio", abs(rep["curvature"]["measured_over_area_law"] + 2.0), 1e-2)
        return max(devs.values())


# ---------------------------------------------------------------------------


def _close(what: str, got, want, rtol: float = 1e-9, atol: float = 1e-12) -> float:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape} != {want.shape}")
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    if not dev <= atol + rtol * scale:
        raise Mismatch(f"{what}: deviation {dev:.3e} from the library reference")
    return dev


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]


def _pairs(matrix) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in matrix])


def _numeric_leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numeric_leaves(v, f"{prefix}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _numeric_leaves(v, f"{prefix}[{i}]")
    elif isinstance(obj, (int, float, complex, np.floating)) and not isinstance(obj, bool):
        yield prefix, obj


class CliBatch(Workload):
    name = "cli_batch"
    HOLONOMY_TARGET = 1e-7  # the CLI default
    TIMEOUT_S = 120

    def _generate(self) -> None:
        from dlh.oracle import Grid2D

        config = _operating_point(self.rng, Grid2D(extent=12.0, points=128), DESK)
        rng = self.rng
        kind = BOX_KINDS[int(rng.integers(3))]
        ey1 = round(float(rng.uniform(-0.5, 0.5)), 4)
        corners = {
            "Ey1": ey1,
            "Ey2": round(ey1 + float(rng.uniform(0.5, 1.5)), 4),
            "lam1": round(float(rng.uniform(1.0, 2.0)), 4),
            "lam2": round(float(rng.uniform(2.5, 4.0)), 4),
            "B1": round(float(rng.uniform(1.0, 2.0)), 4),
            "B2": round(float(rng.uniform(2.5, 4.0)), 4),
        }
        area = round(float(rng.uniform(0.5, 2.0)), 4)
        sweep_ey2 = sorted(round(float(x), 4) for x in rng.uniform(0.5, 1.5, 4))
        sweep_lam2 = sorted(round(float(x), 4) for x in rng.uniform(2.0, 5.0, 4))
        self.config_file = self.workdir / "config.json"
        self.config_file.write_text(
            json.dumps(
                {
                    "mass_kg": config["mass"],
                    "alpha_Fm2": config["alpha"],
                    "hbar": config["hbar"],
                    "lambda_Vm2": config["lambda_density"],
                    "B_T": config["B"],
                    "Ex_Vm": config["Ex_prime"],
                    "Ey_Vm": config["Ey_prime"],
                }
            )
        )
        cfg = ["--config", str(self.config_file)]
        box_flags = [x for k, v in corners.items() for x in (f"--{k}", repr(v))]
        script = {
            "derive": ["derive"],
            "spectrum": ["spectrum"],
            "connection_Ex": ["connection", "--param", "Ex"],
            "connection_Ey": ["connection", "--param", "Ey"],
            "connection_lambda": ["connection", "--param", "lambda"],
            "connection_B": ["connection", "--param", "B"],
            "phase_C1": ["phase", "--named", "C1", "--area", repr(area)],
            "phase_box": ["phase", "--named", kind, *box_flags],
            "displace": ["displace", "--n-max", "40"],
            "holonomy": ["holonomy", "--named", "ABCHEFA"],
            "sweep": [
                "sweep",
                "--named",
                "ABCHEFA",
                "--sweep",
                "Ey2=" + ",".join(map(repr, sweep_ey2)),
                "--sweep",
                "lam2=" + ",".join(map(repr, sweep_lam2)),
            ],
            "oracle_check": ["oracle-check", "--grid-points", "128"],
        }
        if self.shrink:
            script = {k: script[k] for k in ("derive", "spectrum", "connection_Ex", "phase_C1", "phase_box")}
        self.script = {k: v + cfg for k, v in script.items()}
        self.spec = {"config": config, "script": self.script}
        self.first_stdout: dict[str, bytes] = {}
        self.checks = self._references(config, kind, corners, area, sweep_ey2, sweep_lam2)

    # -- references --------------------------------------------------------

    def _references(self, config, kind, corners, area, sweep_ey2, sweep_lam2) -> dict[str, Callable[[str], float]]:
        from dlh import connection as con
        from dlh import displaced as dis
        from dlh import fock
        from dlh import holonomy as hol
        from dlh import oracle as orc
        from dlh import params as par

        pc = par.PhysicalConfig(**config)
        sc = par.derive_scales(pc)
        point = (pc.Ex_prime, pc.Ey_prime, pc.lambda_density, pc.B)
        c = corners
        ey, lam, bb = (c["Ey1"], c["Ey2"]), (c["lam1"], c["lam2"]), (c["B1"], c["B2"])
        checks: dict[str, Callable[[str], float]] = {}

        regime = par.validate_regime(pc)
        shift = dis.position_shift(pc)
        derive_want = {
            "omega": sc.omega, "sigma": sc.sigma, "l_m": sc.l_m, "u": sc.u, "nu_re": sc.nu.real,
            "nu_im": sc.nu.imag, "energy_quantum": sc.energy_quantum, "hbar": sc.hbar,
            "shift_x": shift[0], "shift_y": shift[1],
            "regime_mass_correction_ratio": regime.mass_correction_ratio,
            "regime_dipole_energy": regime.dipole_energy,
        }

        def derive(text):
            got = dict(_csv_rows(text)[1:])
            if got.get("regime_verdict") != regime.verdict:
                raise Mismatch("derive: regime verdict differs")
            return max(_close(f"derive {k}", float(got[k]), v) for k, v in derive_want.items())

        checks["derive"] = derive

        basis = fock.build_basis(3, 3, sigma=sc.sigma)
        energy = np.diag(fock.hamiltonian_matrix(basis, sc).entries).real / sc.energy_quantum
        lz = np.diag(fock.lz_matrix(basis, sc).entries).real / sc.hbar

        def spectrum(text):
            rows = _csv_rows(text)[1:]
            got = np.array([[float(x) for x in r] for r in rows])
            idx = [basis.index(int(n), int(m)) for n, m in got[:, :2]]
            if len(idx) != basis.size:
                raise Mismatch("spectrum: row count differs")
            return max(_close("spectrum E", got[:, 3], energy[idx]), _close("spectrum Lz", got[:, 4], lz[idx]))

        checks["spectrum"] = spectrum

        for task, param in (("connection_Ex", "Ex_prime"), ("connection_Ey", "Ey_prime"),
                            ("connection_lambda", "lambda_density"), ("connection_B", "B")):
            want = con.connection_matrix(param, point, sc.u, 0, (0, 3)).entries

            def connection(text, want=want, task=task):
                got = np.zeros_like(want)
                for r, col, re, im in _csv_rows(text)[1:]:
                    got[int(r), int(col)] = complex(float(re), float(im))
                return _close(task, got, want)

            checks[task] = connection

        c1 = hol.abelian_phase(
            hol.rectangle_loop("Ex_prime", "Ey_prime", (0.0, area), (0.0, 1.0), (0.0, 0.0, pc.lambda_density, pc.B)), sc.u
        )

        def phase_c1(text):
            got = json.loads(text)
            want = {"signed_area": c1.signed_area, "curvature": c1.curvature,
                    "gamma_line_integral": c1.gamma_line_integral, "gamma_area_law": c1.gamma_area_law}
            return max(_close(f"phase_C1 {k}", got[k], v) for k, v in want.items())

        checks["phase_C1"] = phase_c1
        s_quad = hol.loop_area_integral(hol.box_loop(kind, ey, lam, bb))
        s_closed = hol.area_closed_form(kind, ey, lam, bb)

        def phase_box(text):
            got = json.loads(text)
            return max(_close("phase_box S_quadrature", got["S_quadrature"], s_quad),
                       _close("phase_box S_closed_form", got["S_closed_form"], s_closed),
                       _close("phase_box angle_prefactor", got["angle_prefactor"], s_quad / (4.0 * sc.u)))

        checks["phase_box"] = phase_box
        if self.shrink:
            return checks

        state = dis.displaced_state(0, 0, sc.nu, fock.build_basis(40, 12, sigma=sc.sigma))

        def displace(text):
            got = json.loads(text)
            return max(_close("displace coefficients", _pairs([got["coefficients"]])[0], state.coefficients),
                       _close("displace trunc_deficit", got["trunc_deficit"], state.trunc_deficit, atol=1e-12))

        checks["displace"] = displace
        default = {"ey": (0.0, 1.0), "lam": (1.0, 4.0), "b": (1.0, 4.0)}
        loop = hol.box_loop("ABCHEFA", default["ey"], default["lam"], default["b"])
        lib = hol.holonomy_path_ordered(loop, sc.u, window=(0, 3), target=self.HOLONOMY_TARGET)
        exact = hol.commuting_holonomy(hol.area_closed_form("ABCHEFA", default["ey"], default["lam"], default["b"]), sc.u, (0, 3))

        def holonomy(text):
            got = json.loads(text)
            if got["steps"] != lib.steps:
                raise Mismatch(f"holonomy: steps {got['steps']} != {lib.steps}")
            m = _pairs(got["matrix"])
            _close("holonomy matrix", m, lib.matrix)
            return _gate("holonomy vs closed form", _max_dev(m, exact), 10.0 * self.HOLONOMY_TARGET)

        checks["holonomy"] = holonomy
        sweep_want = []
        for e2 in sweep_ey2:
            for l2 in sweep_lam2:
                ey_s, lam_s = (default["ey"][0], e2), (default["lam"][0], l2)
                res = hol.holonomy_path_ordered(hol.box_loop("ABCHEFA", ey_s, lam_s, default["b"]), sc.u, window=(0, 3), steps=512, target=None)
                sweep_want.append([e2, l2, hol.area_closed_form("ABCHEFA", ey_s, lam_s, default["b"]),
                                   float(np.abs(res.matrix - np.eye(4)).max()), res.unitarity_defect,
                                   res.convergence_estimate, res.steps])

        def sweep(text):
            rows = _csv_rows(text)
            if rows[0] != ["Ey2", "lam2", "S_closed_form", "identity_distance", "unitarity_defect", "convergence_estimate", "steps_used"]:
                raise Mismatch(f"sweep: header {rows[0]}")
            return _close("sweep rows", [[float(x) for x in r] for r in rows[1:]], sweep_want)

        checks["sweep"] = sweep
        report = orc.sign_convention_report(pc, orc.Grid2D(extent=12.0, points=128))
        chain = con.chain_rule_consistency(point, sc.u, 0, (0, 4))["max"]

        def oracle_check(text):
            got = json.loads(text)
            if got["pass"] is not True or got["cross_checks"]["dual_route_displacement_ok"] is not True:
                raise Mismatch("oracle-check: reported failure")
            want = dict(_numeric_leaves(report))
            have = dict(_numeric_leaves(got["sign_report"]))
            if want.keys() != have.keys():
                raise Mismatch("oracle-check: sign report fields differ")
            dev = max(_close(f"oracle-check {k}", have[k], v) for k, v in want.items())
            return max(dev, _close("oracle-check chain", got["cross_checks"]["chain_vs_closed_max_dev"], chain, atol=1e-15))

        checks["oracle_check"] = oracle_check
        return checks

    # -- tasks -------------------------------------------------------------

    def _subprocess(self, argv: list[str]):
        proc = subprocess.run(
            [sys.executable, "-m", "dlh.cli", *argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            timeout=self.TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _inprocess(argv: list[str]):
        cli = sys.modules["dlh.cli"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue().encode(), err.getvalue().encode()

    def _check(self, name: str, result) -> float:
        rc, stdout, stderr = result
        if rc != 0:
            raise Mismatch(f"{name}: exit {rc}: {stderr.decode(errors='replace').strip()[-300:]}")
        first = self.first_stdout.setdefault(name, stdout)
        if stdout != first:
            raise Mismatch(f"{name}: stdout differs from the first run of the same invocation")
        try:
            return self.checks[name](stdout.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise Mismatch(f"{name}: unparseable output ({type(exc).__name__}: {exc})") from exc

    def tasks(self, objs: dict, inprocess: bool = False) -> list[Task]:
        runner = self._inprocess if inprocess else self._subprocess
        return [
            Task(name, name, lambda argv=argv: runner(argv), lambda res, name=name: self._check(name, res))
            for name, argv in self.script.items()
        ]


WORKLOADS = {w.name: w for w in (HolonomyRefine, OracleGrid, CliBatch)}
