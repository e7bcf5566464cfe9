"""Batch front door: subcommand dispatch and deterministic CSV/JSON emission.

Eight subcommands cover the library surface:

    derive        scales (omega, sigma, l_m, u, nu) and regime screening
    spectrum      (n, m, l, E/hw, Lz/hbar) table over a truncated basis
    displace      displaced-state coefficients and truncation deficit
    connection    one connection component on an m-window, entry by entry
    phase         scalar loop functionals (in-plane rectangle or named box loop)
    holonomy      path-ordered window holonomy with convergence diagnostics
    oracle-check  grid cross-validation suite and sign-convention report
    sweep         Cartesian parameter studies of phase/holonomy diagnostics

Each subcommand builds one payload dict and `_emit` renders it, in either
format, by one rule:

- JSON is the payload with sorted keys and indent 2; a complex number is
  [re, im], an array nested lists of those.
- CSV leaves are named by walking the payload in sorted key order: a dict's
  keys get the prefix `group_`, a list or array item the suffix `_0`,
  `_1`, ..., and a complex value splits into `name_re` and `name_im`.
- A payload without a table is `quantity,value` and one row per leaf.
- A payload with a table (`rows`, `coefficients` or `matrix`, named by the
  subcommand) writes `# name = value` for every other leaf, then the table.
  A list of records gives a header of the first record's keys and one row
  per record; a complex array gives its labelled index columns (`n,m`, or
  `row,col` offset by the window's lower edge), then `re,im`.

Outputs are reproducible byte for byte: floats are rendered with repr
(shortest round-trip), row order is fixed, and files are written atomically
(temp file + rename). Exit codes: 0 success, 2 validation error,
3 convergence or cross-validation failure.

Start-up is most of a call's time, so each subcommand imports only the
library modules it calls: `spectrum` loads none beyond `params`, and only
`oracle-check` loads `oracle`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError, ConvergenceError, ValidationError, _check_window
from .params import PhysicalConfig, derive_scales, validate_regime

if TYPE_CHECKING:
    from .holonomy import ParameterPath

__all__ = ["main", "build_parser", "load_config", "DEFAULT_CONFIG"]

# Desk-scale default: u = 0.5 exactly, so the documented phase example
# (`phase --named C1 --area 1.0` -> gamma_area_law = -0.125) works untouched.
DEFAULT_CONFIG = PhysicalConfig(
    mass=1.0, alpha=0.5, hbar=1.0, lambda_density=2.0, B=1.0, Ex_prime=0.0, Ey_prime=0.0
)

# 2019 SI value, used when a config file omits hbar.
HBAR_SI = 1.054571817e-34

# config-file key -> PhysicalConfig field; None marks optional keys
_CONFIG_KEYS = {
    "mass_kg": "mass",
    "alpha_Fm2": "alpha",
    "hbar": "hbar",
    "lambda_Vm2": "lambda_density",
    "B_T": "B",
    "Ex_Vm": "Ex_prime",
    "Ey_Vm": "Ey_prime",
    "sigma_override": "sigma_override",
}
_OPTIONAL_KEYS = {"hbar", "sigma_override"}

_PARAM_ALIASES = {
    "Ex": "Ex_prime",
    "Ey": "Ey_prime",
    "lam": "lambda_density",
    "lambda": "lambda_density",
    "Ex_prime": "Ex_prime",
    "Ey_prime": "Ey_prime",
    "lambda_density": "lambda_density",
    "B": "B",
}

_CORNERS = ("Ey1", "Ey2", "lam1", "lam2", "B1", "B2")
_SWEEP_AXES = ("area", *_CORNERS)


# ---------------------------------------------------------------------------
# config handling


def load_config(path: str | None) -> PhysicalConfig:
    """Parse a JSON config file against the strict schema.

    Schema keys: mass_kg, alpha_Fm2, lambda_Vm2, B_T, Ex_Vm, Ey_Vm are
    required; hbar (default: SI value) and sigma_override (default: None)
    are optional. Any unknown key aborts, naming the key.
    """
    if path is None:
        return DEFAULT_CONFIG
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
    missing = [k for k in _CONFIG_KEYS if k not in raw and k not in _OPTIONAL_KEYS]
    if missing:
        raise ValidationError(f"missing config keys: {', '.join(missing)}")
    kwargs: dict = {}
    for key, value in raw.items():
        field = _CONFIG_KEYS[key]
        if key == "sigma_override":  # PhysicalConfig checks it
            kwargs[field] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"config key {key!r} must be a number, got {value!r}")
        kwargs[field] = float(value)
    kwargs.setdefault("hbar", HBAR_SI)
    return PhysicalConfig(**kwargs)


def _config_point(config: PhysicalConfig) -> tuple[float, float, float, float]:
    return (config.Ex_prime, config.Ey_prime, config.lambda_density, config.B)


# ---------------------------------------------------------------------------
# deterministic emission


def _fmt(value) -> str:
    """Fixed scalar rendering: repr for floats (shortest round trip)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _json_value(value):
    """JSON form of a payload value: a complex number becomes [re, im]."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_value(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


def _leaves(value, name: str = ""):
    """(name, scalar) pairs of a payload value in the CSV naming of the module rule."""
    prefix = f"{name}_" if name else ""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], prefix + key)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{prefix}{i}")
    elif isinstance(value, (complex, np.complexfloating)):
        yield prefix + "re", value.real
        yield prefix + "im", value.imag
    else:
        yield name, value


def _emit(args, payload: dict, table: str | None = None, index=None) -> None:
    """Write a subcommand's payload to --out in --format, by the module rule.

    `table` names the payload entry that the CSV writes as its table: a list
    of records, or a complex array whose entries `index` labels as
    (column names, one label tuple per entry in row-major order).
    """
    if args.format == "json":
        text = json.dumps(_json_value(payload), indent=2, sort_keys=True)
    else:
        scalars = _leaves({k: v for k, v in payload.items() if k != table})
        if table is None:
            lines = ["quantity,value", *(f"{k},{_fmt(v)}" for k, v in scalars)]
        else:
            lines = [f"# {k} = {_fmt(v)}" for k, v in scalars]
            entries = payload[table]
            if index is None:
                header, rows = list(entries[0]), [record.values() for record in entries]
            else:
                header = [*index[0], "re", "im"]
                rows = [(*label, z.real, z.imag) for label, z in zip(index[1], np.ravel(entries))]
            lines.append(",".join(header))
            lines.extend(",".join(map(_fmt, row)) for row in rows)
        text = "\n".join(lines)
    _write_text(args.out, text + "\n")


def _write_text(out: str | None, text: str) -> None:
    """Atomic write (temp file + rename); stdout when no path is given."""
    if out is None:
        sys.stdout.write(text)
        return
    target = Path(out)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:  # e.g. a missing directory, or a directory at `out`
        raise ValidationError(f"cannot write {out}: {exc}") from exc
    finally:
        if tmp is not None and os.path.lexists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# shared argument plumbing


def _parse_window(text: str) -> tuple[int, int]:
    # argparse replaces the message of any other error from a type function
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"window must look like lo..hi, got {text!r}")
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"window bounds must be integers, got {text!r}") from None
    try:
        return _check_window(bounds)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _normalize_kind(name: str) -> str:
    from . import holonomy as _holonomy

    if name == "C1":
        return "C1_rectangle"
    if name in ("C1_rectangle", *_holonomy.BOX_KINDS):
        return name
    raise ValidationError(
        f"unknown named path {name!r}; expected C1, C1_rectangle, ABCHEFA, ABCHGFA or ADCHEFA"
    )


def _read_vertices(path: str) -> np.ndarray:
    """Vertex list file: one vertex per line, four floats (Ex' Ey' lambda B).

    Commas or whitespace separate the numbers; blank lines and lines starting
    with '#' are skipped.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read vertex file {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        bare = line.split("#", 1)[0].strip()
        if not bare:
            continue
        parts = bare.replace(",", " ").split()
        if len(parts) != 4:
            raise ValidationError(
                f"{path}:{lineno}: expected 4 numbers (Ex' Ey' lambda B), got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if len(rows) < 2:
        raise ValidationError(f"vertex file {path} needs at least 2 vertices")
    return np.asarray(rows, dtype=float)


@dataclass(frozen=True)
class _LoopSpec:
    """A loop as the path flags name it: the C1 rectangle, a box itinerary or a vertex file.

    Parsed once per command; `sweep` varies it with dataclasses.replace,
    which repeats the area check.
    """

    kind: str
    area: float
    Ey1: float
    Ey2: float
    lam1: float
    lam2: float
    B1: float
    B2: float
    vertices: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "C1_rectangle" and self.area <= 0:
            raise ValidationError(f"loop area must be positive, got {self.area}")

    @classmethod
    def from_args(cls, args) -> "_LoopSpec":
        vertices = None
        if args.vertices:
            if args.named:
                raise ValidationError("--named and --vertices are mutually exclusive")
            kind, vertices = "custom", _read_vertices(args.vertices)
        elif args.named:
            kind = _normalize_kind(args.named)
        else:
            raise ValidationError("a path is required: pass --named <kind> or --vertices <file>")
        area = 1.0 if args.area is None else args.area
        return cls(kind, area, *(getattr(args, k) for k in _CORNERS), vertices=vertices)

    def _ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.Ey1, self.Ey2), (self.lam1, self.lam2), (self.B1, self.B2)

    def path(self, config: PhysicalConfig) -> ParameterPath:
        from . import holonomy as _holonomy

        if self.kind == "custom":
            return _holonomy.ParameterPath(vertices=self.vertices, kind="custom")
        if self.kind == "C1_rectangle":
            base_point = (0.0, 0.0, config.lambda_density, config.B)
            return _holonomy.rectangle_loop("Ex_prime", "Ey_prime", (0.0, self.area), (0.0, 1.0), base_point)
        return _holonomy.box_loop(self.kind, *self._ranges())

    def closed_form(self) -> float | None:
        """Closed-form loop functional S of a box itinerary; None for other loops."""
        from . import holonomy as _holonomy

        if self.kind not in _holonomy.BOX_KINDS:
            return None
        return _holonomy.area_closed_form(self.kind, *self._ranges())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_derive(args) -> int:
    from . import displaced as _displaced

    config = load_config(args.config)
    scales = derive_scales(config)
    shift_x, shift_y = _displaced.position_shift(config)
    payload = {
        **asdict(scales),
        "energy_quantum": scales.energy_quantum,
        "shift": {"x": shift_x, "y": shift_y},
        "regime": asdict(validate_regime(config)),
    }
    _emit(args, payload)
    return 0


def _cmd_spectrum(args) -> int:
    scales = derive_scales(load_config(args.config))
    if args.n < 0 or args.m < 0:
        raise ValidationError(f"n and m bounds must be >= 0, got {args.n}, {args.m}")
    rows = []
    for n in range(args.n + 1):
        for m in range(args.m + 1):
            ell = scales.sigma * (m - n)
            rows.append({"n": n, "m": m, "l": ell, "E_over_hw": n + 0.5, "Lz_over_h": ell})
    _emit(args, {"sigma": scales.sigma, "rows": rows}, table="rows")
    return 0


def _cmd_displace(args) -> int:
    from . import displaced as _displaced
    from . import fock as _fock

    scales = derive_scales(load_config(args.config))
    if args.nu_re is not None or args.nu_im is not None:
        nu = complex(args.nu_re or 0.0, args.nu_im or 0.0)
    else:
        nu = scales.nu
    basis = _fock.build_basis(args.n_max, args.m_max, sigma=scales.sigma)
    state = _displaced.displaced_state(args.n, args.m, nu, basis)
    payload = {
        "n": args.n,
        "m": args.m,
        "nu": nu,
        "n_max": basis.n_max,
        "m_max": basis.m_max,
        "trunc_deficit": state.trunc_deficit,
        "coefficients": state.coefficients,
    }
    _emit(args, payload, table="coefficients", index=(("n", "m"), map(basis.labels, range(basis.size))))
    return 0


def _cmd_connection(args) -> int:
    from . import connection as _connection

    config = load_config(args.config)
    scales = derive_scales(config)
    if args.param not in _PARAM_ALIASES:
        raise ValidationError(
            f"unknown control parameter {args.param!r}; expected one of "
            f"{sorted(set(_PARAM_ALIASES))}"
        )
    param = _PARAM_ALIASES[args.param]
    point = _config_point(config)
    mat = _connection.connection_matrix(param, point, scales.u, args.n, args.window)
    payload = {
        "param": param,
        "point": point,
        "n": args.n,
        "window": args.window,
        "u": scales.u,
        "matrix": mat.entries,
    }
    _emit(args, payload, table="matrix", index=(("row", "col"), product(mat.window, repeat=2)))
    return 0


def _phase_payload(spec: _LoopSpec, config: PhysicalConfig) -> dict:
    from . import holonomy as _holonomy

    scales = derive_scales(config)
    path = spec.path(config)
    payload: dict = {"kind": path.kind, "u": scales.u}
    if path.kind == "C1_rectangle" or (
        path.kind == "custom" and np.ptp(path.vertices[:, 2]) == 0.0 and np.ptp(path.vertices[:, 3]) == 0.0
    ):
        phases = _holonomy.abelian_phase(path, scales.u)
        payload.update(
            {
                "lambda_density": float(path.vertices[0, 2]),
                "B": float(path.vertices[0, 3]),
                "signed_area": phases.signed_area,
                "curvature": phases.curvature,
                "gamma_line_integral": phases.gamma_line_integral,
                "gamma_area_law": phases.gamma_area_law,
                "line_over_area_law": phases.ratio,
            }
        )
    else:
        s_quad = _holonomy.loop_area_integral(path)
        payload["S_quadrature"] = s_quad
        payload["angle_prefactor"] = s_quad / (4.0 * scales.u)
        s_closed = spec.closed_form()
        if s_closed is not None:
            payload["S_closed_form"] = s_closed
            payload["S_deviation"] = abs(s_quad - s_closed)
    return payload


def _cmd_phase(args) -> int:
    _emit(args, _phase_payload(_LoopSpec.from_args(args), load_config(args.config)))
    return 0


def _cmd_holonomy(args) -> int:
    from . import holonomy as _holonomy
    from ._linalg import max_abs

    config = load_config(args.config)
    scales = derive_scales(config)
    path = _LoopSpec.from_args(args).path(config)
    window = args.window
    steps = _holonomy.DEFAULT_STEPS if args.steps is None else args.steps
    target = None if args.target == 0.0 else args.target
    result = _holonomy.holonomy_path_ordered(path, scales.u, window=window, steps=steps, target=target)
    payload = {
        "kind": path.kind,
        "window": window,
        "steps": result.steps,
        "u": scales.u,
        "matrix": result.matrix,
        "unitarity_defect": result.unitarity_defect,
        "convergence_estimate": result.convergence_estimate,
        "identity_distance": max_abs(result.matrix, np.eye(len(result.matrix))),
        "vertices": path.vertices,
    }
    labels = product(range(window[0], window[1] + 1), repeat=2)
    _emit(args, payload, table="matrix", index=(("row", "col"), labels))
    return 0


def _cmd_oracle_check(args) -> int:
    from . import connection as _connection
    from . import displaced as _displaced
    from . import fock as _fock
    from . import oracle as _oracle
    from ._linalg import max_abs

    config = load_config(args.config) if args.config else _oracle.OPERATING_CONFIG
    scales = derive_scales(config)
    grid = _oracle.default_grid(points=args.grid_points)
    report = _oracle.sign_convention_report(config, grid)

    # quick matrix-route cross checks, independent of the grid
    basis = _fock.build_basis(12, 12)
    am = _fock.ladder_a(basis, "minus")
    ap = _fock.ladder_a(basis, "plus")
    comm = _fock.commutator(am, ap)
    block = np.ix_(*2 * [basis.interior_indices(1, 1)])
    comm_dev = max_abs(comm.entries[block], np.eye(basis.size)[block])

    # The displaced vacuum has mean level occupation |nu|^2, so the n-mode
    # grows with it; m is a Kronecker spectator of D, so one radial step is
    # enough. Up to |nu|^2 = 5 the two D routes stay within 2e-9; the H_nu
    # check reads the closed-form D, exact on any basis, and needs no padding.
    nu_basis = _fock.build_basis(16 + 8 * math.ceil(abs(scales.nu) ** 2), 1)
    try:
        _displaced.displacement_matrix(scales.nu, nu_basis, check=True)
        _displaced.displaced_hamiltonian(scales.nu, nu_basis, scales, check=True)
        dual_ok = True
    except ConsistencyError:
        dual_ok = False
    chain = _connection.chain_rule_consistency(_config_point(config), scales.u, 0, (0, 4))

    checks = {
        "ladder_commutator_max_dev": comm_dev,
        "dual_route_displacement_ok": dual_ok,
        "chain_vs_closed_max_dev": chain["max"],
        "fd_diagonal_dev": report["diagonal"]["deviation_resolved"],
        "fd_offdiagonal_dev": report["off_diagonal"]["deviation_resolved"],
        "curvature_dev": report["curvature"]["deviation"],
    }
    tolerances = {
        "ladder_commutator_max_dev": 1e-12,
        "chain_vs_closed_max_dev": 1e-10,
        "fd_diagonal_dev": 1e-4,
        "fd_offdiagonal_dev": 1e-4,
        "curvature_dev": 1e-2,
    }
    failed = [k for k, tol in tolerances.items() if checks[k] > tol]
    if not dual_ok:
        failed.insert(0, "dual_route_displacement_ok")
    passed = not failed
    payload = {
        "sign_report": report,
        "cross_checks": checks,
        "tolerances": tolerances,
        "pass": passed,
    }
    _emit(args, payload)
    print(_oracle.render_sign_report(report), file=sys.stderr)
    if not passed:
        raise ConsistencyError("oracle cross-validation failed: " + ", ".join(failed))
    return 0


def _parse_sweeps(specs: list[str]) -> list[tuple[str, list[float]]]:
    axes: list[tuple[str, list[float]]] = []
    seen = set()
    for spec in specs:
        name, sep, values = spec.partition("=")
        if not sep:
            raise ValidationError(f"sweep spec must look like axis=v1,v2,... got {spec!r}")
        if name not in _SWEEP_AXES:
            raise ValidationError(f"unknown sweep axis {name!r}; expected one of {_SWEEP_AXES}")
        if name in seen:
            raise ValidationError(f"sweep axis {name!r} given twice")
        seen.add(name)
        try:
            vals = [float(v) for v in values.split(",") if v != ""]
        except ValueError as exc:
            raise ValidationError(f"bad sweep values in {spec!r}: {exc}") from exc
        if len(vals) < 2:
            raise ValidationError(f"sweep axis {name!r} needs at least 2 values")
        axes.append((name, vals))
    if not axes:
        raise ValidationError("sweep needs at least one --sweep axis=v1,v2,...")
    return axes


def _cmd_sweep(args) -> int:
    from . import holonomy as _holonomy
    from ._linalg import max_abs

    config = load_config(args.config)
    scales = derive_scales(config)
    if not args.named:
        raise ValidationError("sweep needs --named <kind> as the base loop")
    base = _LoopSpec.from_args(args)
    kind = base.kind
    axes = _parse_sweeps(args.sweep)
    allowed = {"area"} if kind == "C1_rectangle" else set(_SWEEP_AXES) - {"area"}
    for name, _ in axes:
        if name not in allowed:
            raise ValidationError(f"sweep axis {name!r} does not apply to {kind}")

    names = [name for name, _ in axes]
    combos = sorted(product(*(vals for _, vals in axes)))

    def run_combo(combo: tuple[float, ...]) -> dict:
        row = dict(zip(names, combo))
        spec = replace(base, **row)
        loop = spec.path(config)
        if kind == "C1_rectangle":
            phases = _holonomy.abelian_phase(loop, scales.u)
            return row | {
                "signed_area": phases.signed_area,
                "curvature": phases.curvature,
                "gamma_line_integral": phases.gamma_line_integral,
                "gamma_area_law": phases.gamma_area_law,
            }
        result = _holonomy.holonomy_path_ordered(loop, scales.u, window=args.window, steps=args.steps, target=None)
        return row | {
            "S_closed_form": spec.closed_form(),
            "identity_distance": max_abs(result.matrix, np.eye(len(result.matrix))),
            "unitarity_defect": result.unitarity_defect,
            "convergence_estimate": result.convergence_estimate,
            "steps_used": result.steps,
        }

    _emit(args, {"kind": kind, "rows": [run_combo(c) for c in combos]}, table="rows")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--config", help="JSON config file (strict schema); default: desk-scale natural units")
    sub.add_argument("--out", help="output file (atomic write); default: stdout")
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default_format, help=f"output format (default {default_format})"
    )


def _add_path_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--named", help="named loop kind: C1, ABCHEFA, ABCHGFA or ADCHEFA")
    sub.add_argument("--vertices", help="file with explicit loop vertices (Ex' Ey' lambda B per line)")
    sub.add_argument("--area", type=float, help="rectangle area for --named C1 (default 1.0)")
    sub.add_argument("--Ey1", type=float, default=0.0, help="box corner Ey' low (default 0)")
    sub.add_argument("--Ey2", type=float, default=1.0, help="box corner Ey' high (default 1)")
    sub.add_argument("--lam1", type=float, default=1.0, help="box corner lambda low (default 1)")
    sub.add_argument("--lam2", type=float, default=4.0, help="box corner lambda high (default 4)")
    sub.add_argument("--B1", type=float, default=1.0, help="box corner B low (default 1)")
    sub.add_argument("--B2", type=float, default=4.0, help="box corner B high (default 4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlh",
        description=(
            "Landau levels of an induced electric dipole: displaced Fock states, "
            "Berry connections and non-Abelian holonomies over (Ex', Ey', lambda, B)."
        ),
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("derive", help="derived scales and regime screening")
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_derive)

    p = subs.add_parser("spectrum", help="(n, m, l, E/hw, Lz/hbar) table")
    _add_common(p, "csv")
    p.add_argument("--n", type=int, default=3, help="largest level index n (default 3)")
    p.add_argument("--m", type=int, default=3, help="largest radial index m (default 3)")
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("displace", help="displaced-state coefficients")
    _add_common(p, "json")
    p.add_argument("--n", type=int, default=0, help="level index n (default 0)")
    p.add_argument("--m", type=int, default=0, help="radial index m (default 0)")
    p.add_argument("--nu-re", type=float, dest="nu_re", help="override Re nu (default: from config fields)")
    p.add_argument("--nu-im", type=float, dest="nu_im", help="override Im nu")
    p.add_argument("--n-max", type=int, default=12, dest="n_max", help="basis cut in n (default 12)")
    p.add_argument("--m-max", type=int, default=12, dest="m_max", help="basis cut in m (default 12)")
    p.set_defaults(func=_cmd_displace)

    p = subs.add_parser("connection", help="one connection component on an m-window")
    _add_common(p, "csv")
    p.add_argument("--param", required=True, help="Ex_prime | Ey_prime | lambda_density | B (aliases Ex, Ey, lambda)")
    p.add_argument("--n", type=int, default=0, help="level index n (default 0)")
    p.add_argument("--window", type=_parse_window, default=(0, 3), help="m-window lo..hi (default 0..3)")
    p.set_defaults(func=_cmd_connection)

    p = subs.add_parser("phase", help="scalar loop functionals (C1 rectangle or box loops)")
    _add_common(p, "json")
    _add_path_flags(p)
    p.set_defaults(func=_cmd_phase)

    p = subs.add_parser("holonomy", help="path-ordered window holonomy")
    _add_common(p, "json")
    _add_path_flags(p)
    p.add_argument("--window", type=_parse_window, default=(0, 3), help="m-window lo..hi (default 0..3)")
    p.add_argument(
        "--steps",
        type=int,
        help="initial step count, doubled until --target is met (default: the library's DEFAULT_STEPS)",
    )
    p.add_argument(
        "--target",
        type=float,
        default=1e-7,
        help=(
            "target for the error estimate of the returned product; steps double until it is met "
            "(default 1e-7; 0 disables and reports the raw max|U(steps) - U(steps//2)|)"
        ),
    )
    p.set_defaults(func=_cmd_holonomy)

    p = subs.add_parser("oracle-check", help="grid cross-validation and sign-convention report")
    _add_common(p, "json")
    p.add_argument("--grid-points", type=int, default=256, dest="grid_points", help="grid points per axis (default 256)")
    p.set_defaults(func=_cmd_oracle_check)

    p = subs.add_parser("sweep", help="Cartesian parameter studies (CSV rows, sorted)")
    _add_common(p, "csv")
    _add_path_flags(p)
    p.add_argument("--window", type=_parse_window, default=(0, 3), help="m-window lo..hi (default 0..3)")
    p.add_argument("--steps", type=int, default=512, help="base step count (default 512)")
    p.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        help="axis to sweep (repeatable); axes: area (C1) or Ey1, Ey2, lam1, lam2, B1, B2",
    )
    p.set_defaults(func=_cmd_sweep)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"dlh: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; library warnings go to stderr as one `dlh: warning:` line each while it runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except ValidationError as exc:
            print(f"dlh: validation error: {exc}", file=sys.stderr)
            return 2
        except (ConvergenceError, ConsistencyError) as exc:
            print(f"dlh: numerical failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
