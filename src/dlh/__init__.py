"""Landau levels of a neutral particle with an induced electric dipole moment.

A radial electric field gradient lambda crossed with an axial magnetic field
B gives a neutral, polarizable particle an effective Landau problem; adding a
uniform in-plane field (Ex', Ey') displaces every Landau level into a
coherent-state ladder. This package computes the resulting spectrum,
displaced Fock states, Berry connections over the four control parameters
(Ex', Ey', lambda, B), and the Abelian and non-Abelian geometric phases of
closed parameter loops, and cross-validates every closed form against
independent real-space grid oracles.

Modules
-------
params      laboratory inputs and derived scales (omega, sigma, l_m, u, nu)
fock        truncated (n, m) ladder algebra: operators, spectrum, Lz
displaced   displacement operator, displaced states, dual-route Hamiltonian
connection  Berry connection components, closed forms and chain-rule route
holonomy    parameter loops, Abelian phases, path-ordered holonomies
oracle      FFT grid representation: independent checks of all of the above
cli         deterministic batch interface (`dlh` entry point)

``import dlh`` loads no submodule. Each name in ``__all__`` is looked up in
its module on first access (PEP 562), which imports that module, so a
program pays only for the modules it touches. Values are not cached here:
every access reads the module's current binding. The ``dlh`` command works
the same way: each subcommand imports only the modules it calls, so
``dlh spectrum`` loads none beyond ``params`` and starts in about the time
of ``import numpy`` (README, Start-up).
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "params": (
        "PhysicalConfig",
        "DerivedScales",
        "RegimeReport",
        "derive_scales",
        "validate_regime",
    ),
    "fock": (
        "FockBasis",
        "OperatorMatrix",
        "build_basis",
        "ladder_a",
        "ladder_b",
        "hamiltonian_matrix",
        "lz_matrix",
        "number_a",
        "number_b",
        "state_from_ground",
        "commutator",
    ),
    "displaced": (
        "DisplacedState",
        "displacement_matrix",
        "dual_route_deviation",
        "displaced_state",
        "displaced_hamiltonian",
        "position_shift",
    ),
    "connection": (
        "CONTROL_PARAMS",
        "SIGN_CONVENTION",
        "ConnectionMatrix",
        "connection_general",
        "connection_closed_form",
        "connection_matrix",
        "chain_rule_consistency",
        "abelian_curvature",
    ),
    "holonomy": (
        "LOOP_KINDS",
        "ParameterPath",
        "AbelianPhases",
        "HolonomyResult",
        "rectangle_loop",
        "box_loop",
        "signed_area",
        "abelian_phase",
        "loop_area_integral",
        "area_closed_form",
        "commuting_holonomy",
        "holonomy_path_ordered",
        "unordered_holonomy",
        "noncommutativity_defect",
        "convergence_series",
    ),
    "oracle": (
        "Grid2D",
        "WaveField",
        "WilsonResult",
        "default_grid",
        "ground_state",
        "displace_field",
        "fd_connection_matrix",
        "wilson_loop_oracle",
        "sign_convention_report",
    ),
    "errors": ("ValidationError", "ConvergenceError", "ConsistencyError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
