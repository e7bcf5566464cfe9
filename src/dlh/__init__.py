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
fock        truncated (n, m) basis of the ladder algebra: spectrum, Lz
displaced   displacement operator, displaced states, dual-route Hamiltonian
connection  Berry connection components, closed forms and chain-rule route
holonomy    parameter loops, Abelian phases, path-ordered holonomies
oracle      FFT grid representation: independent checks of all of the above
errors      exception types and the one check of each kind of argument
cli         deterministic batch interface (`dlh` entry point)

``import dlh`` loads no submodule and re-exports nothing: each name comes
from its module, e.g. ``from dlh.holonomy import holonomy_path_ordered``,
and each module's ``__all__`` lists its public names.
"""

__version__ = "0.1.0"
