"""Thermodynamics of a gas whose orbitals hold at most one fermion.

The occupation law f(x) = weight / (e^x + blocking) covers the standard
Fermi gas (blocking = 1), the double-blocked gas in which opposite spins
exclude each other (blocking = 2), and the classical limit (blocking = 0).
The package follows that one change through the equation of state, the
low-temperature expansions, spin and orbital magnetism, and the masses of
degenerate stars, checking every closed form against an independent
numerical route (quadrature, explicit state enumeration, Monte Carlo, or
ODE integration).

The package namespace holds the names of the README's quick tour and model
table; every other name is imported from the module that defines it.
"""

from .astro import compare_star_models
from .degenerate import fermi_energy, heat_capacity_series_coefficient, specific_heat_exact
from .eos import solve_fugacity, solve_point
from .magnetism import landau_susceptibility
from .numerics import NumericsError
from .occupancy import BOLTZMANN, EXCLUSIVE, MODELS, STANDARD_FD, OccupancyModel, occupation

__version__ = "0.1.0"

__all__ = [
    "BOLTZMANN",
    "EXCLUSIVE",
    "MODELS",
    "NumericsError",
    "OccupancyModel",
    "STANDARD_FD",
    "compare_star_models",
    "fermi_energy",
    "heat_capacity_series_coefficient",
    "landau_susceptibility",
    "occupation",
    "solve_fugacity",
    "solve_point",
    "specific_heat_exact",
]
