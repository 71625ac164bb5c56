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
table; every other name is imported from the module that defines it.  Each
name is resolved on first access (PEP 562), so ``import xfermi`` loads no
submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

# each name of the namespace and the module that defines it
_HOMES = {
    "BOLTZMANN": "occupancy",
    "EXCLUSIVE": "occupancy",
    "MODELS": "occupancy",
    "NumericsError": "numerics",
    "OccupancyModel": "occupancy",
    "STANDARD_FD": "occupancy",
    "fermi_energy": "occupancy",
    "heat_capacity_series_coefficient": "degenerate",
    "landau_susceptibility": "magnetism",
    "occupation": "occupancy",
    "solve_fugacity": "eos",
    "solve_point": "eos",
    "specific_heat_exact": "degenerate",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
