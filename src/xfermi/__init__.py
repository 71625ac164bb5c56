"""Thermodynamics of a gas whose orbitals hold at most one fermion.

The occupation law f(x) = weight / (e^x + blocking) covers the standard
Fermi gas (blocking = 1), the double-blocked gas in which opposite spins
exclude each other (blocking = 2), and the classical limit (blocking = 0).
The package follows that one change through the equation of state, the
low-temperature expansions, spin and orbital magnetism, and the masses of
degenerate stars, checking every closed form against an independent
numerical route (quadrature, explicit state enumeration, Monte Carlo, or
ODE integration).
"""

from .astro import (
    REFERENCE_MASS_RATIO,
    Regime,
    compare_star_models,
    eos_coefficient,
    lane_emden,
    polytrope_index,
    white_dwarf_mass,
)
from .constants import REDUCED, codata
from .degenerate import (
    REFERENCE_A1,
    REFERENCE_A2,
    REFERENCE_HEAT_COEFFICIENT,
    chemical_potential_exact,
    chemical_potential_series,
    degeneracy_pressure,
    fermi_energy,
    ground_state_energy,
    heat_capacity_series_coefficient,
    mu_series_coefficients,
    sommerfeld_constants,
    sommerfeld_moment,
    sommerfeld_moment_closed_form,
    specific_heat_exact,
)
from .ensemble import (
    CapacityError,
    LevelSystem,
    grand_partition_enumerate,
    grand_partition_product,
    mc_occupancy,
    mean_occupancies_enumerate,
)
from .eos import (
    ThermoPoint,
    density,
    energy_density,
    fugacity_series,
    pressure,
    solve_fugacity,
    solve_point,
    virial_pressure,
)
from .magnetism import (
    LevelBudgetError,
    geometric_level_factor,
    landau_partition_ratio,
    landau_susceptibility,
    pauli_magnetization,
    small_field_series_factor,
)
from .numerics import NumericsError
from .occupancy import (
    BOLTZMANN,
    EXCLUSIVE,
    MODELS,
    STANDARD_FD,
    OccupancyModel,
    ValidityWarning,
    occupation,
)

__version__ = "0.1.0"

__all__ = [
    "BOLTZMANN",
    "CapacityError",
    "EXCLUSIVE",
    "LevelBudgetError",
    "LevelSystem",
    "MODELS",
    "NumericsError",
    "OccupancyModel",
    "REDUCED",
    "REFERENCE_A1",
    "REFERENCE_A2",
    "REFERENCE_HEAT_COEFFICIENT",
    "REFERENCE_MASS_RATIO",
    "Regime",
    "STANDARD_FD",
    "ThermoPoint",
    "ValidityWarning",
    "chemical_potential_exact",
    "chemical_potential_series",
    "codata",
    "compare_star_models",
    "degeneracy_pressure",
    "density",
    "energy_density",
    "eos_coefficient",
    "fermi_energy",
    "fugacity_series",
    "geometric_level_factor",
    "grand_partition_enumerate",
    "grand_partition_product",
    "ground_state_energy",
    "heat_capacity_series_coefficient",
    "landau_partition_ratio",
    "landau_susceptibility",
    "lane_emden",
    "mc_occupancy",
    "mean_occupancies_enumerate",
    "mu_series_coefficients",
    "occupation",
    "pauli_magnetization",
    "polytrope_index",
    "pressure",
    "small_field_series_factor",
    "solve_fugacity",
    "solve_point",
    "sommerfeld_constants",
    "sommerfeld_moment",
    "sommerfeld_moment_closed_form",
    "specific_heat_exact",
    "virial_pressure",
    "white_dwarf_mass",
]
