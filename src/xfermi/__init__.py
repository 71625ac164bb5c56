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
    chandrasekhar_ratio,
    compare_star_models,
    degenerate_polytrope,
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
    fermi_density,
    fermi_energy,
    ground_state_energy,
    heat_capacity_series_coefficient,
    mu_series_coefficients,
    number_series_factor,
    pressure_over_degenerate,
    reduced_energy_per_particle,
    series_density,
    series_energy_density,
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
    pauli_populations,
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
    "chandrasekhar_ratio",
    "chemical_potential_exact",
    "chemical_potential_series",
    "codata",
    "compare_star_models",
    "degeneracy_pressure",
    "degenerate_polytrope",
    "density",
    "energy_density",
    "eos_coefficient",
    "fermi_density",
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
    "number_series_factor",
    "occupation",
    "pauli_magnetization",
    "pauli_populations",
    "polytrope_index",
    "pressure",
    "pressure_over_degenerate",
    "reduced_energy_per_particle",
    "series_density",
    "series_energy_density",
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
