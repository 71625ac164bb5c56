"""Degenerate stars built on the modified occupancy.

The zero-temperature gas supplies a polytropic pressure law P = K rho^gamma
in both the non-relativistic (gamma = 5/3) and ultra-relativistic
(gamma = 4/3) regimes.  Hydrostatic equilibrium then reduces to the
Lane-Emden equation

    theta'' + (2/xi) theta' + theta^n = 0,    theta(0) = 1, theta'(0) = 0,

with polytropic index n = 1/(gamma - 1).  The stellar mass follows from
the first zero xi_1 and the surface slope.  Halving the step height of
the occupation law shifts K and with it every mass scale; the limiting
(gamma = 4/3) mass grows by a factor sqrt(2).

Units are hbar = m = 1 (non-relativistic) or hbar = c = 1
(ultra-relativistic) per unit fermion mass; G stays symbolic so that the
G-dependence of the mass formula can be verified directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .numerics import integrate_ode
from .occupancy import EXCLUSIVE, STANDARD_FD, OccupancyModel

REFERENCE_MASS_RATIO = 1.6  # quoted limiting-mass enhancement, cf. exact sqrt(2)


class Regime(Enum):
    NON_RELATIVISTIC = "non-relativistic"
    ULTRA_RELATIVISTIC = "ultra-relativistic"

    @property
    def gamma(self) -> float:
        if self is Regime.NON_RELATIVISTIC:
            return 5.0 / 3.0
        return 4.0 / 3.0


def eos_coefficient(model: OccupancyModel, regime: Regime) -> float:
    """Polytropic prefactor K of the zero-temperature gas, P = K n^gamma.

    Non-relativistic: K = (1/5)(6 pi^2 / step)^{2/3} with hbar = m = 1.
    Ultra-relativistic: K = (1/4)(6 pi^2 / step)^{1/3} with hbar = c = 1.
    Shrinking the step height raises K in both regimes.
    """
    packing = 6.0 * math.pi**2 / model.step_height
    if regime is Regime.NON_RELATIVISTIC:
        return 0.2 * packing ** (2.0 / 3.0)
    return 0.25 * packing ** (1.0 / 3.0)


@dataclass(frozen=True)
class PolytropeEOS:
    coefficient: float
    gamma: float

    @property
    def index(self) -> float:
        return polytrope_index(self.gamma)


def degenerate_polytrope(model: OccupancyModel, regime: Regime) -> PolytropeEOS:
    return PolytropeEOS(eos_coefficient(model, regime), regime.gamma)


def polytrope_index(gamma: float) -> float:
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1 for a finite polytropic index")
    return 1.0 / (gamma - 1.0)


@dataclass(frozen=True)
class LaneEmdenSolution:
    """First zero and mass integral of theta for one polytropic index."""

    index: float
    xi1: float
    mass_integral: float  # -xi_1^2 theta'(xi_1)


def lane_emden(index: float) -> LaneEmdenSolution:
    """Integrate the Lane-Emden equation out to the first zero of theta.

    Starts just off center, at xi = 1e-3, with the series
    theta = 1 - xi^2/6 + n xi^4/120 to sidestep the coordinate
    singularity; theta is clamped at zero inside the right-hand side so
    the fractional power stays real where the solver steps past the zero.
    """
    if not 0.0 <= index < 4.9:
        raise ValueError("polytropic index must lie in [0, 4.9)")
    xi0 = 1e-3
    theta0 = 1.0 - xi0**2 / 6.0 + index * xi0**4 / 120.0
    slope0 = -xi0 / 3.0 + index * xi0**3 / 30.0

    def rhs(xi: float, y: tuple[float, float]) -> tuple[float, float]:
        theta, phi = y
        return phi, -max(theta, 0.0) ** index - 2.0 * phi / xi

    terminus = integrate_ode(rhs, xi0, (theta0, slope0), lambda xi, y: y[0], xi0 + 500.0)
    xi1 = terminus.time
    slope = terminus.state[1]
    return LaneEmdenSolution(index, xi1, -(xi1**2) * slope)


def white_dwarf_mass(
    coefficient: float,
    central_density: float,
    gamma: float,
    gravity: float = 1.0,
    solution: LaneEmdenSolution | None = None,
) -> float:
    """Total mass of the polytrope with P = K rho^gamma.

    M = 4 pi m_2 [ (n+1) K / (4 pi G) ]^{3/2} rho_c^{(3-n)/(2n)}
    with m_2 the Lane-Emden mass integral.  At gamma = 4/3 the density
    exponent vanishes and the mass is the limiting mass.
    """
    if coefficient <= 0 or central_density <= 0 or gravity <= 0:
        raise ValueError("coefficient, central_density and gravity must be positive")
    n = polytrope_index(gamma)
    if solution is None:
        solution = lane_emden(n)
    elif abs(solution.index - n) > 1e-12:
        raise ValueError("supplied Lane-Emden solution has a different index")
    length_scale = ((n + 1.0) * coefficient / (4.0 * math.pi * gravity)) ** 1.5
    return (
        4.0
        * math.pi
        * solution.mass_integral
        * length_scale
        * central_density ** ((3.0 - n) / (2.0 * n))
    )


def chandrasekhar_ratio(
    central_density: float = 1.0,
    gravity: float = 1.0,
) -> float:
    """Limiting-mass ratio, double-blocked over standard occupancy.

    Runs the full pipeline (EOS coefficient -> Lane-Emden -> mass
    formula) for both occupation laws at gamma = 4/3; the K-ratio of
    2^{1/3} propagates as K^{3/2} to exactly sqrt(2).
    """
    gamma = Regime.ULTRA_RELATIVISTIC.gamma
    solution = lane_emden(polytrope_index(gamma))
    masses = [
        white_dwarf_mass(
            eos_coefficient(model, Regime.ULTRA_RELATIVISTIC),
            central_density,
            gamma,
            gravity,
            solution,
        )
        for model in (EXCLUSIVE, STANDARD_FD)
    ]
    return masses[0] / masses[1]


@dataclass(frozen=True)
class StellarComparison:
    """Side-by-side consequences of halving the occupancy step height."""

    k_nr_ratio: float  # non-relativistic K, exclusive / standard = 2^{2/3}
    k_ur_ratio: float  # ultra-relativistic K, exclusive / standard = 2^{1/3}
    nr_solution: LaneEmdenSolution  # n = 3/2
    ur_solution: LaneEmdenSolution  # n = 3
    nr_mass_ratio: float  # fixed central density, gamma = 5/3: K^{3/2} = 2
    limiting_mass_ratio: float  # gamma = 4/3, density-independent: sqrt(2)


def compare_star_models() -> StellarComparison:
    k_nr = [
        eos_coefficient(m, Regime.NON_RELATIVISTIC) for m in (EXCLUSIVE, STANDARD_FD)
    ]
    k_ur = [
        eos_coefficient(m, Regime.ULTRA_RELATIVISTIC) for m in (EXCLUSIVE, STANDARD_FD)
    ]
    nr_solution = lane_emden(1.5)
    ur_solution = lane_emden(3.0)
    nr_masses = [
        white_dwarf_mass(k, 1.0, Regime.NON_RELATIVISTIC.gamma, 1.0, nr_solution)
        for k in k_nr
    ]
    ur_masses = [
        white_dwarf_mass(k, 1.0, Regime.ULTRA_RELATIVISTIC.gamma, 1.0, ur_solution)
        for k in k_ur
    ]
    return StellarComparison(
        k_nr_ratio=k_nr[0] / k_nr[1],
        k_ur_ratio=k_ur[0] / k_ur[1],
        nr_solution=nr_solution,
        ur_solution=ur_solution,
        nr_mass_ratio=nr_masses[0] / nr_masses[1],
        limiting_mass_ratio=ur_masses[0] / ur_masses[1],
    )
