"""Degenerate stars built on the modified occupancy.

The zero-temperature gas supplies a polytropic pressure law
P = K rho^{1 + 1/n} in both the non-relativistic (index n = 3/2) and
ultra-relativistic (n = 3) regimes.  Hydrostatic equilibrium then reduces
to the Lane-Emden equation

    theta'' + (2/xi) theta' + theta^n = 0,    theta(0) = 1, theta'(0) = 0.

The stellar mass follows from the first zero xi_1 and the surface slope,
and takes n from the Lane-Emden solution.  Halving the step height of
the occupation law shifts K and with it every mass scale; the limiting
(n = 3) mass grows by a factor sqrt(2).

Units are hbar = m = 1 (non-relativistic) or hbar = c = 1
(ultra-relativistic) per unit fermion mass; G stays symbolic so that the
G-dependence of the mass formula can be verified directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import mul

from .numerics import NumericsError, positive_double, positive_finite
from .occupancy import EXCLUSIVE, STANDARD_FD, OccupancyModel

REFERENCE_MASS_RATIO = 1.6  # quoted limiting-mass enhancement, cf. exact sqrt(2)

# order and per-step truncation bound of the Taylor steps; a bound of 2^-56
# in place of 1e-20 lets the mass integral drift by 1.6e-13 (at n = 0.14)
_ORDER = 24
_STEP_EPS = 1e-20
_SURFACE_TOL = 2.0**-56  # theta' tail at the surface, relative to theta'
_ULP = 2.0**-52
_MAX_STEPS = 300  # n in [0, 4.9) needs at most 60


class Regime(Enum):
    NON_RELATIVISTIC = "non-relativistic"
    ULTRA_RELATIVISTIC = "ultra-relativistic"


def eos_coefficient(model: OccupancyModel, regime: Regime) -> float:
    """Polytropic prefactor K of the zero-temperature gas at density n.

    Non-relativistic: P = K n^{5/3}, K = (1/5)(6 pi^2 / step)^{2/3}, hbar = m = 1.
    Ultra-relativistic: P = K n^{4/3}, K = (1/4)(6 pi^2 / step)^{1/3}, hbar = c = 1.
    Shrinking the step height raises K in both regimes.
    """
    packing = 6.0 * math.pi**2 / model.step_height
    if regime is Regime.NON_RELATIVISTIC:
        k = 0.2 * packing ** (2.0 / 3.0)
    else:
        k = 0.25 * packing ** (1.0 / 3.0)
    return positive_double(k, "K of step height %r", model.step_height)


@dataclass(frozen=True)
class LaneEmdenSolution:
    """First zero and mass integral of theta for one polytropic index."""

    index: float
    xi1: float
    mass_integral: float  # -xi_1^2 theta'(xi_1)


def lane_emden(index: float) -> LaneEmdenSolution:
    """Integrate the Lane-Emden equation out to the first zero of theta.

    Taylor series of the equation itself, on plain floats.  Near the centre
    theta is a series in u = xi^2, so the coordinate singularity needs no
    offset.  Off centre, at xi = a, the series of
    xi theta'' + 2 theta' + xi theta^n = 0 gives the coefficients of theta
    one by one, with theta^n from J.C.P. Miller's power recurrence: the
    source series, built once per index and used at every step.  Each
    step of the order-24 series is as long as its last two terms allow for
    a 1e-20 truncation (Jorba and Zou, Exp. Math. 14 (2005) 99), and at
    most half the way to the zero of the tangent line: for non-integer n,
    theta^n has a branch point at the surface.  Once the theta' series has
    converged at that zero, Newton on the local polynomial gives xi_1 and
    theta'(xi_1).  Raises :class:`NumericsError` if the surface is not
    located within ``_MAX_STEPS`` steps.
    """
    if not 0.0 <= index < 4.9:
        raise ValueError("polytropic index must lie in [0, 4.9)")
    source = _power_source(index)
    centre = _centre_series(source)
    # first step in u; theta >= 1 - u/6 >= 1/2 up to u = 3 for every n >= 0
    u = min(_step_length(centre), 3.0)
    a = math.sqrt(u)
    theta, dtheta_du = _horner(centre, u)
    slope = 2.0 * a * dtheta_du
    for _ in range(_MAX_STEPS):
        reach = -theta / slope  # zero of the tangent line
        t = _local_series(a, reach, theta, slope, source)
        # the theta' tail at the tangent zero, (K-1)|t_{K-1}| + K|t_K| over
        # reach, against |theta'|; or the round-off floor: a step that short
        # cannot move xi
        tail = (_ORDER - 1) * abs(t[-2]) + _ORDER * abs(t[-1])
        if tail <= _SURFACE_TOL * theta or reach <= _ULP * a:
            xi1, slope = _surface(a, reach, t)
            return LaneEmdenSolution(index, xi1, -(xi1**2) * slope)
        s = min(_step_length(t), 0.5)
        theta, slope = _horner(t, s)
        slope /= reach
        a += s * reach
    raise NumericsError(
        f"Lane-Emden n = {index!r}: surface not located within {_MAX_STEPS} steps"
    )


def _power_source(n: float):
    """The source theta^n as a series: ``source(p, t)`` appends p_k from t_0..t_k,
    first p_0 = t_0^n, then J.C.P. Miller's recurrence
    p_k = sum_j ((n+1) j - k) t_j p_{k-j} / (k t_0), j = 1..k."""
    weights = [[(n + 1.0) * j - k for j in range(1, k + 1)] for k in range(_ORDER + 1)]

    def source(p: list[float], t: list[float]) -> None:
        k, higher = len(p), iter(t)
        t0 = next(higher)  # higher now runs over t_1.., with no copy of t[1:]
        p.append(sum(map(mul, map(mul, weights[k], higher), reversed(p))) / (k * t0) if k
                 else t0**n)

    return source


def _centre_series(source) -> list[float]:
    """theta = sum c_k u^k with u = xi^2: 2(k+1)(2k+3) c_{k+1} = -[source]_k."""
    c, p = [1.0], []
    for k in range(_ORDER):
        source(p, c)
        c.append(-p[k] / (2.0 * (k + 1) * (2 * k + 3)))
    return c


def _local_series(a: float, r: float, theta: float, slope: float, source) -> list[float]:
    """Scaled coefficients t_k r^k of theta in s = (xi - a)/r, from the series
    of xi theta'' + 2 theta' + xi [source] = 0; the scale r keeps them finite
    however near the surface a lies."""
    rho, r2 = r / a, r * r
    t, p = [theta, slope * r], []
    for k in range(_ORDER - 1):
        source(p, t)
        lower = p[k] + rho * p[k - 1] if k else p[0]
        t.append(-(rho * t[k + 1] + r2 * lower / ((k + 1) * (k + 2))))
    return t


def _step_length(t: list[float]) -> float:
    """Longest h at which each of the last two terms stays below the truncation bound."""
    return min((_STEP_EPS / abs(t[k])) ** (1.0 / k) if t[k] else math.inf
               for k in (_ORDER - 1, _ORDER))


def _horner(t: list[float], h: float) -> tuple[float, float]:
    """The polynomial sum t_k h^k and its derivative at h."""
    value, derivative = t[-1], 0.0
    for coefficient in reversed(t[:-1]):
        derivative = derivative * h + value
        value = value * h + coefficient
    return value, derivative


def _surface(a: float, r: float, t: list[float]) -> tuple[float, float]:
    """xi_1 and theta'(xi_1), Newton on the local polynomial in s = (xi - a)/r from s = 1."""
    s = 1.0
    for _ in range(8):
        value, slope = _horner(t, s)
        change = value / slope
        s -= change
        if abs(change) <= _ULP * s:
            break
    return a + s * r, _horner(t, s)[1] / r


def white_dwarf_mass(
    coefficient: float,
    central_density: float,
    solution: LaneEmdenSolution,
    gravity: float = 1.0,
) -> float:
    """Total mass of the polytrope P = K rho^{1 + 1/n}, n = ``solution.index``.

    M = 4 pi m_2 [ (n+1) K / (4 pi G) ]^{3/2} rho_c^{(3-n)/(2n)}
    with m_2 the Lane-Emden mass integral.  At n = 3 the density
    exponent vanishes and the mass is the limiting mass; n = 0 has no
    finite density exponent and is refused.
    """
    positive_finite("coefficient, central_density and gravity", coefficient, central_density,
                    gravity)
    n = solution.index
    if n == 0.0:
        raise ValueError("the mass formula needs a polytropic index above 0")
    try:
        length_scale = ((n + 1.0) * coefficient / (4.0 * math.pi * gravity)) ** 1.5
        mass = (
            4.0
            * math.pi
            * solution.mass_integral
            * length_scale
            * central_density ** ((3.0 - n) / (2.0 * n))
        )
    except OverflowError:
        mass = math.inf
    return positive_double(mass, "the stellar mass")


@dataclass(frozen=True)
class StellarComparison:
    """Side-by-side consequences of halving the occupancy step height."""

    k_nr_ratio: float  # non-relativistic K, exclusive / standard = 2^{2/3}
    k_ur_ratio: float  # ultra-relativistic K, exclusive / standard = 2^{1/3}
    nr_solution: LaneEmdenSolution  # n = 3/2
    ur_solution: LaneEmdenSolution  # n = 3
    nr_mass_ratio: float  # fixed central density, n = 3/2: K^{3/2} = 2
    limiting_mass_ratio: float  # n = 3, density-independent: sqrt(2)


def compare_star_models() -> StellarComparison:
    """Both occupation laws through the whole pipeline, EOS coefficient ->
    Lane-Emden -> mass formula, at unit central density and G = 1.

    The K ratios 2^{2/3} and 2^{1/3} propagate as K^{3/2} to mass ratios of
    2 and, at n = 3 where the density drops out, exactly sqrt(2).
    """
    k_ratios, solutions, mass_ratios = [], [], []
    for regime, index in ((Regime.NON_RELATIVISTIC, 1.5), (Regime.ULTRA_RELATIVISTIC, 3.0)):
        k = [eos_coefficient(m, regime) for m in (EXCLUSIVE, STANDARD_FD)]
        solution = lane_emden(index)
        masses = [white_dwarf_mass(c, 1.0, solution) for c in k]
        k_ratios.append(k[0] / k[1])
        solutions.append(solution)
        mass_ratios.append(masses[0] / masses[1])
    return StellarComparison(*k_ratios, *solutions, *mass_ratios)
