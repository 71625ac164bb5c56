"""Degenerate-limit behavior: broadened-step moments and low-temperature
expansions.  The T = 0 closed forms (Fermi energy, ground-state energy,
degeneracy pressure) live in :mod:`xfermi.occupancy`.

Reduced units hbar = m = k_B = 1 throughout, so energies are interchangeable
with temperatures and the Fermi temperature equals the Fermi energy.

The low-T machinery rests on the moments of the thermally broadened step,

    A_k(a) = Int_{-inf}^{inf} x^k e^x / (e^x + a)^2 dx,

which have closed forms A_0 = 1/a, A_1 = ln(a)/a, A_2 = ((ln a)^2 + pi^2/3)/a.
Since e^x/(e^x + a)^2 = f(1 - f)(x - ln a)/a, with f the Fermi function,
the numerical route to them is a sum over the Fermi-edge Gauss-Legendre
nodes that the exact heat capacity also uses.
Series below are written in the ratios R_k = A_k/A_0; the combinations
R_2 - R_1^2 = pi^2/3 and (R_1^2 - R_2)/4 = -pi^2/12 are independent of the
blocking parameter, which is why the linear specific-heat coefficient comes
out the same for single-occupancy and standard Fermi statistics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eos import _GL_T, _GL_V, FugacityOverflowError, _fugacity_start, _newton, solve_fugacity
from .numerics import NumericsError, positive_double, positive_finite
from .occupancy import EXCLUSIVE, OccupancyModel, ValidityWarning

# the Fermi edge, y = x - k: 20 Gauss-Legendre panels of width 4 over [-40, 40],
# weighted by f(1 - f) = 1/(4 cosh^2(y/2)), below e^{-40} outside; the step
# moments use it at every blocking, the heat capacity past k = eta + ln a = 40
_EDGE = 40.0
_EDGE_Y = (4.0 * np.arange(-10.0, 10.0)[:, None] + 2.0 * (1.0 + _GL_T)).ravel()
_EDGE_W = np.tile(2.0 * _GL_V, 20) / (2.0 * np.cosh(0.5 * _EDGE_Y)) ** 2

# series are quoted to second order in t = kT/mu
_SERIES_TRUST = 0.3

# comparison constants quoted in the source derivation (rounded as printed)
REFERENCE_A1 = 0.34657
REFERENCE_A2 = 1.88516
REFERENCE_HEAT_COEFFICIENT = {"exclusive": 5.55, "fd": 4.93}


@dataclass(frozen=True)
class SommerfeldConstants:
    """First two step moments, by quadrature and in closed form."""

    blocking: float
    a1: float
    a2: float
    closed_form_a1: float
    closed_form_a2: float


def sommerfeld_constants(blocking: float = 2.0) -> SommerfeldConstants:
    """Step moments A_1 and A_2 by the Fermi-edge sum, checked against R_k/a.

    With x = y + ln a the kernel is f(1 - f)(y)/a, so A_k is the sum
    (1/a) Sum (y + ln a)^k w over the edge nodes.  The window [-40, 40]
    drops ~40^k e^{-40}, which grows with k, so orders past 2 are not offered.
    """
    a = float(blocking)
    r1, r2 = _moment_ratios(a)
    y = _EDGE_Y + math.log(a)
    # divided as Python floats, which overflow to inf without numpy's warning
    a1 = float((y * _EDGE_W).sum()) / a
    a2 = float((y**2 * _EDGE_W).sum()) / a
    cf1, cf2 = r1 / a, r2 / a
    if not all(map(math.isfinite, (a1, a2, cf1, cf2))):
        raise NumericsError(f"a step moment at blocking {blocking!r} overflows a double")
    # relative to the larger of the closed form and A_0 = 1/a, the scale of
    # the rounding in the edge sum; A_1 crosses zero at a = 1
    a0 = 1.0 / a
    if abs(a1 - cf1) > 1e-12 * max(abs(cf1), a0) or abs(a2 - cf2) > 1e-12 * max(cf2, a0):
        raise NumericsError(
            "quadrature moments disagree with their closed forms: "
            f"A1 {a1!r} vs {cf1!r}, A2 {a2!r} vs {cf2!r}"
        )
    return SommerfeldConstants(blocking, a1, a2, cf1, cf2)


def _moment_ratios(blocking: float) -> tuple[float, float]:
    """R_1 = A_1/A_0 = ln(a) and R_2 = A_2/A_0 = (ln a)^2 + pi^2/3."""
    positive_finite("blocking", blocking)
    ln_a = math.log(blocking)
    return ln_a, ln_a**2 + math.pi**2 / 3.0


def mu_series_coefficients(model: OccupancyModel = EXCLUSIVE) -> tuple[float, float]:
    """Coefficients (c1, c2) of mu/E_F = 1 + c1 t + c2 t^2, t = kT/E_F.

    Inverting the number series order by order gives c1 = -R1 and
    c2 = (R1^2 - R2)/4 = -pi^2/12 for every blocking parameter.
    """
    r1, r2 = _moment_ratios(model.blocking)
    return -r1, 0.25 * (r1 * r1 - r2)


def chemical_potential_series(t: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Series route to mu/E_F at reduced temperature t = kT/E_F."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be non-negative and finite")
    if t >= _SERIES_TRUST:
        warnings.warn(
            f"low-temperature series used at t = {t:g} >= {_SERIES_TRUST}",
            ValidityWarning,
            stacklevel=2,
        )
    c1, c2 = mu_series_coefficients(model)
    mu = 1.0 + c1 * t + c2 * t * t
    if not math.isfinite(mu):
        raise NumericsError(f"the mu/E_F series leaves the double range at t = {t!r}")
    return mu


def _fixed_density(t: float, model: OccupancyModel) -> float:
    """n lambda^3 of a gas held at fixed density, at temperature t = kT/E_F."""
    positive_finite("t", t)
    try:
        target = (4.0 / (3.0 * math.sqrt(math.pi))) * model.step_height * t**-1.5
    except OverflowError:
        raise FugacityOverflowError(
            f"n lambda^3 at fixed density overflows a double at t = {t!r}"
        ) from None
    return positive_double(target, "n lambda^3 at fixed density at t = %r", t)


def chemical_potential_exact(t: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """mu/E_F at t = kT/E_F, from inverting the density integral at fixed density."""
    return solve_fugacity(_fixed_density(t, model), model) * t


def specific_heat_exact(t: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Low-temperature heat-capacity coefficient c/(k_B t) per particle.

    At fixed density C/(N k_B) = (5/2) u/n - (9/4) n/(dn/deta), that is
    (15/4) F_{3/2}/F_{1/2} - (9/4) F_{1/2}/F_{-1/2}, all at the eta of one
    inversion; it tends to pi^2/2 as t -> 0 for every blocking parameter.
    The two terms cancel to ~3/k^2 of their size, so past k = 40 the ratio
    is integrated by parts onto f(1 - f): (3/2) Var(y) / <k + y> under the
    measure sqrt(k + y) f(1 - f) dy, with no cancellation.

    Below k = 40 the moments come from the inversion's confirming kernel
    call, at eta - step, within 1e-13 max(1, |eta|) of the root.  The route
    is chosen at the tabled start, within 1e-15 max(1, |k|) of the root, so
    that the energy row is requested only below k = 40: past it the energy
    can overflow a double where the density does not.
    """
    target = _fixed_density(t, model)
    eta = _fugacity_start(target, model)
    ln_a = math.log(model.blocking)
    bulk = eta + ln_a < _EDGE
    eta, values, _ = _newton(target, model, eta, (1,) if bulk else ())
    if bulk:
        n, slope, u = values
        return float((2.5 * u / n - 2.25 * n / slope) / t)
    k = eta + ln_a
    measure = _EDGE_W * np.sqrt(1.0 + _EDGE_Y / k)
    mean = (_EDGE_Y * measure).sum() / measure.sum()
    spread = ((_EDGE_Y - mean) ** 2 * measure).sum()
    return float(1.5 * spread / ((k + _EDGE_Y) * measure).sum() / t)


def heat_capacity_series_coefficient(model: OccupancyModel = EXCLUSIVE) -> float:
    """Closed-form linear coefficient (3/2)(R2 - R1^2); equals pi^2/2 always."""
    r1, r2 = _moment_ratios(model.blocking)
    return 1.5 * (r2 - r1 * r1)
