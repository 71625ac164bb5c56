"""Finite-temperature equation of state in reduced variables.

Everything is expressed through eta = mu/kT and the degeneracy parameter
n lambda^3, which removes mass, temperature and volume from the problem:

    n lambda^3 = (2/sqrt(pi)) Int_0^inf sqrt(x) n(x - eta) dx
    u          = (2/sqrt(pi)) Int_0^inf x^{3/2}  n(x - eta) dx
    p          = (2/sqrt(pi)) (g/a) Int_0^inf sqrt(x) ln(1 + a e^{eta-x}) dx

with u = <E> lambda^3 / (V kT) and p = P lambda^3 / kT.  The pressure
comes from the log of the grand partition function, an independent route
from the energy integral, and p = (2/3) u ties the two together.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .numerics import (
    DEFAULT_QUADRATURE,
    BracketedRootSpec,
    BracketError,
    NumericsError,
    QuadratureSpec,
    find_root,
    integrate_semi_infinite,
)
from .occupancy import EXCLUSIVE, OccupancyModel, ValidityWarning, occupation

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# series in n lambda^3 are quoted to second order; beyond this they drift
_SERIES_TRUST = 0.2


class FugacityOverflowError(NumericsError, OverflowError):
    """e^eta, or a quantity proportional to it, exceeds the double range."""


class InvariantError(NumericsError, ValueError):
    """Two independent routes to the same quantity disagree."""


def _scaled_exp(scale: float, eta: float) -> float:
    """scale * e^eta, raising :class:`FugacityOverflowError` past the double range."""
    try:
        value = scale * math.exp(eta)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise FugacityOverflowError(f"e^eta overflows the double range at eta = {eta:g}")
    return value


def _log1p_exp(y: float) -> float:
    """log(1 + e^y) without overflow on either side."""
    if y > 36.0:
        return y + math.log1p(math.exp(-y))
    if y < -36.0:
        return math.exp(y)
    return math.log1p(math.exp(y))


def density(
    eta: float,
    model: OccupancyModel = EXCLUSIVE,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Reduced density n lambda^3 at reduced chemical potential eta."""
    eta = float(eta)

    def f(x: float) -> float:
        return math.sqrt(x) * occupation(x - eta, model)

    breaks = (eta,) if eta > 0 else ()
    return _TWO_OVER_SQRT_PI * integrate_semi_infinite(f, spec, breaks)


def energy_density(
    eta: float,
    model: OccupancyModel = EXCLUSIVE,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Reduced energy density u = <E> lambda^3 / (V kT)."""
    eta = float(eta)

    def f(x: float) -> float:
        return x * math.sqrt(x) * occupation(x - eta, model)

    breaks = (eta,) if eta > 0 else ()
    return _TWO_OVER_SQRT_PI * integrate_semi_infinite(f, spec, breaks)


def pressure(
    eta: float,
    model: OccupancyModel = EXCLUSIVE,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Reduced pressure p = P lambda^3 / kT from the grand-potential integral."""
    eta = float(eta)
    g = model.weight
    a = model.blocking
    if a == 0.0:
        return _scaled_exp(g, eta)  # classical ideal gas
    ln_a = math.log(a)

    def f(x: float) -> float:
        return math.sqrt(x) * _log1p_exp(ln_a + eta - x)

    knee = eta + ln_a
    breaks = (knee,) if knee > 0 else ()
    return _TWO_OVER_SQRT_PI * (g / a) * integrate_semi_infinite(f, spec, breaks)


def solve_fugacity(
    n_lambda3: float,
    model: OccupancyModel = EXCLUSIVE,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    tolerance: float = 1e-12,
) -> float:
    """Invert the density integral: eta such that density(eta) = n lambda^3.

    The bracket is grown by doubling away from the classical estimate
    eta0 = ln(n lambda^3 / weight), then handed to the bracketed solver.
    """
    if not (n_lambda3 > 0 and math.isfinite(n_lambda3)):
        raise ValueError("n_lambda3 must be positive and finite")

    def residual(eta: float) -> float:
        return density(eta, model, spec) - n_lambda3

    eta0 = math.log(n_lambda3 / model.weight)
    r0 = residual(eta0)
    if r0 == 0.0:
        return eta0
    if r0 > 0.0:
        hi, lo, r_lo = eta0, eta0, r0
        step = 1.0
        for _ in range(200):
            lo -= step
            step *= 2.0
            r_lo = residual(lo)
            if r_lo <= 0.0:
                break
        else:
            raise BracketError("could not bracket the fugacity below eta0")
    else:
        lo, hi, r_hi = eta0, eta0, r0
        step = 1.0
        for _ in range(200):
            hi += step
            step *= 2.0
            r_hi = residual(hi)
            if r_hi >= 0.0:
                break
        else:
            raise BracketError("could not bracket the fugacity above eta0")
    return find_root(residual, BracketedRootSpec(lo, hi, tolerance, 200))


def virial_pressure(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Second-order virial form of PV/(N kT) at degeneracy parameter n lambda^3.

    PV/(N kT) = 1 + (blocking/weight) n lambda^3 / (4 sqrt(2)); the
    single-occupancy gas carries twice the quantum correction of the
    standard Fermi gas.
    """
    if n_lambda3 <= 0:
        raise ValueError("n_lambda3 must be positive")
    if n_lambda3 > _SERIES_TRUST:
        warnings.warn(
            f"virial series used at n lambda^3 = {n_lambda3:g} > {_SERIES_TRUST}",
            ValidityWarning,
            stacklevel=2,
        )
    return 1.0 + (model.blocking / model.weight) * n_lambda3 / (4.0 * math.sqrt(2.0))


def fugacity_series(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Companion small-degeneracy series for the fugacity itself."""
    if n_lambda3 <= 0:
        raise ValueError("n_lambda3 must be positive")
    if n_lambda3 > _SERIES_TRUST:
        warnings.warn(
            f"fugacity series used at n lambda^3 = {n_lambda3:g} > {_SERIES_TRUST}",
            ValidityWarning,
            stacklevel=2,
        )
    x = n_lambda3 / model.weight
    return x * (1.0 + model.blocking * x / (2.0 * math.sqrt(2.0)))


@dataclass(frozen=True)
class ThermoPoint:
    """One solved point of the reduced equation of state."""

    eta: float
    fugacity: float
    n_lambda3: float
    energy_density: float
    pressure: float
    model: OccupancyModel

    def __post_init__(self):
        if self.n_lambda3 <= 0 or self.energy_density <= 0 or self.pressure <= 0:
            raise ValueError("thermodynamic quantities must be positive")
        if abs(self.fugacity - math.exp(self.eta)) > 1e-12 * self.fugacity:
            raise ValueError("fugacity inconsistent with eta")
        if abs(self.pressure - 2.0 * self.energy_density / 3.0) > 1e-6 * self.pressure:
            raise InvariantError("pressure and energy density violate p = (2/3) u")


def solve_point(
    model: OccupancyModel = EXCLUSIVE,
    eta: float | None = None,
    n_lambda3: float | None = None,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> ThermoPoint:
    """Fill in a full ThermoPoint from either eta or the degeneracy parameter."""
    if (eta is None) == (n_lambda3 is None):
        raise ValueError("give exactly one of eta or n_lambda3")
    if eta is None:
        eta = solve_fugacity(n_lambda3, model, spec)
    return ThermoPoint(
        eta=float(eta),
        fugacity=_scaled_exp(1.0, eta),
        n_lambda3=density(eta, model, spec),
        energy_density=energy_density(eta, model, spec),
        pressure=pressure(eta, model, spec),
        model=model,
    )
