"""Occupation law, occupancy models, the thermal wavelength and the T = 0 closed forms.

The whole package is built around a two-parameter mean occupancy per
orbital,

    n(x) = weight / (exp(x) + blocking),        x = (eps - mu) / kT.

``weight`` counts the spin states that can feed an orbital and
``blocking`` controls how strongly multiple occupancy is suppressed:
blocking = 2 forbids double occupancy outright (one particle per orbital
even for opposite spins), blocking = 1 is the ordinary spin-1/2 Fermi
gas, and blocking = 0 recovers classical Boltzmann counting.

Reduced units hbar = m = k_B = 1 throughout, so the Fermi temperature
equals the Fermi energy.  numpy is imported by the first ``occupation``
call for an array: nothing else here needs array code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import REDUCED, PhysicalConstants
from .numerics import NumericsError, positive_double, positive_finite


class ValidityWarning(UserWarning):
    """A result was requested outside its series' trusted range."""


@dataclass(frozen=True)
class OccupancyModel:
    """Mean occupancy n(x) = weight / (exp(x) + blocking) of one orbital."""

    name: str
    weight: float = 2.0
    blocking: float = 2.0

    def __post_init__(self):
        positive_finite("weight", self.weight)
        if not 0.0 <= self.blocking < math.inf:
            raise ValueError("blocking must be non-negative and finite")

    @property
    def step_height(self) -> float:
        """Per-orbital occupancy of the T = 0 step (weight / blocking)."""
        if self.blocking == 0:
            raise ValueError(
                f"model {self.name!r} has no degenerate limit (blocking = 0)"
            )
        return self.weight / self.blocking


EXCLUSIVE = OccupancyModel("exclusive", 2.0, 2.0)
STANDARD_FD = OccupancyModel("fd", 2.0, 1.0)
BOLTZMANN = OccupancyModel("boltzmann", 2.0, 0.0)

MODELS: dict[str, OccupancyModel] = {
    m.name: m for m in (EXCLUSIVE, STANDARD_FD, BOLTZMANN)
}


def occupation(x, model: OccupancyModel = EXCLUSIVE):
    """Mean occupancy at reduced energy x = (eps - mu)/kT.

    Accepts scalars (returning a float) or arrays.  Stable over the whole
    double range: with w = e^{-|x|} <= 1 the law is weight*w/(1 + blocking*w)
    for x >= 0 and weight/(w + blocking) below.  Only the classical law
    weight*e^{-x} leaves the double range (below x ~ -709.09 at weight 2),
    and there it raises :class:`NumericsError`.  NaN is refused with
    ``ValueError``; x = +-inf gives the limits.  A scalar runs without numpy.
    """
    g, a = model.weight, model.blocking
    if isinstance(x, (int, float)):  # libm's exp may differ from numpy's by 1 ulp
        if math.isnan(x):
            raise ValueError("x must not be nan")
        w = math.exp(-abs(x))
        out = g * w / (1.0 + a * w) if x >= 0.0 else g / (w + a) if w + a else math.inf
        overflow = math.isinf(out) and math.isfinite(x)
    else:
        import numpy as np

        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("x must not be nan")
        w = np.exp(-np.abs(x))
        with np.errstate(over="ignore", divide="ignore"):
            out = np.where(x >= 0.0, g * w / (1.0 + a * w), g / (w + a))
        overflow = (np.isinf(out) & np.isfinite(x)).any()
    if a == 0.0 and overflow:
        raise NumericsError("the classical occupation weight e^{-x} overflows a double")
    return out if isinstance(out, float) or out.ndim else float(out)


def thermal_wavelength(
    mass: float, temperature: float, constants: PhysicalConstants = REDUCED
) -> float:
    """de Broglie thermal wavelength sqrt(2 pi hbar^2 / (m k_B T)).

    A wavelength that a double cannot hold raises :class:`NumericsError`.
    """
    positive_finite("mass and temperature", mass, temperature)
    thermal = mass * constants.k_B * temperature
    wavelength = math.sqrt(2.0 * math.pi * constants.hbar**2 / thermal) if thermal else math.inf
    return positive_double(
        wavelength, "the thermal wavelength at mass %r and temperature %r", mass, temperature)


def fermi_energy(n: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Fermi energy at number density n (reduced units).

    E_F = (1/2) (6 pi^2 n / s)^{2/3} with s the T = 0 step height; the
    single-occupancy gas (s = 1) sits 2^{2/3} above the standard gas
    (s = 2) at equal density.
    """
    positive_finite("density", n)
    return positive_double(0.5 * (6.0 * math.pi**2 * n / model.step_height) ** (2.0 / 3.0),
                           "the Fermi energy at density %r", n)


def ground_state_energy(n_particles: float, e_f: float) -> float:
    """Total T = 0 energy, E = (3/5) N E_F."""
    positive_finite("particle number and Fermi energy", n_particles, e_f)
    return positive_double(0.6 * n_particles * e_f, "the ground-state energy")


def degeneracy_pressure(n: float, e_f: float) -> float:
    """T = 0 pressure, P = (2/5) n E_F."""
    positive_finite("density and Fermi energy", n, e_f)
    return positive_double(0.4 * n * e_f, "the degeneracy pressure")
