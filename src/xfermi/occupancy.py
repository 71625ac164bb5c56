"""Occupation law, occupancy models and the thermal wavelength.

The whole package is built around a two-parameter mean occupancy per
orbital,

    n(x) = weight / (exp(x) + blocking),        x = (eps - mu) / kT.

``weight`` counts the spin states that can feed an orbital and
``blocking`` controls how strongly multiple occupancy is suppressed:
blocking = 2 forbids double occupancy outright (one particle per orbital
even for opposite spins), blocking = 1 is the ordinary spin-1/2 Fermi
gas, and blocking = 0 recovers classical Boltzmann counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import REDUCED, PhysicalConstants

class ValidityWarning(UserWarning):
    """A result was requested outside its series' trusted range."""


@dataclass(frozen=True)
class OccupancyModel:
    """Mean occupancy n(x) = weight / (exp(x) + blocking) of one orbital."""

    name: str
    weight: float = 2.0
    blocking: float = 2.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.blocking < 0:
            raise ValueError("blocking must be non-negative")

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
    weight*e^{-x} overflows, to inf, once it leaves the double range.
    NaN is refused with ``ValueError``; x = +-inf gives the limits.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("x must not be nan")
    g, a = model.weight, model.blocking
    w = np.exp(-np.abs(x))
    with np.errstate(over="ignore", divide="ignore"):
        out = np.where(x >= 0.0, g * w / (1.0 + a * w), g / (w + a))
    return float(out) if out.ndim == 0 else out


def thermal_wavelength(
    mass: float, temperature: float, constants: PhysicalConstants = REDUCED
) -> float:
    """de Broglie thermal wavelength sqrt(2 pi hbar^2 / (m k_B T))."""
    if mass <= 0 or temperature <= 0:
        raise ValueError("mass and temperature must be positive")
    return math.sqrt(
        2.0 * math.pi * constants.hbar**2 / (mass * constants.k_B * temperature)
    )


def dos_coefficient(mass: float, constants: PhysicalConstants = REDUCED) -> float:
    """Coefficient b of the free-particle density of states D(eps) = b V sqrt(eps).

    b = (2m)^{3/2} / (4 pi^2 hbar^3); the spin weight is carried by the
    occupancy law, not by the density of states.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    return (2.0 * mass) ** 1.5 / (4.0 * math.pi**2 * constants.hbar**3)
