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
from .numerics import NumericsError

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
    """de Broglie thermal wavelength sqrt(2 pi hbar^2 / (m k_B T)).

    A wavelength that a double cannot hold raises :class:`NumericsError`.
    """
    if not (0.0 < mass < math.inf and 0.0 < temperature < math.inf):
        raise ValueError("mass and temperature must be positive and finite")
    thermal = mass * constants.k_B * temperature
    wavelength = math.sqrt(2.0 * math.pi * constants.hbar**2 / thermal) if thermal else math.inf
    if not 0.0 < wavelength < math.inf:
        raise NumericsError(
            f"the thermal wavelength at mass {mass!r} and temperature {temperature!r} "
            "leaves the double range"
        )
    return wavelength
