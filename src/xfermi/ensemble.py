"""Exact and stochastic oracles for finite level systems.

A :class:`LevelSystem` is a small set of orbital energies in the grand
canonical ensemble at beta = 1 (fold the temperature into the energies
before constructing one).  The same partition function is available
through two independent routes - a per-level product and brute-force
enumeration of every configuration - plus a Monte Carlo estimator for
mean occupancies.  Agreement between the routes is what validates the
closed-form occupation law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .occupancy import EXCLUSIVE, OccupancyModel

# radix**levels; 4**12 configurations take about 7 s to enumerate
MAX_CONFIGURATIONS = 4**12

# configuration tags: 0 empty, 1 spin-up, 2 spin-down, 3 doubly occupied
_OCCUPANCY_OF_TAG = np.array([0.0, 1.0, 1.0, 2.0])

_CHUNK = 1 << 20


class CapacityError(ValueError):
    """The level system is too large to enumerate."""


def _require_discrete_model(model: OccupancyModel) -> int:
    """Return the per-level state count (radix) for an enumerable model."""
    if model.weight == 2.0 and model.blocking == 2.0:
        return 3  # empty / up / down; double occupancy forbidden
    if model.weight == 2.0 and model.blocking == 1.0:
        return 4  # empty / up / down / both
    raise ValueError(
        f"model {model.name!r} has no discrete configuration space"
    )


@dataclass(frozen=True)
class LevelSystem:
    """Finite set of orbital energies with a discrete occupancy model."""

    energies: tuple[float, ...]
    model: OccupancyModel = EXCLUSIVE

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        if len(self.energies) < 1:
            raise ValueError("a level system needs at least one level")
        if not all(math.isfinite(e) for e in self.energies):
            raise ValueError("level energies must be finite")
        radix = _require_discrete_model(self.model)
        if radix ** len(self.energies) > MAX_CONFIGURATIONS:
            raise CapacityError(
                f"{radix}^{len(self.energies)} configurations exceed the "
                f"enumeration capacity of {MAX_CONFIGURATIONS}"
            )

    @property
    def radix(self) -> int:
        return _require_discrete_model(self.model)


@dataclass(frozen=True)
class GrandPartition:
    """Partition function in linear and log form (linear may overflow to inf)."""

    value: float
    log_value: float


def grand_partition_product(system: LevelSystem, fugacity: float) -> GrandPartition:
    """Grand partition function as a product of per-level factors.

    Exclusive: prod (1 + 2 z e^{-eps});  standard: prod (1 + z e^{-eps})^2.
    Accumulated in log space; the linear value is exp of that and may
    overflow to inf, which is why both are returned.
    """
    _check_fugacity(fugacity)
    g = system.model.weight
    a = system.model.blocking
    ln_az = math.log(a * fugacity)
    log_z = 0.0
    for eps in system.energies:
        log_z += (g / a) * float(np.logaddexp(0.0, ln_az - eps))
    return GrandPartition(_exp_or_inf(log_z), log_z)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_fugacity(z: float) -> None:
    if not (z > 0 and math.isfinite(z)):
        raise ValueError("fugacity must be positive and finite")


def _config_chunks(n_levels: int, radix: int):
    total = radix**n_levels
    shape = (radix,) * n_levels
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        yield np.array(np.unravel_index(idx, shape))  # (levels, block)


def _enumerate_sums(system: LevelSystem, z: float) -> tuple[float, float, np.ndarray]:
    """Partition sum and per-level occupancy-weighted sums, by enumeration.

    Returns (log of the largest configuration weight, sums scaled by that
    weight); the scaling keeps every weight at most 1, so none overflows.
    """
    energies = np.asarray(system.energies)[:, None]
    log_z = math.log(z)
    # each level takes its best state independently, so the largest
    # log-weight is a sum over levels of the empty or the fullest state
    full = _OCCUPANCY_OF_TAG[system.radix - 1]
    shift = float(np.maximum(0.0, full * (log_z - energies)).sum())
    total = 0.0
    weighted = np.zeros(len(system.energies))
    for tags in _config_chunks(len(system.energies), system.radix):
        occ = _OCCUPANCY_OF_TAG[tags]
        w = np.exp(log_z * occ.sum(axis=0) - (energies * occ).sum(axis=0) - shift)
        total += float(w.sum())
        weighted += (occ * w).sum(axis=1)
    return shift, total, weighted


def grand_partition_enumerate(system: LevelSystem, fugacity: float) -> float:
    """Grand partition function summed configuration by configuration."""
    _check_fugacity(fugacity)
    shift, total, _ = _enumerate_sums(system, fugacity)
    return total * _exp_or_inf(shift)


def mean_occupancies_enumerate(system: LevelSystem, fugacity: float) -> np.ndarray:
    """Mean occupancy of every level, from the enumerated ensemble average."""
    _check_fugacity(fugacity)
    _, total, weighted = _enumerate_sums(system, fugacity)
    return weighted / total


def mc_occupancy(
    energy: float,
    fugacity: float,
    samples: int,
    seed: int,
    model: OccupancyModel = EXCLUSIVE,
    stream: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of a single level's mean occupancy.

    Levels are independent in the grand canonical ensemble, so one level
    is sampled directly from its state probabilities.  Deterministic for a
    given (seed, stream); use a distinct ``stream`` per level when
    sampling several levels so results do not depend on evaluation order.

    Returns:
        (mean occupancy, standard error of the mean).
    """
    _check_fugacity(fugacity)
    radix = _require_discrete_model(model)
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    y = math.log(fugacity) - energy
    log_weights = np.array([0.0, y, y, 2.0 * y][:radix])
    weights = np.exp(log_weights - log_weights.max())
    probabilities = weights / weights.sum()
    rng = np.random.default_rng([int(seed), int(stream)])
    draws = rng.choice(radix, size=int(samples), p=probabilities)
    occ = _OCCUPANCY_OF_TAG[draws]
    mean = float(occ.mean())
    if samples == 1:
        return mean, math.inf
    standard_error = float(occ.std(ddof=1) / math.sqrt(samples))
    return mean, standard_error
