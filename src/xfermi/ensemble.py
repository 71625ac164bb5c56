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
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import positive_finite
from .occupancy import EXCLUSIVE, OccupancyModel

# radix**levels; 4**12 configurations take about 11 ms to enumerate, and
# 3**15 about 9.5 ms, on one core of a 2-CPU Intel Xeon with numpy 2.4
MAX_CONFIGURATIONS = 4**12

# level states: 0 empty, 1 spin-up, 2 spin-down, 3 doubly occupied
_OCCUPANCY_OF_TAG = np.array([0.0, 1.0, 1.0, 2.0])

# configurations per enumeration block: 256 KB of weights stay in cache
_CHUNK = 1 << 15

# the largest sample count numpy's multinomial takes (a C int64)
_MAX_SAMPLES = 2**63 - 1


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


def check_capacity(levels: int, model: OccupancyModel) -> None:
    """Raise unless ``levels`` levels of ``model`` fit the enumeration; needs no energies."""
    if levels < 1:
        raise ValueError("a level system needs at least one level")
    radix = _require_discrete_model(model)
    if radix ** min(levels, 64) > MAX_CONFIGURATIONS:  # a huge count's power stays small
        raise CapacityError(f"{radix}^{levels} configurations exceed the "
                            f"enumeration capacity of {MAX_CONFIGURATIONS}")


@dataclass(frozen=True)
class LevelSystem:
    """Finite set of orbital energies with a discrete occupancy model."""

    energies: tuple[float, ...]
    model: OccupancyModel = EXCLUSIVE

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        if not all(math.isfinite(e) for e in self.energies):
            raise ValueError("level energies must be finite")
        check_capacity(len(self.energies), self.model)

    @property
    def radix(self) -> int:
        return _require_discrete_model(self.model)


def grand_partition_product(system: LevelSystem, fugacity: float) -> float:
    """Log of the grand partition function, as a product of per-level factors.

    Exclusive: prod (1 + 2 z e^{-eps});  standard: prod (1 + z e^{-eps})^2.
    Accumulated in log space, where it stays finite past the double range.
    """
    positive_finite("fugacity", fugacity)
    g = system.model.weight
    a = system.model.blocking
    ln_az = math.log(a * fugacity)
    log_z = 0.0
    for eps in system.energies:
        log_z += (g / a) * float(np.logaddexp(0.0, ln_az - eps))
    return log_z


def _collapse(w: np.ndarray, occ: np.ndarray) -> tuple[float, list[float]]:
    """Sum of level-major weights and the occupancy-weighted sum of each level.

    ``w`` holds one weight per configuration of some levels, the first
    level the slowest index.  Each pass takes the leading level's marginal
    with contiguous (pairwise) row sums, then adds its ``radix`` rows to
    collapse it, so no sum runs along a long strided axis.
    """
    sums = []
    while w.size > 1:
        rows = w.reshape(len(occ), -1)
        sums.append(float(occ @ rows.sum(axis=1)))
        w = rows.sum(axis=0)
    return float(w[0]), sums


def _outer_product(rows: np.ndarray) -> np.ndarray:
    """Flat outer product of the rows' entries, the first row the slowest index.

    Each level's states are multiplied in one column at a time, so every
    multiply runs along the long axis of the products so far.
    """
    out = np.ones(1)
    for row in rows:
        grown = np.empty((out.size, row.size))
        for state, value in enumerate(row):
            np.multiply(out, value, out=grown[:, state])
        out = grown.ravel()
    return out


def _sum_blocks(rows: list, weight: float, tail: np.ndarray, sums: np.ndarray, totals: list):
    """Write the sum of the blocks under the prefix levels ``rows`` into ``sums[0]``.

    ``rows`` holds the state factors of the prefix levels still to
    be chosen, and ``weight`` the product of the factors chosen so far.
    With no prefix level left, the block ``tail * weight`` is written to
    ``sums[0]`` and its sum appended to ``totals``.  Otherwise the first
    state's blocks are summed into ``sums[0]``, and each later state's into
    ``sums[1]`` (``sums[2:]`` is its scratch) and then added to ``sums[0]``,
    so each weight goes through one add per prefix level and the rounding
    grows with the levels, not with the blocks.
    """
    if not rows:
        np.multiply(tail, weight, out=sums[0])
        totals.append(sums[0].sum())
        return
    first, rest = rows[0], rows[1:]
    _sum_blocks(rest, weight * first[0], tail, sums, totals)
    for factor in first[1:]:
        _sum_blocks(rest, weight * factor, tail, sums[1:], totals)
        np.add(sums[0], sums[1], out=sums[0])


def _enumerate_sums(system: LevelSystem, z: float) -> tuple[float, np.ndarray]:
    """ln Z and the mean occupancy of every level, by enumeration.

    The sums are scaled by the largest configuration weight, which keeps
    every weight at most 1, so none overflows; ln Z adds its log back.
    A configuration's weight is the product of one factor per level, each
    level's state factors exponentiated once from their peak-shifted
    log-weights.  Configurations are visited in blocks that share their
    leading (prefix) levels; a block's weights are the trailing levels'
    outer product times its prefix's weight, so each configuration's weight
    is still formed, and added to the sums, on its own.  ``_sum_blocks``
    walks the prefix levels and adds the blocks up level by level.
    """
    positive_finite("fugacity", z)
    radix, levels = system.radix, len(system.energies)
    occ = _OCCUPANCY_OF_TAG[:radix]
    # state log-weights occ_t (ln z - eps_l), one row per level; each level's
    # best state is empty or fullest, so the largest configuration log-weight
    # (the shift) is the sum of the row maxima, taken off row by row, and
    # every state factor e^{log_w - peak} is at most 1
    log_w = occ * (math.log(z) - np.asarray(system.energies))[:, None]
    peaks = log_w.max(axis=1)
    shift = float(peaks.sum())
    factors = np.exp(log_w - peaks[:, None])
    split = 0  # prefix levels; the trailing (tail) levels fill at most _CHUNK weights
    while radix ** (levels - split) > _CHUNK:
        split += 1
    tail = _outer_product(factors[split:])
    sums = np.empty((split + 1, tail.size))
    totals = []
    _sum_blocks(factors[:split].tolist(), 1.0, tail, sums, totals)
    total, prefix_sums = _collapse(np.array(totals), occ)
    _, tail_sums = _collapse(sums[0], occ)
    return shift + math.log(total), np.array(prefix_sums + tail_sums) / total


def grand_partition_enumerate(system: LevelSystem, fugacity: float) -> float:
    """Log of the grand partition function, summed configuration by configuration."""
    return _enumerate_sums(system, fugacity)[0]


def mean_occupancies_enumerate(system: LevelSystem, fugacity: float) -> np.ndarray:
    """Mean occupancy of every level, from the enumerated ensemble average."""
    return _enumerate_sums(system, fugacity)[1]


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
    is sampled directly from its state probabilities.  The counts of
    ``samples`` independent draws follow ``Multinomial(samples, p)``
    exactly, and the mean and its error depend on the draws only through
    those counts, so the counts are drawn in one ``Generator.multinomial``
    call at a cost that does not grow with ``samples``.  Deterministic for
    a given (seed, stream), but not the values ``Generator.choice`` gives on
    that stream; use a distinct ``stream`` per level when sampling several
    levels so results do not depend on evaluation order.

    Returns:
        (mean occupancy, standard error of the mean).
    """
    positive_finite("fugacity", fugacity)
    radix = _require_discrete_model(model)
    # the bound goes first: float() of a huge int overflows
    if not (1 <= samples <= _MAX_SAMPLES and float(samples).is_integer()):
        raise ValueError("samples must be a positive integer no larger than 2^63 - 1")
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    y = math.log(fugacity) - energy
    if not 2.0 * y < math.inf:  # nan, or e^{2y} has no finite log-weight
        raise ValueError("energy is nan or too far below ln(fugacity)")
    occ = _OCCUPANCY_OF_TAG[:radix]
    # the state table's log-weights occ_t y.  Below y = -max/2 every state
    # but the empty one has weight 0 anyway; holding y there keeps 2y finite
    # and 0 * y a number at y = -inf (an infinite energy)
    log_weights = occ * max(y, -0.5 * sys.float_info.max)
    weights = np.exp(log_weights - log_weights.max())
    probabilities = weights / weights.sum()
    rng = np.random.default_rng([int(seed), int(stream)])
    samples = int(samples)
    counts = rng.multinomial(samples, probabilities)
    mean = float(counts @ occ) / samples
    if samples == 1:
        return mean, math.inf
    variance = float(counts @ (occ - mean) ** 2) / (samples - 1)
    return mean, math.sqrt(variance) / math.sqrt(samples)
