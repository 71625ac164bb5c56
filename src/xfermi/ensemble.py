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

# radix**levels; 4**12 configurations (or 3**15) take about 0.03 s to
# enumerate on one core of a 2-CPU Intel Xeon with numpy 2.4
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


def _outer_sum(rows: np.ndarray) -> np.ndarray:
    """Flat outer sum of the rows' entries, the first row the slowest index.

    Each level's states are added one column at a time, so every add runs
    along the long axis of the sums so far.
    """
    out = np.zeros(1)
    for row in rows:
        grown = np.empty((out.size, row.size))
        for state, value in enumerate(row):
            np.add(out, value, out=grown[:, state])
        out = grown.ravel()
    return out


def _enumerate_sums(system: LevelSystem, z: float) -> tuple[float, float, np.ndarray]:
    """Partition sum and per-level occupancy-weighted sums, by enumeration.

    Returns (log of the largest configuration weight, sums scaled by that
    weight); the scaling keeps every weight at most 1, so none overflows.
    Configurations are visited in blocks that share their leading (prefix)
    levels; a block's log-weights are its prefix's plus the trailing levels'
    outer sum, and every weight is exp of its own log-weight.
    """
    radix, levels = system.radix, len(system.energies)
    occ = _OCCUPANCY_OF_TAG[:radix]
    # state log-weights occ_t (ln z - eps_l), one row per level; each level's
    # best state is empty or fullest, so the largest configuration log-weight
    # (the shift) is the sum of the row maxima, taken off row by row
    log_w = occ * (math.log(z) - np.asarray(system.energies))[:, None]
    peaks = log_w.max(axis=1)
    shift = float(peaks.sum())
    log_w -= peaks[:, None]
    tail_levels = levels
    while radix**tail_levels > _CHUNK:
        tail_levels -= 1
    split = levels - tail_levels
    prefixes, tail = (_outer_sum(rows) for rows in (log_w[:split], log_w[split:]))
    block_totals = np.empty_like(prefixes)
    # partial[k] adds up the blocks under the current states of the first k
    # prefix levels, and partial[split] is the block itself.  Once level k
    # has seen all its radix states, partial[k] passes up to partial[k - 1]
    # and starts again, so each weight goes through one add per prefix level
    # and the rounding grows with the levels, not with the blocks.
    partial = np.zeros((split + 1, tail.size))
    block = partial[split]
    for b, prefix in enumerate(prefixes):
        np.exp(np.add(tail, prefix, out=block), out=block)
        block_totals[b] = block.sum()
        level, done = split, b + 1
        while level > 0:
            np.add(partial[level - 1], partial[level], out=partial[level - 1])
            if level < split:
                partial[level] = 0.0
            if done % radix:
                break
            done //= radix
            level -= 1
    total, prefix_sums = _collapse(block_totals, occ)
    _, tail_sums = _collapse(partial[0], occ)
    return shift, total, np.array(prefix_sums + tail_sums)


def grand_partition_enumerate(system: LevelSystem, fugacity: float) -> GrandPartition:
    """Grand partition function summed configuration by configuration.

    Returned, like :func:`grand_partition_product`, in linear and log form.
    """
    _check_fugacity(fugacity)
    shift, total, _ = _enumerate_sums(system, fugacity)
    log_z = shift + math.log(total)
    return GrandPartition(_exp_or_inf(log_z), log_z)


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
    _check_fugacity(fugacity)
    radix = _require_discrete_model(model)
    # the bound goes first: float() of a huge int overflows
    if not (1 <= samples <= _MAX_SAMPLES and float(samples).is_integer()):
        raise ValueError("samples must be a positive integer no larger than 2^63 - 1")
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    y = math.log(fugacity) - energy
    if not 2.0 * y < math.inf:  # nan, or e^{2y} has no finite log-weight
        raise ValueError("energy is nan or too far below ln(fugacity)")
    log_weights = np.array([0.0, y, y, 2.0 * y][:radix])
    weights = np.exp(log_weights - log_weights.max())
    probabilities = weights / weights.sum()
    rng = np.random.default_rng([int(seed), int(stream)])
    samples = int(samples)
    counts = rng.multinomial(samples, probabilities)
    occ = _OCCUPANCY_OF_TAG[:radix]
    mean = float(counts @ occ) / samples
    if samples == 1:
        return mean, math.inf
    variance = float(counts @ (occ - mean) ** 2) / (samples - 1)
    return mean, math.sqrt(variance) / math.sqrt(samples)
