"""Magnetic response: spin paramagnetism and orbital diamagnetism.

Pauli part: each spin species fills the density integral with its fugacity
shifted by the Zeeman energy, b_red = mu_B B / kT.  Orbital part: the
grand partition function is summed over quantized transverse levels with
reduced spacing 2s, s = (hbar omega_c)/(2 kT) = mu_B B / kT,

    log Z = (V/lambda^3) (2s/sqrt(pi)) Sum_n Int (g/a) ln(1 + a z e^{-q^2 - s(2n+1)}) dq.

Each level's momentum integral is the density integral at eta = ln z -
s(2n+1), and once a z e^{-s(2n+1)} <= 1/2 the fugacity expansion turns
the remaining levels into geometric series, so the sum is evaluated in
closed form; its small-z limit is the geometric factor 1/(2 sinh s).
The level sum is a midpoint rule in s, so its s^2 term, and with it the
zero-field susceptibility, is one dn/deta row of the moment kernel; the
dilute limit is chi kT/(mu_B^2 n) = -1/3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .eos import _moments
from .numerics import NumericsError
from .occupancy import EXCLUSIVE, OccupancyModel

# degenerate Landau levels are summed through the moment kernel in chunks
# of this many levels (bounded memory), and at most this many in all
MAX_DEGENERATE_LEVELS = 10**6
_LEVEL_CHUNK = 1024


class LevelBudgetError(NumericsError):
    """More degenerate Landau levels than MAX_DEGENERATE_LEVELS."""


@dataclass(frozen=True)
class MagnetizationResult:
    """Spin populations and magnetization, all per lambda^3 of volume.

    ``magnetization`` is in units of mu_B.
    """

    n_up: float
    n_down: float
    magnetization: float

    @property
    def per_particle(self) -> float:
        """M / (N mu_B)."""
        return self.magnetization / (self.n_up + self.n_down)


def pauli_magnetization(
    eta: float, b_red: float, model: OccupancyModel = EXCLUSIVE
) -> MagnetizationResult:
    """Spin populations and magnetization at reduced field b_red = mu_B B / kT.

    Each species fills (1/2) density(eta -+ b_red) per lambda^3, up being
    the one raised by the field; exchanging the field sign swaps them exactly.
    In the dilute limit M/(N mu_B) -> tanh(b_red) independent of the
    occupancy model; saturation bounds |M| <= N mu_B always.  Populations
    that both underflow, or a subnormal one that still counts beside the
    other (M/N would lose digits), raise :class:`NumericsError`.
    """
    if not math.isfinite(b_red):
        raise ValueError("the field must be finite")
    up, down = 0.5 * _moments(np.array([eta - b_red, eta + b_red]), model, [0])[0]
    n_up, n_down = float(up), float(down)
    small = min(n_up, n_down)
    if small < sys.float_info.min and small >= 2.0**-53 * max(n_up, n_down):
        raise NumericsError(
            f"the smaller spin population underflows a double at eta = {eta!r}, "
            f"b = {b_red!r}: up {n_up!r}, down {n_down!r}"
        )
    return MagnetizationResult(n_up, n_down, n_down - n_up)


def landau_partition_ratio(
    fugacity: float,
    s: float,
    model: OccupancyModel = EXCLUSIVE,
) -> float:
    """log Z over its field-free dilute value g z V/lambda^3; -> s/sinh(s).

    ``s`` is the reduced level spacing over two (mu_B B / kT).  Level n
    contributes sqrt(pi) density(ln z - s(2n+1)) per V/lambda^3.  The
    first N levels, those with a z e^{-s(2n+1)} > 1/2, go through the
    moment kernel as arrays (more than MAX_DEGENERATE_LEVELS of them raise
    :class:`LevelBudgetError`); for the rest the fugacity expansion of the
    log converges, and its sum over levels is geometric:

        ratio = (2s/(g z)) Sum_{n<N} density(ln z - s(2n+1))
                + e^{-s(2N+1)} Sum_k (-1)^{k+1} w^{k-1} 2s / (k^{3/2} (1 - e^{-2ks}))

    with w = a z e^{-s(2N+1)} <= 1/2.  The classical model (a = 0) keeps
    only k = 1, which is s/sinh(s).  Each tail term carries its own 2s, so
    it stays finite as s -> 0, where 1 - e^{-2ks} is subnormal.
    """
    if not (0.0 < fugacity < math.inf and 0.0 < s < math.inf):
        raise ValueError("fugacity and s must be positive and finite")
    az = model.blocking * fugacity
    levels = (math.log(2.0 * az) / s - 1.0) / 2.0 if az > 0.5 else 0.0
    if levels > MAX_DEGENERATE_LEVELS:
        raise LevelBudgetError(f"{levels:.3g} degenerate Landau levels, over the budget")
    levels = math.ceil(levels)
    ln_z = math.log(fugacity)
    degenerate = 0.0
    for start in range(0, levels, _LEVEL_CHUNK):
        n = np.arange(start, min(start + _LEVEL_CHUNK, levels))
        degenerate += float(_moments(ln_z - s * (2 * n + 1), model, [0]).sum())
    decay = math.exp(-s * (2 * levels + 1))
    w = az * decay
    total, k = 0.0, 1
    while True:
        term = (-w) ** (k - 1) * (2.0 * s / -math.expm1(-2.0 * k * s)) / k**1.5
        total += term
        if abs(term) <= 1e-17 * total:
            break
        k += 1
    return 2.0 * s * degenerate / (model.weight * fugacity) + decay * total


def geometric_level_factor(s: float) -> float:
    """Closed geometric sum over levels: e^{-s}/(1 - e^{-2s}) = 1/(2 sinh s).

    Below s ~ 2.8e-309 it overflows a double, and past s ~ 710 sinh s does:
    :class:`NumericsError`.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    try:
        factor = 1.0 / (2.0 * math.sinh(s))
    except OverflowError:
        factor = 0.0
    if not 0.0 < factor < math.inf:
        raise NumericsError(
            f"1/(2 sinh s) {'overflows' if factor else 'underflows'} a double at s = {s!r}")
    return factor


def small_field_series_factor(s: float) -> float:
    """Quadratic truncation of s/sinh(s): 1 - s^2/6."""
    return 1.0 - s * s / 6.0


def landau_susceptibility(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Reduced orbital susceptibility chi kT/(mu_B^2 n) at zero field.

    The fugacity is eliminated through the dilute relation
    n lambda^3 = weight * z.  The level sum 2s Sum_n density(ln z - s(2n+1))
    is a midpoint rule of step 2s for Int_0^inf density(ln z - t) dt = p, so
    Euler-Maclaurin gives

        ratio(s) = p/(g z) - (s^2/6) (dn/deta)/(g z) + O(s^4),

    up to terms of order e^{-pi^2/s}, all at eta = ln z.  Hence
    chi = -(dn/deta)/(3 g z) = -(1/3) f_{1/2}(a z)/(a z), exactly -1/3 for
    the classical model and the dilute limit of the others.
    """
    if n_lambda3 <= 0:
        raise ValueError("n_lambda3 must be positive")
    z = n_lambda3 / model.weight
    return -float(_moments(math.log(z), model, [3])[0]) / (3.0 * model.weight * z)
