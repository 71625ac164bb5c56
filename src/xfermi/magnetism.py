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
The zero-field susceptibility is extracted by differencing log Z in s and
extrapolating s -> 0, and lands on chi kT/(mu_B^2 n) = -1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import density
from .numerics import DEFAULT_QUADRATURE, NumericsError, QuadratureSpec
from .occupancy import EXCLUSIVE, OccupancyModel


class ExtrapolationError(NumericsError):
    """The zero-field extrapolation did not settle."""


@dataclass(frozen=True)
class MagnetizationResult:
    """Spin populations and magnetization, all per lambda^3 of volume.

    ``magnetization`` is in units of mu_B; ``susceptibility`` is the
    reduced combination chi kT / (mu_B^2 n) when one was computed.
    """

    n_up: float
    n_down: float
    magnetization: float
    susceptibility: float | None = None

    @property
    def per_particle(self) -> float:
        """M / (N mu_B)."""
        return self.magnetization / (self.n_up + self.n_down)


def pauli_populations(
    eta: float,
    b_red: float,
    model: OccupancyModel = EXCLUSIVE,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Spin populations (up, down) per lambda^3, up being the species
    raised by the field.  Exchanging the field sign swaps them exactly."""
    up = 0.5 * density(eta - b_red, model, spec)
    down = 0.5 * density(eta + b_red, model, spec)
    return up, down


def pauli_magnetization(
    eta: float,
    b_red: float,
    model: OccupancyModel = EXCLUSIVE,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> MagnetizationResult:
    """Spin magnetization at reduced field b_red = mu_B B / kT.

    In the dilute limit M/(N mu_B) -> tanh(b_red) independent of the
    occupancy model; saturation bounds |M| <= N mu_B always.
    """
    n_up, n_down = pauli_populations(eta, b_red, model, spec)
    return MagnetizationResult(n_up, n_down, n_down - n_up)


def landau_partition_ratio(
    fugacity: float,
    s: float,
    model: OccupancyModel = EXCLUSIVE,
) -> float:
    """log Z over its field-free dilute value g z V/lambda^3; -> s/sinh(s).

    ``s`` is the reduced level spacing over two (mu_B B / kT).  Level n
    contributes sqrt(pi) density(ln z - s(2n+1)) per V/lambda^3.  The
    first N levels, those with a z e^{-s(2n+1)} > 1/2, are summed level
    by level; for the rest the fugacity expansion of the log converges,
    and its sum over levels is geometric:

        ratio = 2s [ (1/(g z)) Sum_{n<N} density(ln z - s(2n+1))
                     + e^{-s(2N+1)} Sum_k (-1)^{k+1} w^{k-1} / (k^{3/2} (1 - e^{-2ks})) ]

    with w = a z e^{-s(2N+1)} <= 1/2.  The classical model (a = 0) keeps
    only k = 1, which is s/sinh(s).
    """
    if not (0.0 < fugacity < math.inf and 0.0 < s < math.inf):
        raise ValueError("fugacity and s must be positive and finite")
    az = model.blocking * fugacity
    levels = math.ceil((math.log(2.0 * az) / s - 1.0) / 2.0) if az > 0.5 else 0
    ln_z = math.log(fugacity)
    degenerate = sum(density(ln_z - s * (2 * n + 1), model) for n in range(levels))
    decay = math.exp(-s * (2 * levels + 1))
    w = az * decay
    total, k = 0.0, 1
    while True:
        term = (-w) ** (k - 1) / (k**1.5 * -math.expm1(-2.0 * k * s))
        total += term
        if abs(term) <= 1e-17 * total:
            break
        k += 1
    return 2.0 * s * (degenerate / (model.weight * fugacity) + decay * total)


def geometric_level_factor(s: float) -> float:
    """Closed geometric sum over levels: e^{-s}/(1 - e^{-2s}) = 1/(2 sinh s)."""
    if s <= 0:
        raise ValueError("s must be positive")
    return 1.0 / (2.0 * math.sinh(s))


def small_field_series_factor(s: float) -> float:
    """Quadratic truncation of s/sinh(s): 1 - s^2/6."""
    return 1.0 - s * s / 6.0


def landau_susceptibility(
    n_lambda3: float,
    model: OccupancyModel = EXCLUSIVE,
    s_values: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025),
    relative_step: float = 0.05,
) -> float:
    """Reduced orbital susceptibility chi kT/(mu_B^2 n), extrapolated to B = 0.

    The fugacity is eliminated through the dilute relation
    n lambda^3 = weight * z.  d(log Z)/ds is formed by centered
    differences at each s, and the sequence is extrapolated to zero field
    by an exact polynomial fit in s^2.  The dilute limit is -1/3.
    """
    if n_lambda3 <= 0:
        raise ValueError("n_lambda3 must be positive")
    if len(s_values) < 2:
        raise ValueError("need at least two s values to extrapolate")
    z = n_lambda3 / model.weight

    def d_ratio(s: float) -> float:
        h = s * relative_step
        above = landau_partition_ratio(z, s + h, model)
        below = landau_partition_ratio(z, s - h, model)
        return (above - below) / (2.0 * h * s)

    s_arr = np.asarray(s_values, dtype=float)
    d_arr = np.array([d_ratio(s) for s in s_arr])

    def fit_constant(svals: np.ndarray, dvals: np.ndarray) -> float:
        v = (svals / svals.max()) ** 2  # scaled to keep the Vandermonde sane
        coeffs = np.linalg.solve(np.vander(v, len(v)), dvals)
        return float(coeffs[-1])

    chi = fit_constant(s_arr, d_arr)
    check = fit_constant(s_arr[:-1], d_arr[:-1])
    if abs(chi - check) > 0.05 * abs(chi):
        raise ExtrapolationError(
            f"zero-field extrapolation unstable: {chi!r} vs {check!r}"
        )
    return chi
