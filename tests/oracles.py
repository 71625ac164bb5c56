"""Brute-force numerical oracles, independent of the package's own kernels.

Everything here works from the occupation law alone, on dense fixed
grids, so that the adaptive-quadrature results in the package can be
checked against a second, dumber route.  The half-line moments use the
substitution u = sqrt(x), which removes the sqrt(x) kink at the origin:
a plain trapezoid on x converges like h^{3/2} there and would stall near
1e-7, far above the tolerances these oracles are held to.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from xfermi import EXCLUSIVE, OccupancyModel

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def occupancy_grid(x: np.ndarray, model: OccupancyModel) -> np.ndarray:
    """Occupation law evaluated directly, clipped for exp stability."""
    x = np.asarray(x, dtype=float)
    return model.weight / (np.exp(np.clip(x, -700.0, 700.0)) + model.blocking)


def halfline_moment(
    power: float,
    eta: float,
    model: OccupancyModel = EXCLUSIVE,
    upper: float | None = None,
    points: int = 1_000_001,
) -> float:
    """Trapezoid estimate of Int_0^inf x^power f(x - eta) dx.

    Evaluated as Int_0^sqrt(upper) 2 u^(2 power + 1) f(u^2 - eta) du.
    """
    if upper is None:
        upper = 60.0 + max(eta, 0.0)
    u = np.linspace(0.0, math.sqrt(upper), points)
    integrand = 2.0 * u ** (2.0 * power + 1.0) * occupancy_grid(u * u - eta, model)
    return float(_trapezoid(integrand, u))


def density_oracle(eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """n lambda^3 by dense trapezoid."""
    return (2.0 / math.sqrt(math.pi)) * halfline_moment(0.5, eta, model)


def energy_density_oracle(eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """u by dense trapezoid."""
    return (2.0 / math.sqrt(math.pi)) * halfline_moment(1.5, eta, model)


def landau_level_sum(
    z: float, s: float, model: OccupancyModel = EXCLUSIVE, linearized: bool = False
) -> float:
    """log Z / (g z V/lambda^3) summed level by level with QUADPACK.

    Level n adds 2 Int_0^inf (g/a) ln(1 + a z e^{-q^2 - s(2n+1)}) dq, to
    1e-12 relative; the sum stops once a level adds less than 1e-14 of the
    running total.  ``linearized`` keeps only the first order in z, whose
    sum over levels must reproduce s/sinh(s).
    """
    g, a = model.weight, model.blocking
    total, n = 0.0, 0
    while True:
        c = s * (2 * n + 1)
        if linearized or a == 0.0:

            def level(q: float) -> float:
                return g * z * math.exp(-q * q - c)

        else:

            def level(q: float) -> float:
                return (g / a) * math.log1p(a * z * math.exp(-q * q - c))

        value, _ = integrate.quad(level, 0.0, math.inf, epsabs=1e-15, epsrel=1e-12, limit=200)
        term = 2.0 * value
        total += term
        if term <= 1e-14 * total:
            return (2.0 * s / math.sqrt(math.pi)) * total / (g * z)
        n += 1


def lane_emden_rk4(
    index: float, step: float = 1e-4, tolerance: float = 1e-12, horizon: float = 500.0
) -> tuple[float, float]:
    """First zero xi_1 and mass integral -xi_1^2 theta'(xi_1) by fixed-step RK4.

    Classical RK4 on plain floats from the series start xi = step; once a
    step lands at theta <= 0, the crossing is bisected by re-taking one
    shorter step from that step's start, down to ``tolerance`` in xi.
    """

    def rhs(xi, theta, phi):
        return phi, -max(theta, 0.0) ** index - 2.0 * phi / xi

    def advance(xi, theta, phi, h):
        k1 = rhs(xi, theta, phi)
        k2 = rhs(xi + 0.5 * h, theta + 0.5 * h * k1[0], phi + 0.5 * h * k1[1])
        k3 = rhs(xi + 0.5 * h, theta + 0.5 * h * k2[0], phi + 0.5 * h * k2[1])
        k4 = rhs(xi + h, theta + h * k3[0], phi + h * k3[1])
        return (
            theta + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            phi + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        )

    xi = step
    theta = 1.0 - xi**2 / 6.0 + index * xi**4 / 120.0
    phi = -xi / 3.0 + index * xi**3 / 30.0
    while xi < horizon:
        end = advance(xi, theta, phi, step)
        if end[0] <= 0.0:
            lo, hi = 0.0, step
            while hi - lo > tolerance:
                mid = 0.5 * (lo + hi)
                trial = advance(xi, theta, phi, mid)
                if trial[0] <= 0.0:
                    hi, end = mid, trial
                else:
                    lo = mid
            xi1 = xi + hi
            return xi1, -(xi1**2) * end[1]
        xi += step
        theta, phi = end
    raise RuntimeError(f"theta has no zero before xi = {horizon:g}")
