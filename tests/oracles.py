"""Numerical oracles, independent of the package's own kernels.

The package's Gauss-Legendre moments are checked against three other
routes: dense fixed grids on the occupation law, adaptive QUADPACK
(the route the package used before), and mpmath's polylogarithm.  Its
Newton inversion and analytic heat capacity are checked against the
bracketed root search and the Richardson-differenced energy they
replaced, its closed-form Landau susceptibility against the level sum
differenced in the field and extrapolated to zero, and its Fermi-edge
step moments against adaptive QUADPACK.  Its deep-degeneracy moments,
the ratios at fixed density and the Fermi-energy round trip are checked
against the Sommerfeld series, the fixed-density target and the
density-of-states route, each written out here.  The Chebyshev start of its
inversion is checked against the 30-digit inverse of mpmath's polylog.
Its block-wise enumeration of level configurations is checked against
the tag-by-tag enumeration it replaced.  Its Monte Carlo, one multinomial
draw of the state counts, is checked exactly against the same draw with
the mean and error in rational arithmetic, and in distribution against
``samples`` states drawn one by one with numpy's ``Generator.choice``.
Its Taylor-series Lane-Emden solution is checked against a fixed-step RK4
march and mpmath's ODE solver.

The dense-grid moments use the substitution u = sqrt(x), which removes
the sqrt(x) kink at the origin: a plain trapezoid on x converges like
h^{3/2} there and would stall near 1e-7, far above the tolerances these
oracles are held to.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate

from xfermi.constants import REDUCED, PhysicalConstants
from xfermi.ensemble import LevelSystem
from xfermi.eos import density, energy_density
from xfermi.magnetism import landau_partition_ratio
from xfermi.numerics import (
    BracketError,
    NumericsError,
    find_root,
    integrate_semi_infinite,
)
from xfermi.occupancy import EXCLUSIVE, OccupancyModel

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


def polylog_moments(
    eta: float, model: OccupancyModel = EXCLUSIVE
) -> tuple[float, float, float, float]:
    """(n lambda^3, u, p, dn/deta) from mpmath's polylog at 30 digits.

    Shift identity: n = (g/a) f_{3/2}(a e^eta), u = (3/2) (g/a) f_{5/2},
    p = (g/a) f_{5/2}, dn/deta = (g/a) f_{1/2}, with f_nu(w) = -Li_nu(-w);
    the classical model is n = p = dn/deta = g e^eta, u = (3/2) g e^eta.
    """
    g, a = model.weight, model.blocking
    with mpmath.workdps(30):
        if a == 0.0:
            n = g * mpmath.exp(eta)
            return float(n), float(1.5 * n), float(n), float(n)
        w = -mpmath.exp(mpmath.mpf(eta) + mpmath.log(a))
        f12, f32, f52 = (-mpmath.re(mpmath.polylog(nu, w)) * g / a for nu in (0.5, 1.5, 2.5))
        return float(f32), float(1.5 * f52), float(f52), float(f12)


def polylog_inverse(log_nu: float, start: float) -> float:
    """k with -Li_{3/2}(-e^k) = e^log_nu at 30 digits, the inverse Fermi integral.

    Newton on ln n_FD from ``start`` until the step is below
    1e-25 max(1, |k|); ln n_FD is concave in k, so it converges from any start.
    """
    with mpmath.workdps(30):
        k, target = mpmath.mpf(start), mpmath.mpf(log_nu)
        for _ in range(100):
            n = -mpmath.re(mpmath.polylog(1.5, -mpmath.exp(k)))
            step = (target - mpmath.log(n)) * n / -mpmath.re(mpmath.polylog(0.5, -mpmath.exp(k)))
            k += step
            if abs(step) < 1e-25 * max(1, abs(k)):
                return float(k)
    raise RuntimeError(f"no 30-digit inverse at ln nu = {log_nu!r}")


def polylog_heat(eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """C/(N k_B) at fixed density, (15/4) f_{5/2}/f_{3/2} - (9/4) f_{3/2}/f_{1/2},
    at 40 digits, where the two terms cancel to ~3/eta^2 of their size."""
    with mpmath.workdps(40):
        w = -mpmath.exp(mpmath.mpf(eta) + mpmath.log(model.blocking))
        f12, f32, f52 = (-mpmath.re(mpmath.polylog(nu, w)) for nu in (0.5, 1.5, 2.5))
        return float(3.75 * f52 / f32 - 2.25 * f32 / f12)


def bracket_fugacity(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """eta with density(eta) = n lambda^3, by bracket doubling and brentq.

    The route the package used before its Newton inversion: the bracket
    grows by doubling away from the classical estimate ln(n lambda^3 / g),
    then ``numerics.find_root`` closes it to 1e-12 in eta.
    """

    def residual(eta: float) -> float:
        return density(eta, model) - n_lambda3

    eta0 = math.log(n_lambda3 / model.weight)
    r0 = residual(eta0)
    if r0 == 0.0:
        return eta0
    sign = math.copysign(1.0, r0)  # +1: eta0 overshoots, so search below it
    far, step = eta0, 1.0
    for _ in range(200):
        far -= sign * step
        step *= 2.0
        if sign * residual(far) <= 0.0:
            break
    else:
        raise BracketError(f"no fugacity bracket {'above' if sign < 0 else 'below'} eta0")
    return find_root(residual, *sorted((eta0, far)))


def richardson_heat(t: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """c/(k_B t) by centred differences of E/(N E_F) in t at step 1e-3 t,
    refined once by Richardson.

    The route the package used before its analytic heat capacity; each
    E/(N E_F) inverts the density through ``bracket_fugacity``.  The
    differences amplify the inversion error as 1/t^2.
    """

    def energy_per_particle(tt: float) -> float:
        target = (4.0 / (3.0 * math.sqrt(math.pi))) * model.step_height * tt**-1.5
        return energy_density(bracket_fugacity(target, model), model) / target * tt

    def slope(step: float) -> float:
        above, below = energy_per_particle(t + step), energy_per_particle(t - step)
        return (above - below) / (2.0 * step)

    h = 1e-3 * t
    return (4.0 * slope(0.5 * h) - slope(h)) / 3.0 / t


def _log1p_exp(y: float) -> float:
    """log(1 + e^y) without overflow on either side."""
    if y > 36.0:
        return y + math.log1p(math.exp(-y))
    if y < -36.0:
        return math.exp(y)
    return math.log1p(math.exp(y))


def quad_moment(kind: str, eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Density, energy density or pressure by adaptive QUADPACK, to 1e-12 relative.

    The integrands sqrt(x) f(x - eta), x^{3/2} f(x - eta) and
    (g/a) sqrt(x) ln(1 + a e^{eta - x}) are split at the Fermi edge
    x = eta + ln a and 40 either side of it, where those are above 0, so
    that the edge gets segments of its own.
    """
    g, a = model.weight, model.blocking
    knee = eta + math.log(a) if a > 0.0 else -math.inf
    if kind == "pressure" and a == 0.0:

        def f(x: float) -> float:
            return g * math.sqrt(x) * math.exp(eta - x)

    elif kind == "pressure":

        def f(x: float) -> float:
            return (g / a) * math.sqrt(x) * _log1p_exp(knee - x)

    else:
        power = {"density": 0.5, "energy_density": 1.5}[kind]

        def f(x: float) -> float:
            return x**power * float(occupancy_grid(x - eta, model))

    edges = [0.0] + [b for b in (knee - 40.0, knee, knee + 40.0) if b > 0.0] + [math.inf]
    total = sum(
        integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    )
    return (2.0 / math.sqrt(math.pi)) * total


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


def extrapolated_susceptibility(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """chi kT/(mu_B^2 n) from the level sum, differenced in the field and
    extrapolated to zero field.

    The route the package used before its closed form: with z = n lambda^3/g,
    (d ratio/ds)/s is formed by centred differences (steps of 5% of s) at
    s = 0.2, 0.1, 0.05, 0.025, and an exact polynomial fit in s^2 gives its
    s -> 0 value; the fit without the smallest s must agree to 5%.  Good to
    about 6e-11, the kernel's rounding amplified by the differences.
    """
    z = n_lambda3 / model.weight
    svals = np.array([0.2, 0.1, 0.05, 0.025])

    def d_ratio(s: float) -> float:
        h = 0.05 * s
        above = landau_partition_ratio(z, s + h, model)
        below = landau_partition_ratio(z, s - h, model)
        return (above - below) / (2.0 * h * s)

    def fit_constant(sv: np.ndarray, dv: np.ndarray) -> float:
        v = (sv / sv.max()) ** 2  # scaled to keep the Vandermonde sane
        return float(np.linalg.solve(np.vander(v, len(v)), dv)[-1])

    d_arr = np.array([d_ratio(s) for s in svals])
    chi = fit_constant(svals, d_arr)
    check = fit_constant(svals[:-1], d_arr[:-1])
    if abs(chi - check) > 0.05 * abs(chi):
        raise NumericsError(f"zero-field extrapolation unstable: {chi!r} vs {check!r}")
    return chi


def quad_step_moment(order: int, blocking: float = 2.0) -> float:
    """A_k = Int x^k e^x/(e^x + a)^2 dx over the real line by adaptive QUADPACK.

    The route the package used before its Fermi-edge sum: the kernel
    1/(e^{x/2} + a e^{-x/2})^2 on each half line through
    ``numerics.integrate_semi_infinite``, to 1e-12 relative.
    """
    a = float(blocking)

    def kernel(x: float) -> float:
        if abs(x) > 600.0:
            return 0.0
        s = math.exp(0.5 * x) + a * math.exp(-0.5 * x)
        return 1.0 / (s * s)

    positive = integrate_semi_infinite(lambda x: x**order * kernel(x))
    mirrored = integrate_semi_infinite(lambda y: y**order * kernel(-y))
    return positive + (-1.0) ** order * mirrored


def sommerfeld_series(p: float, eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Sommerfeld series of the moment that grows like eta^p at large eta.

    (2/(p sqrt(pi))) s eta^p [1 + p R1/eta + (1/2) p (p - 1) R2/eta^2], with
    s the step height, R1 = ln a and R2 = (ln a)^2 + pi^2/3 written out;
    p = 3/2 is n lambda^3 and p = 5/2 is u.
    """
    ln_a = math.log(model.blocking)
    r1, r2 = ln_a, ln_a**2 + math.pi**2 / 3.0
    t = 1.0 / eta
    bracket = 1.0 + p * r1 * t + 0.5 * p * (p - 1.0) * r2 * t * t
    return 2.0 / (p * math.sqrt(math.pi)) * model.step_height * eta**p * bracket


def fixed_density_point(t: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """n lambda^3 = (4/(3 sqrt(pi))) s t^{-3/2} of a gas held at fixed density,
    at t = kT/E_F: the target that ``solve_point`` inverts."""
    return (4.0 / (3.0 * math.sqrt(math.pi))) * model.step_height * t**-1.5


def dos_coefficient(mass: float, constants: PhysicalConstants = REDUCED) -> float:
    """b of the free-particle density of states D(eps) = b V sqrt(eps),
    b = (2m)^{3/2} / (4 pi^2 hbar^3); the spin weight stays in the occupancy."""
    return (2.0 * mass) ** 1.5 / (4.0 * math.pi**2 * constants.hbar**3)


def fermi_sea_density(e_f: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Density of the filled Fermi sea, (2/3) b s E_F^{3/2}: the density-of-states
    route back from ``fermi_energy``."""
    return (2.0 / 3.0) * dos_coefficient(1.0) * model.step_height * e_f**1.5


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


def lane_emden_mp(index: float, dps: int = 30) -> tuple[mpmath.mpf, mpmath.mpf]:
    """First zero xi_1 and mass integral -xi_1^2 theta'(xi_1) on ``mpmath.odefun``.

    Starts at xi = 1e-6 from the three-term series.  The zero is approached
    from inside only: beyond xi_1 theta^n is complex, and at xi_1 it has a
    branch point where the series solver's steps shrink without end, so a
    root search that brackets xi_1 would stall there.  Since
    theta'' = -theta^n - 2 theta'/xi >= -1 while 0 < theta <= 1, the
    parabola theta + theta' h - h^2/2 stays below theta, and a step to its
    zero never passes xi_1.  Once near, the steps shrink quadratically.
    """
    with mpmath.workdps(dps):
        n = mpmath.mpf(index)
        xi = mpmath.mpf("1e-6")
        theta = 1 - xi**2 / 6 + n * xi**4 / 120
        phi = -xi / 3 + n * xi**3 / 30
        solution = mpmath.odefun(
            lambda x, y: [y[1], -(y[0] ** n) - 2 * y[1] / x], xi, [theta, phi]
        )
        while True:
            h = 2 * theta / (mpmath.sqrt(phi**2 + 2 * theta) - phi)
            if h <= 16 * mpmath.eps * xi:
                return xi, -(xi**2) * phi
            xi += h
            theta, phi = solution(xi)


# configuration tags: 0 empty, 1 spin-up, 2 spin-down, 3 doubly occupied
_OCCUPANCY_OF_TAG = np.array([0.0, 1.0, 1.0, 2.0])
_TAG_CHUNK = 1 << 20


def _config_chunks(n_levels: int, radix: int):
    total = radix**n_levels
    shape = (radix,) * n_levels
    for start in range(0, total, _TAG_CHUNK):
        idx = np.arange(start, min(start + _TAG_CHUNK, total))
        yield np.array(np.unravel_index(idx, shape))  # (levels, block)


def enumerate_by_tags(system: LevelSystem, z: float) -> tuple[float, float, np.ndarray]:
    """Partition sum and per-level occupancy-weighted sums, tag by tag.

    Every configuration index is unravelled into one state tag per level,
    and its weight is built from those tags.  Returns (log of the largest
    configuration weight, sums scaled by that weight), the sums from which
    ``xfermi.ensemble._enumerate_sums`` forms ln Z and the occupancies.
    """
    energies = np.asarray(system.energies)[:, None]
    log_z = math.log(z)
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


def _state_probabilities(energy: float, fugacity: float, model: OccupancyModel) -> np.ndarray:
    """Probabilities of a level's states (empty, up, down[, both]) at beta = 1."""
    radix = 4 if model.blocking == 1.0 else 3
    y = math.log(fugacity) - energy
    log_weights = np.array([0.0, y, y, 2.0 * y][:radix])
    weights = np.exp(log_weights - log_weights.max())
    return weights / weights.sum()


def mc_by_choice(
    energy: float,
    fugacity: float,
    samples: int,
    seed: int,
    model: OccupancyModel = EXCLUSIVE,
    stream: int = 0,
) -> tuple[float, float]:
    """Mean occupancy of one level and its standard error, from an array of
    ``samples`` states drawn one by one by ``Generator.choice``.

    An independent sampler of the law that ``xfermi.ensemble.mc_occupancy``
    samples: its draws use the same (seed, stream) but not the same values,
    so the two agree in distribution, not draw for draw.
    """
    probabilities = _state_probabilities(energy, fugacity, model)
    rng = np.random.default_rng([seed, stream])
    states = rng.choice(len(probabilities), samples, p=probabilities)
    occupancies = _OCCUPANCY_OF_TAG[states]
    mean = float(occupancies.sum()) / samples
    if samples == 1:
        return mean, math.inf
    return mean, float(occupancies.std(ddof=1)) / math.sqrt(samples)


def mc_by_multinomial(
    energy: float,
    fugacity: float,
    samples: int,
    seed: int,
    model: OccupancyModel = EXCLUSIVE,
    stream: int = 0,
) -> tuple[float, float]:
    """Mean occupancy of one level and its standard error, from the state
    counts of one ``Generator.multinomial`` draw on the (seed, stream) of
    ``xfermi.ensemble.mc_occupancy``.

    The occupancy sum s and square sum q are integers, so the mean s/N and
    the variance (N q - s^2) / (N^2 (N - 1)) of the mean are exact
    rationals, each rounded once.
    """
    probabilities = _state_probabilities(energy, fugacity, model)
    counts = np.random.default_rng([seed, stream]).multinomial(samples, probabilities)
    occupancies = (0, 1, 1, 2)
    total = sum(int(c) * o for c, o in zip(counts, occupancies))
    squares = sum(int(c) * o * o for c, o in zip(counts, occupancies))
    mean = float(Fraction(total, samples))
    if samples == 1:
        return mean, math.inf
    variance = Fraction(samples * squares - total * total, samples * samples * (samples - 1))
    return mean, math.sqrt(variance)
