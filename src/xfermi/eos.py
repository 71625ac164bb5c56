"""Finite-temperature equation of state in reduced variables.

Everything is expressed through eta = mu/kT and the degeneracy parameter
n lambda^3, which removes mass, temperature and volume from the problem:

    n lambda^3 = (2/sqrt(pi)) Int_0^inf sqrt(x) n(x - eta) dx
    u          = (2/sqrt(pi)) Int_0^inf x^{3/2}  n(x - eta) dx
    p          = (2/sqrt(pi)) (g/a) Int_0^inf sqrt(x) ln(1 + a e^{eta-x}) dx

with u = <E> lambda^3 / (V kT) and p = P lambda^3 / kT.  The pressure
comes from the log of the grand partition function, an independent route
from the energy integral, and p = (2/3) u ties the two together.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .numerics import NumericsError, RootConvergenceError
from .occupancy import EXCLUSIVE, OccupancyModel, ValidityWarning

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# series in n lambda^3 are quoted to second order; beyond this they drift
_SERIES_TRUST = 0.2


class FugacityOverflowError(NumericsError, OverflowError):
    """e^eta, or a moment that grows with it, exceeds the double range."""


class InvariantError(NumericsError, ValueError):
    """Two independent routes to the same quantity disagree."""


# Fixed Gauss-Legendre panels for the half-line moments (Fukushima 2015,
# Aparicio 1998).  The occupation 1/(e^{x-k} + 1) has its poles at
# x = k +- i pi, so 20 nodes on a panel no wider than 4 reach rounding
# error.  The first panel, [0, lo], is taken in u = sqrt(x), which removes
# the sqrt(x) branch point at the origin; 19 x-panels run from lo up to
# k + 40, past which the occupation is below e^{-40}.  lo is one panel
# width, or k - 36 once that is larger: below k - 36 the occupation is
# 1 - O(e^{-36}), so the integrands are polynomials in u of degree <= 4,
# which the u-panel integrates exactly.
_GL_T, _GL_V = np.polynomial.legendre.leggauss(20)
_PANELS = 19
_PANEL_WIDTH = 4.0
_TAIL = 40.0
_BULK = 36.0

_V = 0.5 * (1.0 + _GL_T)  # nodes on [0, 1]
_HEAD, _BODY = np.zeros(_V.size), np.ones(_PANELS * _V.size)
# nodes lo * _X_LO + span * _X_SPAN, weights lo * _W_LO + span * _W_SPAN;
# on the u-panel x = lo v^2, so dx = 2 lo v dv
_X_LO = np.concatenate((_V**2, _BODY))
_X_SPAN = np.concatenate((_HEAD, ((np.arange(_PANELS)[:, None] + _V) / _PANELS).ravel()))
_W_LO = np.concatenate((_V * _GL_V, np.zeros_like(_BODY)))
_W_SPAN = np.concatenate((_HEAD, np.tile(_GL_V, _PANELS) / (2.0 * _PANELS)))


def _degenerate(k: np.ndarray, rows: list[int]) -> np.ndarray:
    """``rows`` of (2/sqrt(pi)) (F_{1/2}, F_{3/2}, Int sqrt(x) ln(1 + e^{k-x}) dx,
    F_{-1/2}/2) at k > 0.  Row 3, dF_{1/2}/dk, is integrated by parts,
    (1/2) Int x^{-1/2} f dx, which the u-panel keeps finite at 0: the direct
    Int sqrt(x) f (1 - f) dx lives on the Fermi edge alone, which the x-panels
    lose once k passes ~1e16 and they collapse to zero width in doubles.
    """
    lo = np.maximum(k - _BULK, _PANEL_WIDTH)[:, None]
    span = k[:, None] + _TAIL - lo
    x = lo * _X_LO + span * _X_SPAN
    d = x - k[:, None]
    r = np.sqrt(x)
    denominator = 1.0 + np.exp(d)
    integrand = (lambda: r / denominator, lambda: r / denominator * x,
                 lambda: r * np.logaddexp(0.0, -d), lambda: 0.5 / (r * denominator))
    integrands = np.stack([integrand[i]() for i in rows])
    # summed row by row, so each value is independent of the others in k
    return _TWO_OVER_SQRT_PI * (integrands * (lo * _W_LO + span * _W_SPAN)).sum(axis=-1)


# the dilute form runs on the nodes of k = 0, weighted by x^j e^{-x} / Gamma(j + 1)
_DILUTE_X = _PANEL_WIDTH * _X_LO + (_TAIL - _PANEL_WIDTH) * _X_SPAN
_DILUTE_E = np.exp(-_DILUTE_X)
_DILUTE_W = (_PANEL_WIDTH * _W_LO + (_TAIL - _PANEL_WIDTH) * _W_SPAN) * _DILUTE_E
_DILUTE_W *= np.sqrt(_DILUTE_X) * _TWO_OVER_SQRT_PI
_DILUTE_W = np.stack((_DILUTE_W, _DILUTE_W * _DILUTE_X, _DILUTE_W, _DILUTE_W))[:, None, :]
_CLASSICAL = np.array([[1.0], [1.5], [1.0], [1.0]])  # (n, u, p, dn/deta) / (g e^eta) at a = 0


def _dilute(w: np.ndarray, rows: list[int]) -> np.ndarray:
    """``rows`` of (n, u, p, dn/deta) / (g e^eta) at w = a e^eta <= 1.

    With y = w e^{-x}, each is its classical value less the correction
    (2/sqrt(pi)) Int x^j e^{-x} psi(y) dx, where psi = y/(1 + y) for the
    density (j = 1/2) and energy (j = 3/2), 1 - ln(1 + y)/y for the
    pressure (j = 1/2), and y(2 + y)/(1 + y)^2 for dn/deta (j = 1/2).
    At a = 0 the correction vanishes exactly.
    """
    y = w[:, None] * _DILUTE_E
    occupied = y / (1.0 + y)
    correction = (lambda: occupied, lambda: occupied,
                  lambda: 1.0 - np.divide(np.log1p(y), y, out=np.ones_like(y), where=y > 0.0),
                  lambda: occupied * (2.0 + y) / (1.0 + y))
    corrections = np.stack([correction[i]() for i in rows])
    return _CLASSICAL[rows] - (corrections * _DILUTE_W[rows]).sum(axis=-1)


def _moments(eta, model: OccupancyModel, rows=(0, 1, 2, 3)) -> np.ndarray:
    """Density, energy density, pressure and dn/deta (rows 0-3) at scalar or 1-D eta.

    Returns the chosen ``rows``: shape (len(rows),) for a scalar,
    (len(rows), m) for m values.  The shift identity n_{g,a}(eta) =
    (g/a) n_FD(eta + ln a) reduces every model to one Fermi integral at
    k = eta + ln a.  For k <= 0, and for the classical model (a = 0), the
    fugacity-scaled form keeps relative accuracy down to e^eta near the
    bottom of the double range.  Only the chosen rows are computed and
    checked for overflow, so a moment that fits a double is returned even
    when a larger one at the same eta does not.
    """
    flat = np.atleast_1d(np.asarray(eta, dtype=float))
    if flat.ndim != 1 or not np.isfinite(flat).all():
        raise ValueError("eta must be a finite scalar or 1-D array")
    g, a = model.weight, model.blocking
    k = flat + math.log(a) if a > 0.0 else np.full_like(flat, -np.inf)
    rows = list(rows)
    out = np.empty((len(rows), flat.size))
    dilute = k <= 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        if dilute.any():
            z = np.exp(flat[dilute])
            out[:, dilute] = g * z * _dilute(a * z, rows)
        if not dilute.all():
            out[:, ~dilute] = (g / a) * _degenerate(k[~dilute], rows)
    if not np.isfinite(out).all():  # only the largest eta can overflow
        raise FugacityOverflowError(f"a moment overflows a double at eta = {flat.max():g}")
    return out if np.ndim(eta) else out[:, 0]


def density(eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Reduced density n lambda^3 at reduced chemical potential eta."""
    return float(_moments(eta, model, [0])[0])


def energy_density(eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Reduced energy density u = <E> lambda^3 / (V kT)."""
    return float(_moments(eta, model, [1])[0])


def pressure(eta: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Reduced pressure p = P lambda^3 / kT from the grand-potential integral."""
    return float(_moments(eta, model, [2])[0])


# Newton's start is k(nu), the inverse of n_FD(k) = -Li_{3/2}(-e^k) = nu, on
# three Chebyshev pieces of ln nu: k - ln nu in nu below the first join, k in
# ln nu up to the second, and k/k0 in k0^{-2} above it, with k0 the T = 0 step.
# It is within 1e-15 max(1, |k|) of the 30-digit inverse, so the first Newton
# step already meets the 1e-13 stop.
# generated by scripts/fermi_tables.py from mpmath; rerun it, do not edit
_INVERSE_JOINS = (-2.0, 4.5)
_INVERSE_DILUTE = np.array([
    0.023890239642897795, 0.023878963863634594, -1.1264366022017697e-05,
    1.1401722722095794e-08, -1.1509552348071074e-11, 8.907132284755656e-15,
    -1.4454884129123275e-18,
])
_INVERSE_MIDDLE = np.array([
    6.36482251429062, 11.403149973942538, 4.347598499954668,
    1.6167055535414823, 0.42335810921618583, 0.0780054980781539,
    0.012058596611515775, 0.0029533630601877533, 0.0007876324609460746,
    -2.097915161035849e-05, -9.251709592599216e-05, -8.174901722984306e-06,
    1.6486470123571865e-05, 5.7238459653615695e-06, -1.7543760133562316e-06,
    -1.6541932426684717e-06, -1.3495860652732866e-07, 2.9922268606035216e-07,
    1.2462740334934762e-07, -2.0931181968403156e-08, -3.318642540239442e-08,
    -7.170307367042168e-09, 4.406436578187966e-09, 3.081006319906347e-09,
    1.9903952161003763e-10, -5.68440684085821e-10, -2.5089656597843796e-10,
    2.4608491020121538e-11, 6.082974180050707e-11, 1.7579431187091456e-11,
    -5.892320847255511e-12, -5.766005690856122e-12, -9.40502824430854e-13,
    8.180853536318374e-13, 4.897677708960905e-13, 1.436441068245975e-14,
    -9.307568504114731e-14, -3.6431577138942515e-14, 5.63343149673967e-15,
    9.331245055636315e-15, 2.167389566035946e-15, -1.126510588491798e-15,
    -8.375179906493538e-16,
])
_INVERSE_DEGENERATE = np.array([
    0.9993012862187629, -0.000699158769376679, -4.4648505991912487e-07,
    -1.5126471486275426e-09, -1.6126210009696453e-11, -4.2068752899242654e-13,
    -2.3011971519252727e-14, -1.837524915249244e-15, -5.253809050880134e-17,
    3.75198924574822e-17,
])
_K0_SCALE = (0.75 * math.sqrt(math.pi)) ** (2.0 / 3.0)


def _fd_inverse(log_nu: float) -> float:
    """k with n_FD(k) = e^log_nu, from the Chebyshev tables."""
    low, high = _INVERSE_JOINS
    if log_nu < low:
        return log_nu + float(chebval(2.0 * math.exp(log_nu - low) - 1.0, _INVERSE_DILUTE))
    if log_nu < high:
        return float(chebval((2.0 * log_nu - low - high) / (high - low), _INVERSE_MIDDLE))
    # k0 = (3 sqrt(pi)/4 nu)^{2/3} from the cube root of e^{log_nu/2}, which keeps
    # the rounding of log_nu/1.5 (4e-14 of k0 at log_nu = 690) out of k0
    k0 = _K0_SCALE * float(np.cbrt(math.exp(0.5 * log_nu))) ** 4
    x = 2.0 * math.exp((high - log_nu) / 0.75) - 1.0  # 2 (k0 at the join / k0)^2 - 1
    return k0 * float(chebval(x, _INVERSE_DEGENERATE))


# Newton from the tabled start confirms the root with one kernel call for
# every n lambda^3 from 1e-300 to 1e300; the cap only stops a runaway iteration
_NEWTON_STEPS = 50


def solve_fugacity(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Invert the density integral: eta such that density(eta) = n lambda^3.

    Newton on ln n(eta), with dn/deta from the moment kernel.  Through the
    shift identity eta = k - ln a, where k inverts the Fermi integral at
    nu = n lambda^3 a/g; it starts from the tabled k(nu) of ``_fd_inverse``,
    close enough that the first step is the confirming one.  The classical
    model (a = 0) starts from its exact eta = ln(n lambda^3 / g).
    """
    if not (n_lambda3 > 0 and math.isfinite(n_lambda3)):
        raise ValueError("n_lambda3 must be positive and finite")
    g, a = model.weight, model.blocking
    target = math.log(n_lambda3)
    if a > 0.0:
        eta = _fd_inverse(target + math.log(a / g)) - math.log(a)
    else:
        eta = target - math.log(g)
    for _ in range(_NEWTON_STEPS):
        n, slope = _moments(eta, model, [0, 3])
        step = float((target - math.log(n)) * n / slope)
        eta += step
        # rounding in ln n limits each step to ~1e-15 eta; stop above that
        if abs(step) <= 1e-13 * max(1.0, abs(eta)):
            return eta
    raise RootConvergenceError(
        f"Newton inversion at n lambda^3 = {n_lambda3!r} took over {_NEWTON_STEPS} steps",
        eta,
        tuple(sorted((eta - step, eta))),
    )


def _check_series(name: str, n_lambda3: float) -> None:
    if n_lambda3 <= 0:
        raise ValueError("n_lambda3 must be positive")
    if n_lambda3 > _SERIES_TRUST:
        warnings.warn(
            f"{name} series used at n lambda^3 = {n_lambda3:g} > {_SERIES_TRUST}",
            ValidityWarning,
            stacklevel=3,
        )


def virial_pressure(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Second-order virial form of PV/(N kT) at degeneracy parameter n lambda^3.

    PV/(N kT) = 1 + (blocking/weight) n lambda^3 / (4 sqrt(2)); the
    single-occupancy gas carries twice the quantum correction of the
    standard Fermi gas.
    """
    _check_series("virial", n_lambda3)
    return 1.0 + (model.blocking / model.weight) * n_lambda3 / (4.0 * math.sqrt(2.0))


def fugacity_series(n_lambda3: float, model: OccupancyModel = EXCLUSIVE) -> float:
    """Companion small-degeneracy series for the fugacity itself."""
    _check_series("fugacity", n_lambda3)
    x = n_lambda3 / model.weight
    return x * (1.0 + model.blocking * x / (2.0 * math.sqrt(2.0)))


@dataclass(frozen=True)
class ThermoPoint:
    """One solved point of the reduced equation of state."""

    eta: float
    n_lambda3: float
    energy_density: float
    pressure: float
    model: OccupancyModel

    def __post_init__(self):
        if self.n_lambda3 <= 0 or self.energy_density <= 0 or self.pressure <= 0:
            raise ValueError("thermodynamic quantities must be positive")
        # u / 3 first: 2 u overflows a double before u does
        if abs(self.pressure - 2.0 * (self.energy_density / 3.0)) > 1e-6 * self.pressure:
            raise InvariantError("pressure and energy density violate p = (2/3) u")

    @property
    def fugacity(self) -> float:
        """z = e^eta; past eta ~ 709.78 it leaves the double range and raises."""
        try:
            return math.exp(self.eta)
        except OverflowError:
            raise FugacityOverflowError(
                f"e^eta overflows a double at eta = {self.eta:g}"
            ) from None


def solve_point(
    model: OccupancyModel = EXCLUSIVE,
    eta: float | None = None,
    n_lambda3: float | None = None,
) -> ThermoPoint:
    """Fill in a full ThermoPoint from either eta or the degeneracy parameter."""
    if (eta is None) == (n_lambda3 is None):
        raise ValueError("give exactly one of eta or n_lambda3")
    if eta is None:
        eta = solve_fugacity(n_lambda3, model)
    n, u, p = _moments(eta, model, [0, 1, 2])
    if min(n, u, p) == 0.0:  # e^eta below the double range
        raise NumericsError(f"a moment underflows a double at eta = {eta:g}")
    return ThermoPoint(
        eta=float(eta),
        n_lambda3=float(n),
        energy_density=float(u),
        pressure=float(p),
        model=model,
    )
