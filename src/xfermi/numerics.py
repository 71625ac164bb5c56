"""Shared numerical kernels, the typed errors and the two guards of the package.

``positive_finite`` refuses an input outside (0, inf) with ``ValueError``;
``positive_double`` refuses a result that overflowed to inf or underflowed
to 0 with :class:`NumericsError`.  The package uses these and the errors,
none of the three primitives here: adaptive quadrature on the half line,
bracketed root finding, and ODE integration up to a terminal event, each
at one fixed tolerance set by module constants.  Its moments, inversions
and step moments run on fixed Gauss-Legendre nodes, and ``astro.lane_emden``
on the Taylor series of its equation.  The three are independent routes for
the tests (QUADPACK step moments, bracketed fugacity search, a DOP853
Lane-Emden solve) and need scipy, which is a test dependency only; they
stay in this module because the benchmark's ``--trace`` mode wraps them,
and scipy's ``quad`` and ``brentq`` behind them, by name.  numpy too is
imported on first use, by ``integrate_ode``.  Everything here
is a pure function of its arguments, so concurrent use needs no locking.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np


def __getattr__(name: str):
    """scipy.integrate and scipy.optimize as _sp_integrate and _sp_optimize,
    imported on first use: no subcommand needs them."""
    if name not in ("_sp_integrate", "_sp_optimize"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    setattr(_SELF, name, importlib.import_module("scipy." + name[4:]))
    return getattr(_SELF, name)


_SELF = sys.modules[__name__]


class NumericsError(Exception):
    """Base class for failures raised by the numerical kernels."""


def positive_finite(what: str, *values: float) -> None:
    """Refuse, as a bad input, any of ``values`` that is not in (0, inf)."""
    for v in values:  # a plain loop: all() over a generator costs more on hot paths
        if not 0.0 < v < math.inf:
            raise ValueError(f"{what} must be positive and finite")


def positive_double(value: float, what: str, *args) -> float:
    """``value``, unless it overflowed to inf or underflowed to 0; the error
    names the result ``what % args``, formatted only when it is raised."""
    if not 0.0 < value < math.inf:
        raise NumericsError(f"{what % args} {'overflows' if value else 'underflows'} a double")
    return value


class QuadratureError(NumericsError):
    """Quadrature did not reach the requested tolerance.

    Carries the best estimate found and its error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(
            f"{message} (best estimate {best_estimate:.12g}, "
            f"error bound {error_bound:.3g})"
        )
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class IntegrandDomainError(NumericsError):
    """The integrand produced NaN or an infinity inside the domain."""


class BracketError(NumericsError):
    """The supplied interval does not bracket a sign change."""


class RootConvergenceError(NumericsError):
    """Root iteration ran out of budget; carries the last estimate."""

    def __init__(self, message: str, estimate: float, bracket: tuple[float, float]):
        super().__init__(f"{message} (last estimate {estimate!r}, bracket {bracket!r})")
        self.estimate = estimate
        self.bracket = bracket


class EventHorizonError(NumericsError):
    """The ODE stop event never fired before the end of the interval."""


# the one setting each route runs at: QUADPACK to 1e-12 relative, 1e-15
# absolute, and brentq to 1e-12 in x; the step-moment and fugacity
# routes of the tests hold their answers to 1e-12
_QUAD_RTOL = 1e-12
_QUAD_ATOL = 1e-15
_QUAD_LIMIT = 200
_ROOT_XTOL = 1e-12
_ROOT_MAXITER = 200


def integrate_semi_infinite(integrand: Callable[[float], float]) -> float:
    """Integrate ``integrand`` over [0, inf) by adaptive subdivision.

    The unbounded interval is mapped onto a finite one internally.
    Returns the integral value; raises :class:`QuadratureError` carrying
    the best estimate when the tolerance cannot be met.
    """
    out = _SELF._sp_integrate.quad(
        integrand,
        0.0,
        math.inf,
        epsabs=_QUAD_ATOL,
        epsrel=_QUAD_RTOL,
        limit=_QUAD_LIMIT,
        full_output=1,
    )
    value, err = out[0], out[1]
    if not math.isfinite(value):
        raise IntegrandDomainError("integrand not finite on [0, inf)")
    # accept a result QUADPACK flagged only if the reported bound still meets
    # the contract (with slack for QUADPACK's pessimism near roundoff)
    if len(out) > 3 and err > 10.0 * max(_QUAD_ATOL, _QUAD_RTOL * abs(value)):
        raise QuadratureError(f"quadrature on [0, inf) did not converge: {out[3]}", value, err)
    return value


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Locate a root of ``f`` inside the sign-changing bracket [lo, hi].

    Uses superlinear interpolation steps with a bisection fallback, so a
    valid bracket always converges.
    """
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    f_lo = f(lo)
    f_hi = f(hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise IntegrandDomainError("function not finite at bracket endpoints")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}]: "
            f"f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g}"
        )
    root, result = _SELF._sp_optimize.brentq(
        f,
        lo,
        hi,
        xtol=_ROOT_XTOL,
        maxiter=_ROOT_MAXITER,
        full_output=True,
        disp=False,
    )
    if not result.converged:
        raise RootConvergenceError(
            f"root iteration exceeded {_ROOT_MAXITER} iterations",
            float(root),
            (lo, hi),
        )
    return float(root)


# tolerances of the adaptive ODE solver; with these a Lane-Emden solve to
# the surface lands within 4e-10 of mpmath on a grid over n in [0, 4.9)
# (worst at n = 2.57): theta^n has a branch point at the stop event
_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14


@dataclass(frozen=True)
class OdeTerminus:
    """Where the integration stopped: time, state vector, solver steps taken."""

    time: float
    state: np.ndarray
    steps: int


def integrate_ode(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    t0: float,
    y0: Sequence[float],
    stop_event: Callable[[float, np.ndarray], float],
    t_end: float,
) -> OdeTerminus:
    """Integrate ``y' = rhs(t, y)`` from ``t0`` until the continuous
    function ``stop_event(t, y)`` first falls to zero from above.

    One adaptive DOP853 solve with a terminal event; the crossing is
    located on the solver's dense output.  Returns at once, with no
    steps, when ``stop_event`` is already <= 0 at ``t0``.  Raises
    :class:`EventHorizonError` if the event never fires before ``t_end``.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    t0, t_end = float(t0), float(t_end)
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    y = np.array(y0, dtype=float)
    if stop_event(t0, y) <= 0.0:
        return OdeTerminus(t0, y, 0)

    def event(t, y):
        return stop_event(t, y)

    event.terminal = True
    event.direction = -1.0
    sol = solve_ivp(rhs, (t0, t_end), y, method="DOP853", events=event,
                    rtol=_ODE_RTOL, atol=_ODE_ATOL)
    if not sol.success:
        raise NumericsError(f"ODE solver failed: {sol.message}")
    if sol.t_events[0].size == 0:
        raise EventHorizonError(f"stop event did not fire before t = {t_end:g}")
    return OdeTerminus(float(sol.t_events[0][0]), sol.y_events[0][0], sol.t.size - 1)
