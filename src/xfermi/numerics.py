"""Shared numerical kernels.

Three primitives used throughout the package: adaptive quadrature on the
half line, bracketed root finding, and ODE integration up to a terminal
event.  Everything here is a pure function of its arguments, so
concurrent use needs no locking.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def __getattr__(name: str):
    """scipy.integrate and scipy.optimize as _sp_integrate and _sp_optimize,
    imported on first use: the moment kernel and most subcommands never need them."""
    if name not in ("_sp_integrate", "_sp_optimize"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    setattr(_SELF, name, importlib.import_module("scipy." + name[4:]))
    return getattr(_SELF, name)


_SELF = sys.modules[__name__]


class NumericsError(Exception):
    """Base class for failures raised by the numerical kernels."""


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


@dataclass(frozen=True)
class QuadratureSpec:
    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.relative_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _quad_segment(f, lo: float, hi: float, spec: QuadratureSpec) -> tuple[float, float]:
    out = _SELF._sp_integrate.quad(
        f,
        lo,
        hi,
        epsabs=spec.absolute_tolerance,
        epsrel=spec.relative_tolerance,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3:  # QUADPACK flagged the segment
        if not math.isfinite(value):
            raise IntegrandDomainError(
                f"integrand not finite on [{lo:g}, {hi:g}]"
            )
        # accept a flagged segment only if the reported bound still meets
        # the contract (with slack for QUADPACK's pessimism near roundoff)
        if err > 10.0 * max(spec.absolute_tolerance,
                            spec.relative_tolerance * abs(value)):
            raise QuadratureError(
                f"quadrature on [{lo:g}, {hi!r}] did not converge: {out[3]}",
                value,
                err,
            )
    if math.isnan(value) or math.isinf(value):
        raise IntegrandDomainError(f"integrand not finite on [{lo:g}, {hi!r}]")
    return value, err


def integrate_semi_infinite(
    integrand: Callable[[float], float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate ``integrand`` over [0, inf).

    The axis is split at the supplied breakpoints (integrand knees such as
    a Fermi edge) and each finite segment is handled by adaptive
    subdivision; the unbounded tail is mapped onto a finite interval
    internally.  Returns the integral value; raises :class:`QuadratureError`
    carrying the best estimate when the tolerance cannot be met.
    """
    edges = [0.0]
    for b in sorted({float(b) for b in breakpoints}):
        if math.isfinite(b) and b > edges[-1]:
            edges.append(b)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        value, _ = _quad_segment(integrand, lo, hi, spec)
        total += value
    tail, _ = _quad_segment(integrand, edges[-1], math.inf, spec)
    total += tail
    if not math.isfinite(total):
        raise IntegrandDomainError("semi-infinite integral is not finite")
    return total


@dataclass(frozen=True)
class BracketedRootSpec:
    lo: float
    hi: float
    tolerance: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("bracket must satisfy lo < hi")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def find_root(f: Callable[[float], float], spec: BracketedRootSpec) -> float:
    """Locate a root of ``f`` inside a sign-changing bracket.

    Uses superlinear interpolation steps with a bisection fallback, so a
    valid bracket always converges.
    """
    f_lo = f(spec.lo)
    f_hi = f(spec.hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise IntegrandDomainError("function not finite at bracket endpoints")
    if f_lo == 0.0:
        return spec.lo
    if f_hi == 0.0:
        return spec.hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change on [{spec.lo:g}, {spec.hi:g}]: "
            f"f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g}"
        )
    root, result = _SELF._sp_optimize.brentq(
        f,
        spec.lo,
        spec.hi,
        xtol=spec.tolerance,
        maxiter=spec.max_iterations,
        full_output=True,
        disp=False,
    )
    if not result.converged:
        raise RootConvergenceError(
            f"root iteration exceeded {spec.max_iterations} iterations",
            float(root),
            (spec.lo, spec.hi),
        )
    return float(root)


# tolerances of the adaptive ODE solver; with these the analytic
# Lane-Emden cases n = 0 and n = 1 come out to better than 1e-12
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
