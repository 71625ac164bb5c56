"""Quadrature, root finding, and ODE kernels against known answers."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from xfermi import numerics
from xfermi.numerics import (
    BracketError,
    EventHorizonError,
    IntegrandDomainError,
    QuadratureError,
    find_root,
    integrate_ode,
    integrate_semi_infinite,
)
from xfermi.occupancy import OccupancyModel

from oracles import halfline_moment


def _unreachable_tolerance(monkeypatch):
    monkeypatch.setattr(numerics, "_QUAD_RTOL", 1e-30)
    monkeypatch.setattr(numerics, "_QUAD_ATOL", 1e-300)


class TestQuadrature:
    def test_gamma_function_values(self):
        assert integrate_semi_infinite(lambda x: math.exp(-x)) == pytest.approx(
            1.0, rel=1e-12
        )
        assert integrate_semi_infinite(lambda x: x**3 * math.exp(-x)) == pytest.approx(
            6.0, rel=1e-12
        )

    def test_half_integer_gamma(self):
        value = integrate_semi_infinite(lambda x: math.sqrt(x) * math.exp(-x))
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_against_dense_trapezoid(self):
        # sqrt kink at the origin plus a fermi-like tail
        def integrand(x):
            if x > 700.0:
                return 0.0
            return math.sqrt(x) / (10.0 * math.exp(x) + 2.0)

        value = integrate_semi_infinite(integrand)
        oracle = 0.1 * halfline_moment(0.5, 0.0, OccupancyModel("aux", 1.0, 0.2))
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_linearity(self):
        f = lambda x: math.exp(-x)
        g = lambda x: x * math.exp(-2.0 * x)
        combined = integrate_semi_infinite(lambda x: 2.0 * f(x) + 3.0 * g(x))
        separate = 2.0 * integrate_semi_infinite(f) + 3.0 * integrate_semi_infinite(g)
        assert abs(combined - separate) <= 2e-10 * abs(separate)

    def test_unreachable_tolerance_raises_with_estimate(self, monkeypatch):
        _unreachable_tolerance(monkeypatch)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_semi_infinite(lambda x: math.exp(-x) / (1.0 + x * x))
        assert excinfo.value.best_estimate == pytest.approx(0.6214496243, rel=1e-6)

    def test_nan_integrand_rejected(self):
        with pytest.raises(IntegrandDomainError):
            integrate_semi_infinite(lambda x: math.nan)


class TestRootFinding:
    def test_cosine_root(self):
        root = find_root(math.cos, 1.0, 2.0)
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_quadratic_against_closed_form(self):
        # 2 z (1 - z / sqrt 2) = 0.15, the dilute-density shape
        target = 0.15
        f = lambda z: 2.0 * z * (1.0 - z / math.sqrt(2.0)) - target
        root = find_root(f, 0.0, 0.5)
        closed = (2.0 - math.sqrt(4.0 - 4.0 * math.sqrt(2.0) * target)) / (
            2.0 * math.sqrt(2.0)
        )
        assert root == pytest.approx(closed, abs=1e-12)

    def test_bracket_independence(self):
        f = lambda x: math.tanh(x) - 0.5
        wide = find_root(f, 0.0, 2.0)
        narrow = find_root(f, 0.4, 0.7)
        assert wide == pytest.approx(narrow, abs=1e-12)
        assert wide == pytest.approx(math.atanh(0.5), abs=1e-12)

    def test_endpoint_root_returned_directly(self):
        assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: 1.0 + x * x, 0.0, 1.0)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            find_root(lambda x: x - 1.5, 2.0, 1.0)


class TestOdeIntegration:
    def test_harmonic_quarter_period(self):
        terminus = integrate_ode(
            lambda t, y: (y[1], -y[0]),
            0.0,
            (1.0, 0.0),
            stop_event=lambda t, y: y[0],
            t_end=10.0,
        )
        assert terminus.time == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert terminus.state[1] == pytest.approx(-1.0, abs=1e-8)
        assert terminus.steps >= 1

    def test_exponential_decay_stop(self):
        terminus = integrate_ode(
            lambda t, y: (-y[0],),
            0.0,
            (1.0,),
            stop_event=lambda t, y: y[0] - math.exp(-1.0),
            t_end=10.0,
        )
        assert terminus.time == pytest.approx(1.0, abs=1e-8)

    def test_event_never_fires(self):
        with pytest.raises(EventHorizonError):
            integrate_ode(
                lambda t, y: (0.0,),
                0.0,
                (1.0,),
                stop_event=lambda t, y: y[0],
                t_end=5.0,
            )

    def test_immediate_event(self):
        terminus = integrate_ode(
            lambda t, y: (1.0,),
            0.0,
            (1.0,),
            stop_event=lambda t, y: 0.5 - y[0],
            t_end=10.0,
        )
        assert terminus.time == 0.0
        assert terminus.steps == 0

    def test_refinement_tightens_the_crossing(self):
        # the smooth decay is crossed inside one long adaptive step; the
        # crossing itself comes from the solver's dense output
        terminus = integrate_ode(
            lambda t, y: (-y[0],),
            0.0,
            (1.0,),
            stop_event=lambda t, y: y[0] - 0.5,
            t_end=10.0,
        )
        assert terminus.time == pytest.approx(math.log(2.0), abs=1e-6)

    def test_interval_must_run_forward(self):
        for t_end in (0.0, -1.0):
            with pytest.raises(ValueError):
                integrate_ode(
                    lambda t, y: (1.0,),
                    0.0,
                    (1.0,),
                    stop_event=lambda t, y: y[0],
                    t_end=t_end,
                )


def test_quadrature_error_carries_bound(monkeypatch):
    _unreachable_tolerance(monkeypatch)
    try:
        integrate_semi_infinite(lambda x: math.exp(-x))
    except QuadratureError as exc:
        assert exc.error_bound > 0
        assert np.isfinite(exc.best_estimate)
    else:  # some platforms may genuinely hit the tolerance; value must be right
        assert integrate_semi_infinite(lambda x: math.exp(-x)) == pytest.approx(1.0)


def test_names_the_benchmark_traces_resolve():
    # perfbench/tracing.py wraps these by name; it is parsed, not imported, so
    # no bytecode is written under perfbench/
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spanned = next(
        ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets))
    assert spanned
    for module, function, _ in spanned:
        assert callable(getattr(importlib.import_module(f"xfermi.{module}"), function))
    # and the scipy routines it patches, through the lazy loader
    assert callable(numerics._sp_integrate.quad)
    assert callable(numerics._sp_optimize.brentq)
