"""Quadrature, root finding, and ODE kernels against known answers."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from xfermi import degenerate, eos, magnetism, numerics
from xfermi.astro import Regime, eos_coefficient
from xfermi.numerics import (
    BracketError,
    EventHorizonError,
    IntegrandDomainError,
    NumericsError,
    QuadratureError,
    find_root,
    integrate_ode,
    integrate_semi_infinite,
    positive_double,
)
from xfermi.occupancy import OccupancyModel, fermi_energy, thermal_wavelength

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


def test_guard_formats_its_message_only_when_it_raises():
    # "%g" of a string raises TypeError, so formatting on success would show
    assert positive_double(1.5, "a moment at eta = %g", "not a number") == 1.5
    with pytest.raises(TypeError):
        positive_double(0.0, "a moment at eta = %g", "not a number")


# each guard that passes its numbers to positive_double, with the text it had
# when it formatted them itself
@pytest.mark.parametrize("call, message", [
    (lambda: eos.density(-800.0), "a moment at eta = -800 underflows a double"),
    (lambda: eos.solve_fugacity(5e-324), "the density at eta = -745.633 underflows a double"),
    (lambda: eos.solve_point(eta=-800.0), "a moment at eta = -800 underflows a double"),
    (lambda: eos.fugacity_series(5e-324),
     "the fugacity series at n lambda^3 = 5e-324 underflows a double"),
    (lambda: degenerate.specific_heat_exact(1e300),
     "n lambda^3 at fixed density at t = 1e+300 underflows a double"),
    (lambda: magnetism.landau_partition_ratio(1e308, 1.0),
     "2 a z at z = 1e+308 overflows a double"),
    (lambda: magnetism.geometric_level_factor(800.0),
     "1/(2 sinh s) at s = 800.0 underflows a double"),
    (lambda: magnetism.landau_susceptibility(5e-324),
     "3 g z at n_lambda3 = 5e-324 underflows a double"),
    (lambda: eos_coefficient(OccupancyModel("tall", 1e300, 1e-10), Regime.NON_RELATIVISTIC),
     "K of step height inf underflows a double"),
    (lambda: thermal_wavelength(1e-300, 1e-300),
     "the thermal wavelength at mass 1e-300 and temperature 1e-300 overflows a double"),
    (lambda: fermi_energy(1e308), "the Fermi energy at density 1e+308 overflows a double"),
], ids=["moment", "newton", "point", "fugacity-series", "fixed-density", "landau-2az",
        "level-factor", "landau-3gz", "polytrope-k", "wavelength", "fermi-energy"])
def test_guards_keep_their_messages(call, message):
    with pytest.raises(NumericsError) as failure:
        call()
    assert str(failure.value) == message


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
