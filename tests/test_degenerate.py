"""Degenerate limit: Fermi scales, step moments, low-temperature series."""

import math

import numpy as np
import pytest

from oracles import (
    dos_coefficient,
    fermi_sea_density,
    fixed_density_point,
    polylog_heat,
    quad_step_moment,
    richardson_heat,
    sommerfeld_series,
)
from xfermi import degenerate
from xfermi.constants import REDUCED
from xfermi.degenerate import (
    REFERENCE_A1,
    REFERENCE_A2,
    REFERENCE_HEAT_COEFFICIENT,
    chemical_potential_exact,
    chemical_potential_series,
    heat_capacity_series_coefficient,
    mu_series_coefficients,
    sommerfeld_constants,
    specific_heat_exact,
)
from xfermi.eos import (
    FugacityOverflowError,
    _moments,
    density,
    energy_density,
    solve_fugacity,
    solve_point,
)
from xfermi.numerics import NumericsError
from xfermi.occupancy import (
    EXCLUSIVE,
    STANDARD_FD,
    ValidityWarning,
    degeneracy_pressure,
    fermi_energy,
    ground_state_energy,
)

NOT_POSITIVE_AND_FINITE = [0.0, -1.0, math.nan, math.inf, -math.inf]


class TestFermiScale:
    def test_unit_density_value(self):
        # step height 1: E_F = (1/2)(6 pi^2 n)^{2/3}, so n = 1/(6 pi^2) gives 1/2
        assert math.isclose(
            fermi_energy(1.0 / (6.0 * math.pi**2), EXCLUSIVE), 0.5, rel_tol=1e-14
        )

    def test_exclusion_raises_fermi_energy(self):
        n = 0.37
        ratio = fermi_energy(n, EXCLUSIVE) / fermi_energy(n, STANDARD_FD)
        assert math.isclose(ratio, 2.0 ** (2.0 / 3.0), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1e-4, 0.37, 12.0])
    def test_density_round_trip(self, n):
        for model in (EXCLUSIVE, STANDARD_FD):
            assert math.isclose(
                fermi_sea_density(fermi_energy(n, model), model), n, rel_tol=1e-12
            )

    def test_pressure_energy_relation_at_zero_temperature(self):
        # P = (2/3)(E/V) holds exactly for the filled sea
        n, e_f = 0.8, 1.9
        assert math.isclose(
            degeneracy_pressure(n, e_f),
            (2.0 / 3.0) * ground_state_energy(n, e_f),
            rel_tol=1e-15,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            fermi_energy(0.0)
        with pytest.raises(ValueError):
            ground_state_energy(0.0, 1.0)
        with pytest.raises(ValueError):
            degeneracy_pressure(1.0, 0.0)

    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE)
    def test_fermi_energy_needs_positive_finite_density(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            fermi_energy(bad)

    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE)
    def test_ground_state_energy_needs_positive_finite_inputs(self, bad):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                ground_state_energy(*args)

    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE)
    def test_degeneracy_pressure_needs_positive_finite_inputs(self, bad):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                degeneracy_pressure(*args)

    @pytest.mark.parametrize("call", [
        lambda: fermi_energy(1e308),  # 6 pi^2 n overflows
        lambda: fermi_energy(1e308, STANDARD_FD),
        lambda: ground_state_energy(1e300, 1e10),
        lambda: degeneracy_pressure(1e300, 1e10),
    ], ids=["fermi_energy", "fermi_energy_fd", "ground_state_energy", "degeneracy_pressure"])
    def test_overflow_is_a_numerics_error(self, call):
        with pytest.raises(NumericsError, match="overflows a double"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: ground_state_energy(1e-300, 1e-300),
        lambda: degeneracy_pressure(1e-300, 1e-200),
    ], ids=["ground_state_energy", "degeneracy_pressure"])
    def test_underflow_is_a_numerics_error(self, call):
        with pytest.raises(NumericsError, match="underflows a double"):
            call()

    def test_largest_values_below_overflow(self):
        n = 1e300
        e_f = fermi_energy(n)
        assert math.isclose(e_f, 0.5 * (6.0 * math.pi**2 * n) ** (2.0 / 3.0), rel_tol=1e-15)
        assert math.isclose(fermi_sea_density(1e200),
                            1e300 * (2.0 / 3.0) * dos_coefficient(1.0, REDUCED), rel_tol=1e-14)
        assert math.isclose(degeneracy_pressure(1e300, 1e8), 4e307, rel_tol=1e-15)


class TestStepMoments:
    def test_standard_gas_first_moment_vanishes(self):
        # a = 1 makes the kernel even, so the first moment is odd
        assert abs(sommerfeld_constants(1.0).a1) <= 1e-12

    def test_standard_gas_second_moment(self):
        assert math.isclose(sommerfeld_constants(1.0).a2, math.pi**2 / 3.0, rel_tol=1e-10)

    def test_quadrature_against_closed_forms(self):
        # the Fermi-edge sums against adaptive QUADPACK and the closed forms
        for a in (1e-3, 0.5, 1.0, 2.0, 3.0, 1e3):
            constants = sommerfeld_constants(a)
            for order, value, closed_form in ((1, constants.a1, constants.closed_form_a1),
                                              (2, constants.a2, constants.closed_form_a2)):
                # A_1(1) = 0, which the symmetric sum reaches to rounding
                tol = {"rel_tol": 1e-13, "abs_tol": 1e-15 if (order, a) == (1, 1.0) else 0.0}
                assert math.isclose(value, quad_step_moment(order, a), **tol)
                assert math.isclose(value, closed_form, **tol)

    def test_constants_bundle_matches_quoted_values(self):
        constants = sommerfeld_constants()
        assert abs(constants.a1 - REFERENCE_A1) <= 1e-5
        assert abs(constants.a2 - REFERENCE_A2) <= 1e-5
        assert math.isclose(constants.a1, math.log(2.0) / 2.0, rel_tol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            sommerfeld_constants(0.0)

    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE)
    @pytest.mark.parametrize("route", [
        degenerate._moment_ratios,
        sommerfeld_constants,
    ], ids=["closed_form", "constants"])
    def test_blocking_must_be_positive_and_finite(self, route, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            route(bad)

    @pytest.mark.parametrize("blocking", [1e-300, 1e-5, 1.0, 2.0, 1e5, 1e300])
    def test_constants_hold_relatively_over_the_double_range(self, blocking):
        constants = sommerfeld_constants(blocking)
        assert math.isclose(constants.a2, constants.closed_form_a2, rel_tol=1e-12)

    def test_overflowing_moments_raise(self):
        with pytest.raises(NumericsError, match="overflows"):
            sommerfeld_constants(1e-310)

    def test_disagreeing_routes_raise(self, monkeypatch):
        # edge weights 1e-9 heavier: each moment 1e-9 off its closed form
        monkeypatch.setattr(degenerate, "_EDGE_W", degenerate._EDGE_W * (1.0 + 1e-9))
        with pytest.raises(NumericsError, match="disagree"):
            sommerfeld_constants()


class TestSeriesFactors:
    def test_number_factor_by_hand(self):
        # 1 + 3 A1 t + (3/4) A2 t^2 at t = 1/eta = 0.05, over the leading term
        leading = 4.0 / (3.0 * math.sqrt(math.pi)) * 20.0**1.5
        assert math.isclose(
            sommerfeld_series(1.5, 20.0, EXCLUSIVE) / leading, 1.0555207146, abs_tol=1e-9
        )

    def test_series_density_converges_cubically(self):
        etas = np.array([15.0, 30.0, 60.0, 120.0])
        gaps = [
            abs(sommerfeld_series(1.5, e, EXCLUSIVE) / density(e, EXCLUSIVE) - 1.0)
            for e in map(float, etas)
        ]
        slope = np.polyfit(np.log(1.0 / etas), np.log(gaps), 1)[0]
        assert slope >= 2.7

    def test_series_energy_density_tracks_quadrature(self):
        for eta in (25.0, 50.0):
            assert math.isclose(
                sommerfeld_series(2.5, eta, STANDARD_FD),
                energy_density(eta, STANDARD_FD),
                rel_tol=1e-4,
            )


class TestChemicalPotential:
    def test_series_coefficients_exclusive(self):
        c1, c2 = mu_series_coefficients(EXCLUSIVE)
        assert math.isclose(c1, -math.log(2.0), rel_tol=1e-14)
        assert math.isclose(c2, -math.pi**2 / 12.0, rel_tol=1e-14)

    def test_series_coefficients_standard(self):
        # no linear shift without the blocking asymmetry
        c1, c2 = mu_series_coefficients(STANDARD_FD)
        assert c1 == 0.0
        assert math.isclose(c2, -math.pi**2 / 12.0, rel_tol=1e-14)

    def test_linear_slope_from_exact_inversion(self):
        """Richardson-extrapolated slope of mu(t) reproduces -ln 2."""

        def slope(t):
            return (chemical_potential_exact(t, EXCLUSIVE) - 1.0) / t

        extrapolated = 2.0 * slope(0.002) - slope(0.004)
        assert math.isclose(extrapolated, -math.log(2.0), rel_tol=5e-3)

    def test_curvature_from_exact_inversion(self):
        """After removing the linear term, the residual over t^2 extrapolates
        to -pi^2/12 for the single-occupancy gas."""
        ts = np.linspace(0.005, 0.02, 6)
        residuals = np.array(
            [
                (chemical_potential_exact(float(t), EXCLUSIVE) - 1.0 + math.log(2.0) * t)
                / t**2
                for t in ts
            ]
        )
        intercept = np.polyfit(ts, residuals, 1)[1]
        assert math.isclose(intercept, -math.pi**2 / 12.0, rel_tol=0.02)

    def test_chemical_potential_decreases_with_temperature(self):
        ts = np.linspace(0.01, 0.3, 30)
        mus = [chemical_potential_exact(float(t), EXCLUSIVE) for t in ts]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_series_matches_exact_at_small_t(self):
        for model in (EXCLUSIVE, STANDARD_FD):
            assert math.isclose(
                chemical_potential_series(0.02, model),
                chemical_potential_exact(0.02, model),
                abs_tol=2e-5,
            )

    def test_deep_degenerate_point(self):
        # eta ~ 1.5e4: the Fermi edge sits at the far end of a long segment
        for model in (EXCLUSIVE, STANDARD_FD):
            assert math.isclose(
                chemical_potential_exact(6.7e-5, model),
                chemical_potential_series(6.7e-5, model),
                abs_tol=1e-9,
            )

    def test_series_warns_outside_trust_region(self):
        with pytest.warns(ValidityWarning):
            chemical_potential_series(0.35)

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD], ids=["exclusive", "fd"])
    def test_series_past_the_double_range_raises(self, model):
        # c2 t^2 overflows to -inf
        with pytest.warns(ValidityWarning), pytest.raises(
                NumericsError, match="leaves the double range at t = 1e\\+200"):
            chemical_potential_series(1e200, model)

    def test_validation(self):
        with pytest.raises(ValueError):
            chemical_potential_exact(0.0)
        with pytest.raises(ValueError):
            chemical_potential_series(-0.01)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_series_refuses_non_finite_t(self, t):
        # a bad input, not a series past the double range (that is t = 1e200)
        with pytest.raises(ValueError, match="t must be non-negative and finite"):
            chemical_potential_series(t)


class TestHeatCapacity:
    def test_closed_form_coefficient_is_universal(self):
        # (3/2)(R2 - R1^2) = pi^2/2 regardless of blocking
        for model in (EXCLUSIVE, STANDARD_FD):
            assert math.isclose(
                heat_capacity_series_coefficient(model), math.pi**2 / 2.0, rel_tol=1e-14
            )

    def test_exact_derivative_approaches_coefficient(self):
        for model in (EXCLUSIVE, STANDARD_FD):
            for t in (0.02, 5e-5):
                got = specific_heat_exact(t, model)
                assert math.isclose(got, math.pi**2 / 2.0, rel_tol=0.01)

    def test_heat_capacity_is_linear_at_low_temperature(self):
        ts = np.linspace(0.01, 0.04, 7)
        heats = np.array([specific_heat_exact(float(t), EXCLUSIVE) * t for t in ts])
        slope, intercept = np.polyfit(ts, heats, 1)
        predicted = slope * ts + intercept
        ss_res = float(np.sum((heats - predicted) ** 2))
        ss_tot = float(np.sum((heats - heats.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot >= 0.9999
        assert math.isclose(slope, math.pi**2 / 2.0, rel_tol=0.05)

    def test_reference_values_are_recorded(self):
        assert REFERENCE_HEAT_COEFFICIENT == {"exclusive": 5.55, "fd": 4.93}

    @pytest.mark.parametrize("t", [5e-5, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 10.0])
    def test_analytic_heat_matches_polylog(self, t):
        # the two routes of the library meet at k = eta + ln a = 40 (t ~ 0.025)
        for model in (EXCLUSIVE, STANDARD_FD):
            eta = chemical_potential_exact(t, model) / t
            expected = polylog_heat(eta, model) / t
            assert math.isclose(specific_heat_exact(t, model), expected, rel_tol=1e-9)

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD])
    def test_heat_from_the_inversion_call_matches_a_fresh_call(self, model):
        # below k = 40 the moments are those of Newton's confirming call, at
        # eta - step; a fresh four-row call at the root gives the same heat
        fresh = 0
        for t in np.geomspace(5e-5, 10.0, 201):
            eta = solve_fugacity(degenerate._fixed_density(t, model), model)
            if eta + math.log(model.blocking) >= degenerate._EDGE:
                continue
            n, u, _, slope = _moments(eta, model)
            expected = (2.5 * u / n - 2.25 * n / slope) / t
            assert math.isclose(specific_heat_exact(t, model), expected, rel_tol=1e-12), t
            fresh += 1
        assert fresh > 50  # about half the range lies below k = 40

    @pytest.mark.parametrize("t", [0.01, 0.03, 0.1, 0.2])
    def test_analytic_heat_matches_richardson_oracle(self, t):
        for model in (EXCLUSIVE, STANDARD_FD):
            expected = richardson_heat(t, model)
            assert math.isclose(specific_heat_exact(t, model), expected, rel_tol=1e-6)


class TestFixedDensityRange:
    """t^{-3/2} n lambda^3 leaves the double range below t ~ 1.6e-206."""

    @pytest.mark.parametrize("fn", [
        chemical_potential_exact,
        specific_heat_exact,
    ])
    def test_tiny_t_is_a_fugacity_overflow(self, fn):
        with pytest.raises(FugacityOverflowError, match="t = 1e-250"):
            fn(1e-250)

    @pytest.mark.parametrize("fn", [
        chemical_potential_exact,
        specific_heat_exact,
    ])
    def test_huge_t_is_an_underflow(self, fn):
        # t^{-3/2} underflows to 0 above t ~ 1e216
        with pytest.raises(NumericsError, match="at t = 1e\\+300 underflows a double"):
            fn(1e300)

    def test_just_above_the_overflow(self):
        for model in (EXCLUSIVE, STANDARD_FD):
            assert math.isclose(chemical_potential_exact(1e-205, model), 1.0, rel_tol=1e-13)
            assert math.isclose(specific_heat_exact(1e-205, model), math.pi**2 / 2.0,
                                rel_tol=1e-13)

    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE)
    def test_t_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            chemical_potential_exact(bad)


def fixed_density_ratios(t, model=EXCLUSIVE):
    """E/(N E_F) and the pressure over its T = 0 value (2/5) n E_F, at
    t = kT/E_F, from one solve_point call at the fixed-density target."""
    point = solve_point(model, n_lambda3=fixed_density_point(t, model))
    return (point.energy_density / point.n_lambda3 * t,
            point.pressure / point.n_lambda3 * t / 0.4)


class TestDegenerateThermodynamics:
    def test_pressure_approaches_ground_state_value(self):
        ratio = fixed_density_ratios(0.01)[1]
        assert ratio > 1.0
        assert math.isclose(ratio, 1.0, rel_tol=0.01)

    def test_energy_per_particle_series(self):
        # E/(N E_F) = 3/5 + (pi^2/4) t^2 + O(t^3)
        t = 0.02
        expected = 0.6 + (math.pi**2 / 4.0) * t * t
        for model in (EXCLUSIVE, STANDARD_FD):
            assert math.isclose(
                fixed_density_ratios(t, model)[0], expected, abs_tol=2e-5
            )
