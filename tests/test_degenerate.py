"""Degenerate limit: Fermi scales, step moments, low-temperature series."""

import math

import numpy as np
import pytest

from oracles import polylog_heat, quad_step_moment, richardson_heat
from xfermi import (
    EXCLUSIVE,
    STANDARD_FD,
    REFERENCE_A1,
    REFERENCE_A2,
    REFERENCE_HEAT_COEFFICIENT,
    ValidityWarning,
    chemical_potential_exact,
    chemical_potential_series,
    degeneracy_pressure,
    density,
    energy_density,
    fermi_density,
    fermi_energy,
    ground_state_energy,
    heat_capacity_series_coefficient,
    mu_series_coefficients,
    number_series_factor,
    pressure_over_degenerate,
    reduced_energy_per_particle,
    series_density,
    series_energy_density,
    sommerfeld_constants,
    sommerfeld_moment,
    sommerfeld_moment_closed_form,
    specific_heat_exact,
)


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
                fermi_density(fermi_energy(n, model), model), n, rel_tol=1e-12
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
            fermi_density(-1.0)
        with pytest.raises(ValueError):
            ground_state_energy(0.0, 1.0)
        with pytest.raises(ValueError):
            degeneracy_pressure(1.0, 0.0)


class TestStepMoments:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
    def test_zeroth_moment_is_inverse_blocking(self, a):
        assert math.isclose(sommerfeld_moment(0, a), 1.0 / a, rel_tol=1e-10)

    def test_standard_gas_first_moment_vanishes(self):
        # a = 1 makes the kernel even, so the first moment is odd
        assert abs(sommerfeld_moment(1, 1.0)) <= 1e-12

    def test_standard_gas_second_moment(self):
        assert math.isclose(sommerfeld_moment(2, 1.0), math.pi**2 / 3.0, rel_tol=1e-10)

    def test_quadrature_against_closed_forms(self):
        # the Fermi-edge sums against adaptive QUADPACK and the closed forms
        for a in (1e-3, 0.5, 1.0, 2.0, 3.0, 1e3):
            for order in (0, 1, 2):
                value = sommerfeld_moment(order, a)
                # A_1(1) = 0, which the symmetric sum reaches to rounding
                tol = {"rel_tol": 1e-13, "abs_tol": 1e-15 if (order, a) == (1, 1.0) else 0.0}
                assert math.isclose(value, quad_step_moment(order, a), **tol)
                assert math.isclose(value, sommerfeld_moment_closed_form(order, a), **tol)

    def test_constants_bundle_matches_quoted_values(self):
        constants = sommerfeld_constants()
        assert abs(constants.a1 - REFERENCE_A1) <= 1e-5
        assert abs(constants.a2 - REFERENCE_A2) <= 1e-5
        assert math.isclose(constants.a1, math.log(2.0) / 2.0, rel_tol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            sommerfeld_moment(-1)
        with pytest.raises(ValueError):
            sommerfeld_moment(1, 0.0)
        with pytest.raises(ValueError):
            sommerfeld_moment(3)
        with pytest.raises(ValueError):
            sommerfeld_moment_closed_form(3)


class TestSeriesFactors:
    def test_number_factor_by_hand(self):
        # 1 + 3 A1 t + (3/4) A2 t^2 at t = 0.05
        assert math.isclose(
            number_series_factor(0.05, EXCLUSIVE), 1.0555207146, abs_tol=1e-9
        )

    def test_series_density_converges_cubically(self):
        etas = np.array([15.0, 30.0, 60.0, 120.0])
        gaps = [
            abs(series_density(float(e), EXCLUSIVE) / density(float(e), EXCLUSIVE) - 1.0)
            for e in etas
        ]
        slope = np.polyfit(np.log(1.0 / etas), np.log(gaps), 1)[0]
        assert slope >= 2.7

    def test_series_energy_density_tracks_quadrature(self):
        for eta in (25.0, 50.0):
            assert math.isclose(
                series_energy_density(eta, STANDARD_FD),
                energy_density(eta, STANDARD_FD),
                rel_tol=1e-4,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            series_density(0.0)
        with pytest.raises(ValueError):
            series_energy_density(-1.0)
        with pytest.raises(ValueError):
            number_series_factor(-0.1)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            chemical_potential_exact(0.0)
        with pytest.raises(ValueError):
            chemical_potential_series(-0.01)


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

    @pytest.mark.parametrize("t", [0.01, 0.03, 0.1, 0.2])
    def test_analytic_heat_matches_richardson_oracle(self, t):
        for model in (EXCLUSIVE, STANDARD_FD):
            expected = richardson_heat(t, model)
            assert math.isclose(specific_heat_exact(t, model), expected, rel_tol=1e-6)


class TestDegenerateThermodynamics:
    def test_pressure_approaches_ground_state_value(self):
        ratio = pressure_over_degenerate(0.01)
        assert ratio > 1.0
        assert math.isclose(ratio, 1.0, rel_tol=0.01)

    def test_energy_per_particle_series(self):
        # E/(N E_F) = 3/5 + (pi^2/4) t^2 + O(t^3)
        t = 0.02
        expected = 0.6 + (math.pi**2 / 4.0) * t * t
        for model in (EXCLUSIVE, STANDARD_FD):
            assert math.isclose(
                reduced_energy_per_particle(t, model), expected, abs_tol=2e-5
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            reduced_energy_per_particle(0.0)
        with pytest.raises(ValueError):
            pressure_over_degenerate(-0.5)
