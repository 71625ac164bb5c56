"""Reduced equation of state: integrals, inversion, virial series."""

import math

import numpy as np
import pytest

from oracles import density_oracle, energy_density_oracle
from xfermi import (
    BOLTZMANN,
    EXCLUSIVE,
    STANDARD_FD,
    NumericsError,
    ThermoPoint,
    ValidityWarning,
    density,
    energy_density,
    fugacity_series,
    pressure,
    series_density,
    series_energy_density,
    solve_fugacity,
    solve_point,
    virial_pressure,
)

ALL_MODELS = (EXCLUSIVE, STANDARD_FD, BOLTZMANN)


class TestIntegralsAgainstDenseGrid:
    """Adaptive quadrature vs the substituted-trapezoid oracle."""

    @pytest.mark.parametrize("eta", [-5.0, 0.0, 2.0, 8.0])
    def test_density(self, eta):
        for model in ALL_MODELS:
            assert math.isclose(
                density(eta, model), density_oracle(eta, model), rel_tol=1e-9
            )

    @pytest.mark.parametrize("eta", [-5.0, 0.0, 2.0, 8.0])
    def test_energy_density(self, eta):
        for model in ALL_MODELS:
            assert math.isclose(
                energy_density(eta, model),
                energy_density_oracle(eta, model),
                rel_tol=1e-9,
            )


class TestPressureEnergyIdentity:
    @pytest.mark.parametrize("eta", [-10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0])
    def test_pressure_is_two_thirds_energy(self, eta):
        # two independent integrals (grand potential vs energy moment)
        for model in ALL_MODELS:
            p = pressure(eta, model)
            u = energy_density(eta, model)
            assert math.isclose(p, 2.0 * u / 3.0, rel_tol=1e-8)


class TestDeepDegeneracy:
    """Against the Sommerfeld series, whose truncation error is below 1e-11 here."""

    @pytest.mark.parametrize("eta", [8e3, 1e4, 1.5e4, 3e4, 1e5, 3e5, 1e6])
    def test_moments_match_series(self, eta):
        for model in (EXCLUSIVE, STANDARD_FD):
            u = series_energy_density(eta, model)
            assert math.isclose(density(eta, model), series_density(eta, model), rel_tol=1e-10)
            assert math.isclose(energy_density(eta, model), u, rel_tol=1e-10)
            assert math.isclose(pressure(eta, model), 2.0 * u / 3.0, rel_tol=1e-10)


class TestDiluteLimit:
    def test_density_series_to_second_order(self):
        z = 1e-3
        expected = 2.0 * z * (1.0 - z / math.sqrt(2.0))
        assert math.isclose(density(math.log(z), EXCLUSIVE), expected, rel_tol=2e-6)

    def test_energy_per_particle_is_classical(self):
        for model in (EXCLUSIVE, STANDARD_FD):
            ratio = energy_density(-12.0, model) / density(-12.0, model)
            assert math.isclose(ratio, 1.5, rel_tol=1e-5)

    @pytest.mark.parametrize("eta", [-3.0, 0.0, 1.5])
    def test_classical_closed_forms(self, eta):
        z = math.exp(eta)
        assert math.isclose(density(eta, BOLTZMANN), 2.0 * z, rel_tol=1e-10)
        assert math.isclose(energy_density(eta, BOLTZMANN), 3.0 * z, rel_tol=1e-10)
        assert pressure(eta, BOLTZMANN) == 2.0 * z


class TestFugacityInversion:
    def test_round_trip_over_wide_eta_range(self):
        for model in (EXCLUSIVE, STANDARD_FD):
            for eta in np.linspace(-5.0, 30.0, 8):
                recovered = solve_fugacity(density(eta, model), model)
                assert abs(recovered - eta) <= 1e-9

    def test_boltzmann_inversion_is_exact_log(self):
        assert math.isclose(solve_fugacity(0.3, BOLTZMANN), math.log(0.15), abs_tol=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_density(self, bad):
        with pytest.raises(ValueError):
            solve_fugacity(bad)


class TestVirialSeries:
    def test_quoted_values_at_tenth(self):
        assert math.isclose(virial_pressure(0.1, EXCLUSIVE), 1.0176776695, rel_tol=1e-9)
        assert math.isclose(virial_pressure(0.1, STANDARD_FD), 1.0088388348, rel_tol=1e-9)

    def test_classical_gas_has_no_correction(self):
        assert virial_pressure(0.17, BOLTZMANN) == 1.0

    def test_single_occupancy_correction_is_doubled(self):
        excl = virial_pressure(0.08, EXCLUSIVE) - 1.0
        std = virial_pressure(0.08, STANDARD_FD) - 1.0
        assert math.isclose(excl, 2.0 * std, rel_tol=1e-12)

    def test_series_error_is_second_order(self):
        """Truncation error of the virial form should scale like (n lambda^3)^2."""
        values = np.array([0.01, 0.02, 0.04, 0.08])
        gaps = []
        for n_lambda3 in values:
            point = solve_point(EXCLUSIVE, n_lambda3=float(n_lambda3))
            exact = point.pressure / point.n_lambda3
            gaps.append(abs(exact - virial_pressure(float(n_lambda3), EXCLUSIVE)))
        slope = np.polyfit(np.log(values), np.log(gaps), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_fugacity_series_error_is_third_order(self):
        # the inversion is carried through (n lambda^3)^2, so the first
        # neglected term is cubic
        values = np.array([0.01, 0.02, 0.04, 0.08])
        gaps = []
        for n_lambda3 in values:
            exact = math.exp(solve_fugacity(float(n_lambda3), EXCLUSIVE))
            gaps.append(abs(exact - fugacity_series(float(n_lambda3), EXCLUSIVE)))
        slope = np.polyfit(np.log(values), np.log(gaps), 1)[0]
        assert abs(slope - 3.0) < 0.2

    def test_exclusion_raises_pressure_at_fixed_density(self):
        for n_lambda3 in (0.01, 0.1, 0.5):
            excl = solve_point(EXCLUSIVE, n_lambda3=n_lambda3).pressure
            std = solve_point(STANDARD_FD, n_lambda3=n_lambda3).pressure
            assert excl > std > 0.0

    def test_warns_outside_trust_region(self):
        with pytest.warns(ValidityWarning):
            virial_pressure(0.25)
        with pytest.warns(ValidityWarning):
            fugacity_series(0.25)

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_rejects_nonpositive_density(self, bad):
        with pytest.raises(ValueError):
            virial_pressure(bad)
        with pytest.raises(ValueError):
            fugacity_series(bad)


class TestSolvePoint:
    def test_fields_are_mutually_consistent(self):
        point = solve_point(EXCLUSIVE, eta=1.2)
        assert math.isclose(point.fugacity, math.exp(1.2), rel_tol=1e-12)
        assert math.isclose(point.pressure, 2.0 * point.energy_density / 3.0, rel_tol=1e-6)
        assert point.model is EXCLUSIVE

    def test_density_entry_point_matches_eta_entry_point(self):
        by_eta = solve_point(STANDARD_FD, eta=0.7)
        by_density = solve_point(STANDARD_FD, n_lambda3=by_eta.n_lambda3)
        assert abs(by_density.eta - 0.7) <= 1e-9

    def test_requires_exactly_one_coordinate(self):
        with pytest.raises(ValueError):
            solve_point(EXCLUSIVE)
        with pytest.raises(ValueError):
            solve_point(EXCLUSIVE, eta=1.0, n_lambda3=1.0)

    def test_fugacity_overflow_is_a_numerics_error(self):
        with pytest.raises(NumericsError, match="overflows"):
            solve_point(EXCLUSIVE, eta=800.0)
        with pytest.raises(NumericsError, match="overflows"):
            pressure(709.5, BOLTZMANN)  # e^eta is finite, 2 e^eta is not

    def test_point_validation_rejects_inconsistent_pressure(self):
        with pytest.raises(ValueError, match="p = ") as failure:
            ThermoPoint(
                eta=0.0,
                fugacity=1.0,
                n_lambda3=1.0,
                energy_density=1.0,
                pressure=1.0,
                model=EXCLUSIVE,
            )
        assert isinstance(failure.value, NumericsError)

    def test_point_validation_rejects_inconsistent_fugacity(self):
        with pytest.raises(ValueError, match="fugacity"):
            ThermoPoint(
                eta=0.0,
                fugacity=2.0,
                n_lambda3=1.0,
                energy_density=1.5,
                pressure=1.0,
                model=EXCLUSIVE,
            )
