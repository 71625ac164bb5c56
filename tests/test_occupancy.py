"""Occupation law, models, and the reduced-variable plumbing."""

import math
import re

import numpy as np
import pytest

from oracles import dos_coefficient
from xfermi.constants import CODATA, REDUCED
from xfermi.numerics import NumericsError
from xfermi.occupancy import (
    BOLTZMANN,
    EXCLUSIVE,
    MODELS,
    STANDARD_FD,
    OccupancyModel,
    occupation,
    thermal_wavelength,
)


class TestValues:
    def test_at_the_chemical_potential(self):
        assert occupation(0.0, EXCLUSIVE) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert occupation(0.0, STANDARD_FD) == pytest.approx(1.0, rel=1e-15)
        assert occupation(0.0, BOLTZMANN) == pytest.approx(2.0, rel=1e-15)

    def test_half_filling_point(self):
        # the double-blocked gas half-fills at x = ln 2, not at x = 0
        assert occupation(math.log(2.0), EXCLUSIVE) == pytest.approx(0.5, rel=1e-15)

    def test_step_heights(self):
        assert EXCLUSIVE.step_height == 1.0
        assert STANDARD_FD.step_height == 2.0
        with pytest.raises(ValueError):
            BOLTZMANN.step_height

    def test_model_registry(self):
        assert set(MODELS) == {"exclusive", "fd", "boltzmann"}
        assert MODELS["exclusive"] is EXCLUSIVE

    def test_model_validation(self):
        with pytest.raises(ValueError):
            OccupancyModel("bad", weight=0.0)
        with pytest.raises(ValueError):
            OccupancyModel("bad", blocking=-1.0)
        # non-finite parameters made the law nan, inf or 0 everywhere
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="weight must be positive and finite"):
                OccupancyModel("bad", weight=bad)
            with pytest.raises(ValueError, match="blocking must be non-negative and finite"):
                OccupancyModel("bad", blocking=bad)


class TestStability:
    def test_deep_negative_saturates(self):
        assert occupation(-800.0, EXCLUSIVE) == 1.0
        assert occupation(-800.0, STANDARD_FD) == 2.0
        assert occupation(-1e12, EXCLUSIVE) == 1.0

    def test_deep_positive_underflows_to_zero(self):
        assert occupation(800.0, EXCLUSIVE) == 0.0
        assert occupation(2000.0, STANDARD_FD) == 0.0

    def test_boltzmann_divergence(self):
        for x in (-800.0, -710.0, np.array([-720.0, -710.0, -700.0])):
            with pytest.raises(NumericsError, match="overflows a double"):
                occupation(x, BOLTZMANN)
        # 2 e^{-x} stays finite up to x = -ln(DBL_MAX / 2) = -709.09
        grid = [-700.0, -709.0, -709.05]
        expected = [2.0 * math.exp(-x) for x in grid]
        assert [occupation(x, BOLTZMANN) for x in grid] == pytest.approx(expected, rel=1e-15)
        assert occupation(np.array(grid), BOLTZMANN) == pytest.approx(expected, rel=1e-15)

    def test_nan_is_refused_and_infinities_are_limits(self):
        for x in (math.nan, np.array([0.0, math.nan])):
            with pytest.raises(ValueError, match="nan"):
                occupation(x, EXCLUSIVE)
        for model in (EXCLUSIVE, STANDARD_FD):
            assert occupation(math.inf, model) == 0.0
            assert occupation(-math.inf, model) == model.step_height
        assert occupation(-math.inf, BOLTZMANN) == math.inf

    def test_no_nans_across_the_double_range(self):
        grid = np.array([-1e15, -750.0, -36.0, -1.0, 0.0, 1.0, 36.0, 750.0, 1e15])
        for model in (EXCLUSIVE, STANDARD_FD):
            values = occupation(grid, model)
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("grid", [
        [*map(float, np.linspace(-720.0, 720.0, 2001))],
        # the ends of the domain: signed zeros, infinities, Python ints, nan, both
        # sides of the classical overflow at x = -709.0895657128241 and results
        # that are subnormal (x > 708.4) or round to 0
        [0.0, -0.0, math.inf, -math.inf, 0, 1, -1, 709, -709, -710, math.nan,
         -709.089565712824, -709.0895657128241, -709.0895657128239, -709.0895657128243,
         -745.2, 708.5, 720.0, 744.4, 745.1, 746.0],
    ])
    def test_array_path_matches_scalar_path(self, grid):
        # the scalar path's libm exp and numpy's may differ in the last ulp
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            # nan, and the classical law below x ~ -709.09, raise on both paths alike
            refused = [x for x in grid if math.isnan(x)
                       or (model is BOLTZMANN and -math.inf < x < -709.089565712824)]
            for x in refused:
                with pytest.raises((ValueError, NumericsError)) as scalar:
                    occupation(x, model)
                with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
                    occupation(np.array([x], dtype=float), model)
            kept = [x for x in grid if x not in refused]
            scalars = [occupation(x, model) for x in kept]
            assert all(type(value) is float for value in scalars)
            arr = occupation(np.array(kept, dtype=float), model)
            assert np.all(np.isclose(arr, scalars, rtol=5e-16, atol=0.0))

    def test_scalar_return_type(self):
        assert isinstance(occupation(1.0), float)


class TestOrdering:
    def test_blocking_lowers_occupancy_everywhere(self):
        grid = np.linspace(-50.0, 50.0, 501)
        excl = occupation(grid, EXCLUSIVE)
        std = occupation(grid, STANDARD_FD)
        assert np.all(excl <= std)

    def test_strict_gap_in_the_representable_band(self):
        grid = np.linspace(-30.0, 30.0, 241)
        excl = occupation(grid, EXCLUSIVE)
        std = occupation(grid, STANDARD_FD)
        assert np.all(excl < std)

    def test_strict_gap_in_log_space(self):
        # the ratio fd/exclusive is 1 + 1/(e^x + 1); its log stays positive
        # far beyond where the direct float difference underflows
        for x in (-50.0, 0.0, 36.0, 300.0, 700.0):
            gap = math.log1p(1.0 / (math.exp(x) + 1.0)) if x < 700 else math.log1p(
                math.exp(-x)
            )
            assert gap > 0.0

    def test_monotone_decreasing_in_x(self):
        # beyond x ~ -36 the occupancy saturates to the step height in float64
        grid = np.linspace(-30.0, 30.0, 401)
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            values = occupation(grid, model)
            assert np.all(np.diff(values) < 0.0)


class TestLimits:
    def test_vanishing_blocking_recovers_the_classical_law(self):
        nearly_classical = OccupancyModel("near", 2.0, 1e-14)
        for x in np.linspace(0.0, 6.0, 13):
            assert occupation(float(x), nearly_classical) == pytest.approx(
                occupation(float(x), BOLTZMANN), rel=1e-12
            )

    def test_boltzmann_is_exactly_the_exponential(self):
        for x in (-3.0, -1.0, 0.0, 2.0, 10.0):
            assert occupation(x, BOLTZMANN) == 2.0 * math.exp(-x)

    def test_dilute_tail_agreement(self):
        # at large x all models collapse onto weight * exp(-x)
        for model in (EXCLUSIVE, STANDARD_FD):
            assert occupation(30.0, model) == pytest.approx(
                2.0 * math.exp(-30.0), rel=1e-12
            )


class TestThermalWavelength:
    def test_mass_scaling(self):
        assert thermal_wavelength(4.0, 1.0) == pytest.approx(
            thermal_wavelength(1.0, 1.0) / 2.0, rel=1e-15
        )

    def test_temperature_scaling(self):
        assert thermal_wavelength(1.0, 4.0) == pytest.approx(
            thermal_wavelength(1.0, 1.0) / 2.0, rel=1e-15
        )

    def test_electron_at_room_temperature(self):
        lam = thermal_wavelength(CODATA.m_e, 300.0, CODATA)
        assert lam == pytest.approx(4.30e-9, rel=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            thermal_wavelength(-1.0, 1.0)
        with pytest.raises(ValueError):
            thermal_wavelength(1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_are_refused_by_name(self, bad):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="mass and temperature .* positive and finite"):
                thermal_wavelength(*args)

    @pytest.mark.parametrize("mass, temperature", [(1.0, 1e-320), (1e300, 1e300)])
    def test_wavelength_past_the_double_range(self, mass, temperature):
        # 2 pi / (m T) overflows (a zero divisor) or underflows to 0
        with pytest.raises(NumericsError, match="thermal wavelength"):
            thermal_wavelength(mass, temperature)


class TestDosCoefficient:
    def test_wavelength_identity(self):
        # b (k_B T)^{3/2} lambda^3 = 2/sqrt(pi) ties the two prefactors together
        for mass in (0.5, 1.0, 3.0):
            b = dos_coefficient(mass)
            lam = thermal_wavelength(mass, 1.0)
            assert b * lam**3 == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_wavelength_identity_in_si(self):
        temperature = 300.0
        b = dos_coefficient(CODATA.m_e, CODATA)
        lam = thermal_wavelength(CODATA.m_e, temperature, CODATA)
        kt = CODATA.k_B * temperature
        assert b * kt**1.5 * lam**3 == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-12
        )
