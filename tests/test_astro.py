"""Polytropic stars: EOS coefficients, Lane-Emden, mass scaling."""

import math

import pytest

from xfermi import (
    EXCLUSIVE,
    REFERENCE_MASS_RATIO,
    STANDARD_FD,
    Regime,
    chandrasekhar_ratio,
    compare_star_models,
    degenerate_polytrope,
    degeneracy_pressure,
    eos_coefficient,
    fermi_energy,
    lane_emden,
    polytrope_index,
    white_dwarf_mass,
)

from oracles import lane_emden_rk4


class TestEosCoefficients:
    def test_step_height_ratio_propagates(self):
        nr = eos_coefficient(EXCLUSIVE, Regime.NON_RELATIVISTIC) / eos_coefficient(
            STANDARD_FD, Regime.NON_RELATIVISTIC
        )
        ur = eos_coefficient(EXCLUSIVE, Regime.ULTRA_RELATIVISTIC) / eos_coefficient(
            STANDARD_FD, Regime.ULTRA_RELATIVISTIC
        )
        assert math.isclose(nr, 2.0 ** (2.0 / 3.0), rel_tol=1e-12)
        assert math.isclose(ur, 2.0 ** (1.0 / 3.0), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1e-3, 0.37, 40.0])
    def test_matches_degeneracy_pressure(self, n):
        # K n^{5/3} must equal the ground-state pressure (2/5) n E_F
        for model in (EXCLUSIVE, STANDARD_FD):
            k = eos_coefficient(model, Regime.NON_RELATIVISTIC)
            assert math.isclose(
                k * n ** (5.0 / 3.0),
                degeneracy_pressure(n, fermi_energy(n, model)),
                rel_tol=1e-12,
            )

    def test_polytrope_bundle(self):
        eos = degenerate_polytrope(EXCLUSIVE, Regime.ULTRA_RELATIVISTIC)
        assert eos.gamma == 4.0 / 3.0
        assert math.isclose(eos.index, 3.0, rel_tol=1e-15)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            polytrope_index(1.0)
        with pytest.raises(ValueError):
            polytrope_index(0.5)


class TestLaneEmden:
    def test_analytic_index_zero(self):
        # theta = 1 - xi^2/6: first zero sqrt(6), mass integral 2 sqrt(6)
        solution = lane_emden(0.0)
        assert math.isclose(solution.xi1, math.sqrt(6.0), abs_tol=1e-6)
        assert math.isclose(solution.mass_integral, 2.0 * math.sqrt(6.0), abs_tol=1e-6)

    def test_analytic_index_one(self):
        # theta = sin(xi)/xi: first zero pi, mass integral pi
        solution = lane_emden(1.0)
        assert math.isclose(solution.xi1, math.pi, abs_tol=1e-6)
        assert math.isclose(solution.mass_integral, math.pi, abs_tol=1e-6)

    def test_published_values(self):
        three_halves = lane_emden(1.5)
        assert math.isclose(three_halves.xi1, 3.653753736, rel_tol=1e-5)
        assert math.isclose(three_halves.mass_integral, 2.71405512, rel_tol=1e-5)
        three = lane_emden(3.0)
        assert math.isclose(three.xi1, 6.896848619, rel_tol=1e-5)
        assert math.isclose(three.mass_integral, 2.018235951, rel_tol=1e-5)

    def test_matches_rk4_oracle(self):
        solution = lane_emden(3.0)
        xi1, mass_integral = lane_emden_rk4(3.0, step=1e-4)
        assert math.isclose(solution.xi1, xi1, rel_tol=1e-5)
        assert math.isclose(solution.mass_integral, mass_integral, rel_tol=1e-5)

    def test_index_range_validation(self):
        with pytest.raises(ValueError):
            lane_emden(-0.1)
        with pytest.raises(ValueError):
            lane_emden(4.9)


class TestMassFormula:
    def test_limiting_mass_ignores_central_density(self):
        """At gamma = 4/3 the density exponent vanishes."""
        k = eos_coefficient(EXCLUSIVE, Regime.ULTRA_RELATIVISTIC)
        solution = lane_emden(3.0)
        masses = [
            white_dwarf_mass(k, rho, 4.0 / 3.0, solution=solution)
            for rho in (1e-2, 1.0, 1e2, 1e4)
        ]
        for m in masses[1:]:
            assert math.isclose(m, masses[0], rel_tol=1e-8)

    def test_nonrelativistic_mass_grows_with_density(self):
        # gamma = 5/3 means n = 3/2 and M ~ rho_c^{1/2}
        k = eos_coefficient(EXCLUSIVE, Regime.NON_RELATIVISTIC)
        solution = lane_emden(1.5)
        m1 = white_dwarf_mass(k, 1.0, 5.0 / 3.0, solution=solution)
        m2 = white_dwarf_mass(k, 4.0, 5.0 / 3.0, solution=solution)
        exponent = math.log(m2 / m1) / math.log(4.0)
        assert abs(exponent - 0.5) <= 1e-3

    def test_coefficient_scaling(self):
        solution = lane_emden(3.0)
        base = white_dwarf_mass(1.0, 1.0, 4.0 / 3.0, solution=solution)
        doubled = white_dwarf_mass(2.0, 1.0, 4.0 / 3.0, solution=solution)
        assert math.isclose(doubled / base, 2.0**1.5, rel_tol=1e-12)

    def test_mismatched_solution_rejected(self):
        with pytest.raises(ValueError, match="different index"):
            white_dwarf_mass(1.0, 1.0, 4.0 / 3.0, solution=lane_emden(1.5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coefficient": 0.0, "central_density": 1.0},
            {"coefficient": 1.0, "central_density": -1.0},
            {"coefficient": 1.0, "central_density": 1.0, "gravity": 0.0},
        ],
    )
    def test_positivity_validation(self, kwargs):
        with pytest.raises(ValueError):
            white_dwarf_mass(gamma=4.0 / 3.0, **kwargs)


class TestOccupancyConsequences:
    def test_limiting_mass_ratio_is_sqrt_two(self):
        ratio = chandrasekhar_ratio()
        assert math.isclose(ratio, math.sqrt(2.0), rel_tol=1e-10)

    def test_ratio_independent_of_density_and_gravity(self):
        baseline = chandrasekhar_ratio()
        assert math.isclose(
            chandrasekhar_ratio(central_density=37.0, gravity=0.25),
            baseline,
            rel_tol=1e-12,
        )

    def test_model_comparison_bundle(self):
        comparison = compare_star_models()
        assert math.isclose(comparison.k_nr_ratio, 2.0 ** (2.0 / 3.0), rel_tol=1e-12)
        assert math.isclose(comparison.k_ur_ratio, 2.0 ** (1.0 / 3.0), rel_tol=1e-12)
        assert math.isclose(comparison.nr_mass_ratio, 2.0, rel_tol=1e-10)
        assert math.isclose(comparison.limiting_mass_ratio, math.sqrt(2.0), rel_tol=1e-10)
        assert comparison.nr_solution.index == 1.5
        assert comparison.ur_solution.index == 3.0

    def test_quoted_ratio_is_recorded(self):
        # the rounded literature figure, kept for comparison output
        assert REFERENCE_MASS_RATIO == 1.6
