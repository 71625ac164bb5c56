"""Polytropic stars: EOS coefficients, Lane-Emden, mass scaling."""

import functools
import math

import mpmath
import numpy as np
import pytest

from xfermi import astro
from xfermi.astro import (
    REFERENCE_MASS_RATIO,
    Regime,
    compare_star_models,
    eos_coefficient,
    lane_emden,
    white_dwarf_mass,
)
from xfermi.numerics import NumericsError, integrate_ode
from xfermi.occupancy import (
    EXCLUSIVE,
    STANDARD_FD,
    OccupancyModel,
    degeneracy_pressure,
    fermi_energy,
)

from oracles import lane_emden_mp, lane_emden_rk4

# xi_1 and the mass integral from oracles.lane_emden_mp at 30 digits
MP_LANE_EMDEN = {
    0.05: (2.476699807041617626388, 4.752296384473232502335),
    0.3: (2.622678703068363724934, 4.152924811863144165813),
    0.5: (2.752698054064987853153, 3.788651184884005725859),
    1.5: (3.653753736219122424609, 2.714055120108645719025),
    2.5: (5.355275459010779459909, 2.18719956551707895322),
    2.57: (5.530820375323685236563, 2.160638171186132023465),
    3.0: (6.896848619376960375455, 2.018235950966228402813),
    3.5: (9.535805344244850444105, 1.890557093443116393909),
    4.5: (31.83646324469428526438, 1.737798867666032348873),
}


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


class TestLaneEmden:
    def test_analytic_index_zero(self):
        # theta = 1 - xi^2/6: first zero sqrt(6), mass integral 2 sqrt(6)
        solution = lane_emden(0.0)
        assert math.isclose(solution.xi1, math.sqrt(6.0), rel_tol=1e-14)
        assert math.isclose(solution.mass_integral, 2.0 * math.sqrt(6.0), rel_tol=1e-14)

    def test_analytic_index_one(self):
        # theta = sin(xi)/xi: first zero pi, mass integral pi
        solution = lane_emden(1.0)
        assert math.isclose(solution.xi1, math.pi, rel_tol=1e-14)
        assert math.isclose(solution.mass_integral, math.pi, rel_tol=1e-14)

    @pytest.mark.parametrize("index", sorted(MP_LANE_EMDEN))
    def test_matches_mpmath_literals(self, index):
        xi1, mass_integral = MP_LANE_EMDEN[index]
        solution = lane_emden(index)
        assert math.isclose(solution.xi1, xi1, rel_tol=1e-14)
        # below n = 1 theta^n bends hardest at the branch point on the surface
        mass_tol = 1e-14 if index >= 1.0 else 1e-11
        assert math.isclose(solution.mass_integral, mass_integral, rel_tol=mass_tol)

    def test_matches_mpmath_oracle(self):
        xi1, mass_integral = lane_emden_mp(3.0)
        solution = lane_emden(3.0)
        assert math.isclose(solution.xi1, float(xi1), rel_tol=1e-14)
        assert math.isclose(solution.mass_integral, float(mass_integral), rel_tol=1e-14)

    def test_near_the_index_limit_matches_dop853(self):
        # n = 4.89: xi_1 is about 155, forty times the n = 1.5 radius
        index, xi0 = 4.89, 1e-3

        def rhs(xi, y):
            return y[1], -max(y[0], 0.0) ** index - 2.0 * y[1] / xi

        start = (1.0 - xi0**2 / 6.0 + index * xi0**4 / 120.0, -xi0 / 3.0 + index * xi0**3 / 30.0)
        terminus = integrate_ode(rhs, xi0, start, lambda xi, y: y[0], 500.0)
        solution = lane_emden(index)
        assert math.isclose(solution.xi1, terminus.time, rel_tol=1e-10)
        assert math.isclose(
            solution.mass_integral, -(terminus.time**2) * terminus.state[1], rel_tol=1e-10
        )

    def test_step_cap_raises_numerics_error(self, monkeypatch):
        monkeypatch.setattr(astro, "_MAX_STEPS", 2)
        with pytest.raises(NumericsError, match="surface not located within 2 steps"):
            lane_emden(1.5)

    def test_step_budget_under_the_cap(self, monkeypatch):
        # the _MAX_STEPS comment: n in [0, 4.9) needs at most 60 local series
        local_series, calls = astro._local_series, []

        def counted(*args):
            calls.append(args)
            return local_series(*args)

        monkeypatch.setattr(astro, "_local_series", counted)
        for i in range(98):
            calls.clear()
            lane_emden(0.05 * i)
            assert 0 < len(calls) <= 60, (0.05 * i, len(calls))

    @pytest.mark.parametrize("n", [2.0, 3.0, 1.5, 0.2])
    def test_power_source_matches_the_power_of_the_series(self, n):
        # the source routine alone, fed t_0..t_k for its k-th coefficient
        rng = np.random.default_rng(35)
        t = [1.0 + rng.uniform(), *rng.uniform(-1.0, 1.0, astro._ORDER)]
        source, p = astro._power_source(n), []
        for k in range(len(t)):
            source(p, t[: k + 1])
        assert p[0] == t[0] ** n
        if n.is_integer():
            expected = functools.reduce(np.convolve, [t] * int(n))[: len(t)]
        else:
            with mpmath.workdps(40):
                expected = mpmath.taylor(lambda x: mpmath.polyval(t[::-1], x) ** n, 0, len(t) - 1)
        assert len(p) == len(t)
        scale = max(map(abs, p))
        for k, (pk, ek) in enumerate(zip(p, expected)):
            assert abs(pk - float(ek)) <= 1e-14 * scale, k

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
        """At n = 3 the density exponent vanishes."""
        k = eos_coefficient(EXCLUSIVE, Regime.ULTRA_RELATIVISTIC)
        solution = lane_emden(3.0)
        masses = [
            white_dwarf_mass(k, rho, solution)
            for rho in (1e-2, 1.0, 1e2, 1e4)
        ]
        for m in masses[1:]:
            assert math.isclose(m, masses[0], rel_tol=1e-8)

    def test_nonrelativistic_mass_grows_with_density(self):
        # n = 3/2 (gamma = 5/3) gives M ~ rho_c^{1/2}
        k = eos_coefficient(EXCLUSIVE, Regime.NON_RELATIVISTIC)
        solution = lane_emden(1.5)
        m1 = white_dwarf_mass(k, 1.0, solution)
        m2 = white_dwarf_mass(k, 4.0, solution)
        exponent = math.log(m2 / m1) / math.log(4.0)
        assert abs(exponent - 0.5) <= 1e-3

    def test_coefficient_scaling(self):
        solution = lane_emden(3.0)
        base = white_dwarf_mass(1.0, 1.0, solution)
        doubled = white_dwarf_mass(2.0, 1.0, solution)
        assert math.isclose(doubled / base, 2.0**1.5, rel_tol=1e-12)
        # M ~ (K / G)^{3/2}: a quarter of the gravity gives eight times the mass
        weak = white_dwarf_mass(1.0, 1.0, solution, gravity=0.25)
        assert math.isclose(weak / base, 0.25**-1.5, rel_tol=1e-12)

    def test_index_zero_has_no_mass_formula(self):
        # rho_c^{(3 - n)/(2n)} has no finite exponent at n = 0
        with pytest.raises(ValueError, match="index above 0"):
            white_dwarf_mass(1.0, 1.0, lane_emden(0.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coefficient": 0.0, "central_density": 1.0},
            {"coefficient": 1.0, "central_density": -1.0},
            {"coefficient": 1.0, "central_density": 1.0, "gravity": 0.0},
            {"coefficient": math.nan, "central_density": 1.0},
            {"coefficient": math.inf, "central_density": 1.0},
            {"coefficient": 1.0, "central_density": math.nan},
            {"coefficient": 1.0, "central_density": math.inf},
            {"coefficient": 1.0, "central_density": 1.0, "gravity": math.nan},
            {"coefficient": 1.0, "central_density": 1.0, "gravity": math.inf},
        ],
    )
    def test_positivity_validation(self, kwargs):
        with pytest.raises(ValueError, match="positive and finite"):
            white_dwarf_mass(solution=lane_emden(3.0), **kwargs)

    @pytest.mark.parametrize("coefficient, central_density, index", [
        (1.0, 1e300, 1.0 / 99.0),  # gamma = 100
        (1e300, 1.0, 1.5),
        (1e-300, 1.0, 1.5),
    ], ids=["density-overflow", "coefficient-overflow", "underflow"])
    def test_unrepresentable_mass_is_a_numerics_error(self, coefficient, central_density, index):
        with pytest.raises(NumericsError, match="stellar mass"):
            white_dwarf_mass(coefficient, central_density, lane_emden(index))

    @pytest.mark.parametrize("regime", list(Regime))
    def test_overflowing_coefficient_is_a_numerics_error(self, regime):
        with pytest.raises(NumericsError, match="overflows a double"):
            eos_coefficient(OccupancyModel("x", 1e-320, 1.0), regime)


class TestOccupancyConsequences:
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
