"""Spin paramagnetism and quantized-level diamagnetism."""

import math

import numpy as np
import pytest

from oracles import density_oracle, extrapolated_susceptibility, landau_level_sum, polylog_moments
from xfermi.eos import density
from xfermi.magnetism import (
    LevelBudgetError,
    geometric_level_factor,
    landau_partition_ratio,
    landau_susceptibility,
    pauli_magnetization,
    small_field_series_factor,
)
from xfermi.numerics import NumericsError
from xfermi.occupancy import BOLTZMANN, EXCLUSIVE, STANDARD_FD


class TestPauliPopulations:
    def test_zero_field_is_symmetric(self):
        result = pauli_magnetization(-1.0, 0.0)
        up, down = result.n_up, result.n_down
        assert up == down
        assert math.isclose(up, 0.5 * density(-1.0), rel_tol=1e-12)

    def test_dilute_populations_follow_boltzmann_weights(self):
        # each species sees its own shifted fugacity z e^{-+b}
        eta, b = -9.0, 0.4
        z = math.exp(eta)
        result = pauli_magnetization(eta, b)
        up, down = result.n_up, result.n_down
        assert math.isclose(up, z * math.exp(-b), rel_tol=2e-4)
        assert math.isclose(down, z * math.exp(b), rel_tol=2e-4)

    def test_populations_against_dense_grid(self):
        eta, b = -3.0, 0.5
        for model in (EXCLUSIVE, STANDARD_FD):
            result = pauli_magnetization(eta, b, model)
            up, down = result.n_up, result.n_down
            assert math.isclose(up, 0.5 * density_oracle(eta - b, model), rel_tol=1e-9)
            assert math.isclose(down, 0.5 * density_oracle(eta + b, model), rel_tol=1e-9)


class TestPauliMagnetization:
    def test_dilute_per_particle_is_tanh(self):
        eta = math.log(1e-4)
        for b in (0.1, 0.3, 1.0):
            for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
                result = pauli_magnetization(eta, b, model)
                assert math.isclose(result.per_particle, math.tanh(b), rel_tol=1e-3)

    def test_magnetization_is_odd_in_field(self):
        # reversing the field swaps the same two integrals, so exactly odd
        for eta in (-2.0, 0.5):
            for b in (0.2, 1.5):
                forward = pauli_magnetization(eta, b)
                backward = pauli_magnetization(eta, -b)
                assert backward.magnetization == -forward.magnetization

    def test_never_exceeds_saturation(self):
        for eta in (-4.0, 0.0, 3.0):
            for b in (0.1, 1.0, 5.0):
                result = pauli_magnetization(eta, b)
                assert abs(result.per_particle) < 1.0

    def test_models_agree_when_dilute(self):
        eta = math.log(1e-4)
        excl = pauli_magnetization(eta, 0.7, EXCLUSIVE).per_particle
        std = pauli_magnetization(eta, 0.7, STANDARD_FD).per_particle
        assert math.isclose(excl, std, rel_tol=1e-3)

    def test_strong_field_saturates(self):
        result = pauli_magnetization(0.0, 30.0)
        assert result.per_particle > 0.999

    @pytest.mark.parametrize("field", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_is_refused_by_name(self, field):
        with pytest.raises(ValueError, match="field must be finite"):
            pauli_magnetization(0.0, field)

    @pytest.mark.parametrize("eta", [-800.0, -744.0])
    def test_subnormal_populations_are_a_numerics_error(self, eta):
        # -800: both underflow to 0; -744: the smaller is 5e-324, and M/N
        # would read 0.6 where the law gives tanh 1 = 0.762
        with pytest.raises(NumericsError, match="underflows a double at eta"):
            pauli_magnetization(eta, 1.0)

    def test_dilute_law_holds_down_to_the_normal_range(self):
        assert math.isclose(pauli_magnetization(-700.0, 1.0).per_particle, math.tanh(1.0),
                            rel_tol=1e-12)

    def test_saturation_beside_an_underflowed_population(self):
        result = pauli_magnetization(0.0, 760.0)
        assert result.n_up == 0.0
        assert result.per_particle == 1.0


class TestLandauLevelSum:
    def test_linearized_sum_reproduces_geometric_factor(self):
        """The numeric level sum must land on 1/(2 sinh s)."""
        z = 1e-4
        for s in (0.5, 1.0, 2.0):
            numeric = landau_level_sum(z, s, linearized=True) / (2.0 * s)
            assert math.isclose(numeric, geometric_level_factor(s), rel_tol=1e-10)

    @pytest.mark.parametrize("z, s", [
        (1e-6, 0.015), (1e-3, 0.2), (0.05, 0.5), (0.45, 2.0),
        (5.0, 0.5),  # a z e^{-s} >= 1: the first levels go through the moment kernel
        (5.0, 0.05),  # 23 such levels
    ])
    def test_matches_level_sum_oracle(self, z, s):
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            assert math.isclose(
                landau_partition_ratio(z, s, model), landau_level_sum(z, s, model), rel_tol=1e-10
            )

    def test_level_budget_enforced(self):
        # about 1.2e9 degenerate levels, past the budget of 1e6
        with pytest.raises(LevelBudgetError, match="Landau levels"):
            landau_partition_ratio(5.0, 1e-9)

    def test_partition_ratio_dilute_value(self):
        # s/sinh(s) at s = 1
        ratio = landau_partition_ratio(1e-6, 1.0)
        assert math.isclose(ratio, 1.0 / math.sinh(1.0), rel_tol=1e-5)

    def test_ratio_approaches_one_at_zero_field(self):
        # the full route keeps an O(z) offset
        full = landau_partition_ratio(1e-6, 1e-4)
        assert math.isclose(full, 1.0 - 2e-6 / 2.0**2.5, rel_tol=1e-7)

    def test_small_field_series(self):
        assert small_field_series_factor(0.1) == 1.0 - 0.01 / 6.0
        gap = abs(landau_partition_ratio(1e-6, 0.1) - small_field_series_factor(0.1))
        assert gap < 3e-6

    def test_small_field_series_edges(self):
        assert small_field_series_factor(5e-324) == 1.0  # s^2 underflows to a harmless 0
        assert small_field_series_factor(1e154) == 1.0 - 1e308 / 6.0
        for s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="s must be positive and finite"):
                small_field_series_factor(s)
        with pytest.raises(NumericsError, match="s\\^2 overflows a double at s = 1e\\+200"):
            small_field_series_factor(1e200)

    @pytest.mark.parametrize("z, s", [(1e-3, 1e-310), (0.2, 5e-324), (1e-3, 1e-320)])
    def test_subnormal_spacing_keeps_the_zero_field_value(self, z, s):
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            assert math.isclose(landau_partition_ratio(z, s, model),
                                landau_partition_ratio(z, 1e-300, model), rel_tol=1e-12)

    def test_geometric_factor_past_the_double_range(self):
        assert geometric_level_factor(3e-309) < math.inf
        assert geometric_level_factor(700.0) > 0.0
        for s in (2.7e-309, 1e-310, 5e-324):
            with pytest.raises(NumericsError, match="overflows a double"):
                geometric_level_factor(s)
        for s in (711.0, 800.0, 1e300):
            with pytest.raises(NumericsError, match="underflows a double"):
                geometric_level_factor(s)

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD, BOLTZMANN])
    def test_partition_ratio_past_the_double_range(self, model):
        assert landau_partition_ratio(0.05, 700.0, model) == 1.380354716126368e-301
        for s in (745.0, 800.0):  # a subnormal ratio (3 digits left), and zero
            with pytest.raises(NumericsError, match=f"underflows a double at s = {s!r}"):
                landau_partition_ratio(0.05, s, model)

    @pytest.mark.parametrize("model, edge", [(EXCLUSIVE, 4.5e307), (STANDARD_FD, 9e307)],
                             ids=["exclusive", "fd"])
    def test_fugacity_at_the_top_of_the_double_range(self, model, edge):
        # 2 a z overflows: the cause is named, not the level budget
        with pytest.raises(NumericsError, match="2 a z at z = .* overflows a double") as info:
            landau_partition_ratio(edge, 0.5, model)
        assert not isinstance(info.value, LevelBudgetError)
        assert 0.0 < landau_partition_ratio(edge / 1.01, 0.5, model) < math.inf
        # the classical model has no degenerate levels to count
        assert 0.0 < landau_partition_ratio(edge, 0.5, BOLTZMANN) < math.inf

    def test_validation(self):
        for z, s in ((0.0, 1.0), (0.1, -1.0), (math.nan, 1.0), (0.1, math.inf)):
            with pytest.raises(ValueError):
                landau_partition_ratio(z, s)
        # nan and inf are bad inputs, not results past the double range
        for s in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="s must be positive and finite"):
                geometric_level_factor(s)


class TestLandauSusceptibility:
    def test_dilute_limit_is_minus_one_third(self):
        for model in (EXCLUSIVE, STANDARD_FD):
            chi = landau_susceptibility(0.01, model)
            assert math.isclose(chi, -1.0 / 3.0, rel_tol=0.01)

    def test_classical_model_hits_limit_exactly(self):
        # no occupancy correction at linear order in z
        chi = landau_susceptibility(0.01, BOLTZMANN)
        assert math.isclose(chi, -1.0 / 3.0, rel_tol=1e-6)

    def test_response_is_diamagnetic(self):
        for n_lambda3 in (0.005, 0.02, 0.08):
            assert landau_susceptibility(n_lambda3, EXCLUSIVE) < 0.0

    @pytest.mark.parametrize("n_lambda3", [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3])
    def test_closed_form_against_polylog_and_extrapolation(self, n_lambda3):
        # -(1/3) f_{1/2}(a z)/(a z) at 30 digits, and the level sum differenced in
        # the field and extrapolated to s -> 0; degenerate from n lambda^3 ~ 1 on
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            chi = landau_susceptibility(n_lambda3, model)
            z = n_lambda3 / model.weight
            slope = polylog_moments(math.log(z), model)[3]
            assert math.isclose(chi, -slope / (3.0 * model.weight * z), rel_tol=1e-13)
            assert math.isclose(chi, extrapolated_susceptibility(n_lambda3, model), rel_tol=1e-9)

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD, BOLTZMANN])
    def test_ends_of_the_double_range(self, model):
        # 3 g z = 3 n lambda^3 overflows from 6e307, where -0.0 came back; just below
        # it the classical chi is still -1/3, and the degenerate ones tiny but negative
        chi = landau_susceptibility(5.9e307, model)
        if model is BOLTZMANN:
            assert math.isclose(chi, -1.0 / 3.0, rel_tol=1e-12)
        else:
            assert -1e-300 < chi < 0.0
        with pytest.raises(NumericsError, match="3 g z at n_lambda3 = 6e\\+307 overflows"):
            landau_susceptibility(6e307, model)
        # z = n lambda^3 / 2 rounds to 0, where ln z raised a bare math domain error
        with pytest.raises(NumericsError, match="3 g z at n_lambda3 = 5e-324 underflows"):
            landau_susceptibility(5e-324, model)

    def test_validation(self):
        with pytest.raises(ValueError):
            landau_susceptibility(0.0)
