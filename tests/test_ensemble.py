"""Level-system oracles: product vs enumeration vs the occupation law."""

import math

import numpy as np
import pytest

from oracles import enumerate_by_tags, mc_by_choice, mc_by_multinomial
from xfermi import (
    BOLTZMANN,
    EXCLUSIVE,
    STANDARD_FD,
    CapacityError,
    LevelSystem,
    grand_partition_enumerate,
    ensemble,
    grand_partition_product,
    mc_occupancy,
    mean_occupancies_enumerate,
    occupation,
)


class TestExactSmallSystems:
    def test_single_level_partition_values(self):
        # eps = 0, z = 1: exclusive factor 1 + 2z = 3, standard (1 + z)^2 = 4
        for model, expected in ((EXCLUSIVE, 3.0), (STANDARD_FD, 4.0)):
            system = LevelSystem((0.0,), model)
            product = grand_partition_product(system, 1.0)
            assert math.isclose(product.value, expected, rel_tol=1e-14)
            assert math.isclose(product.log_value, math.log(expected), rel_tol=1e-14)
            enumerated = grand_partition_enumerate(system, 1.0)
            assert math.isclose(enumerated.value, expected, rel_tol=1e-13)
            assert math.isclose(enumerated.log_value, math.log(expected), rel_tol=1e-13)

    def test_two_level_partition_by_hand(self):
        # eps = (0, ln 2), z = 1: (1 + 2)(1 + 2/2) = 6
        system = LevelSystem((0.0, math.log(2.0)), EXCLUSIVE)
        assert math.isclose(grand_partition_enumerate(system, 1.0).value, 6.0, rel_tol=1e-13)

    def test_single_level_occupancy_values(self):
        # eps = 1, z = 1/2
        cases = (
            (EXCLUSIVE, 1.0 / (math.e + 1.0)),
            (STANDARD_FD, 2.0 / (2.0 * math.e + 1.0)),
        )
        for model, expected in cases:
            system = LevelSystem((1.0,), model)
            (got,) = mean_occupancies_enumerate(system, 0.5)
            assert math.isclose(got, expected, rel_tol=1e-13)
            # and the closed-form law gives the same number at x = eps - ln z
            law = occupation(1.0 - math.log(0.5), model)
            assert math.isclose(got, law, rel_tol=1e-13)

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD])
    def test_energies_beyond_the_exp_range(self, model):
        # e^{+-800} is outside the double range; both routes stay in log space
        system = LevelSystem((-800.0, 1.0, 800.0), model)
        z = 0.5
        law = occupation(np.asarray(system.energies) - math.log(z), model)
        product = grand_partition_product(system, z)
        assert product.value == math.inf
        g, a = model.weight, model.blocking
        by_hand = (g / a) * (800.0 + math.log(a * z) + math.log1p(a * z * math.exp(-1.0)))
        assert math.isclose(product.log_value, by_hand, rel_tol=1e-14)
        enumerated = grand_partition_enumerate(system, z)
        assert enumerated.value == math.inf
        assert math.isclose(enumerated.log_value, by_hand, rel_tol=1e-14)
        assert np.max(np.abs(mean_occupancies_enumerate(system, z) - law)) <= 1e-12
        for energy, exact in ((-800.0, law[0]), (800.0, law[2])):  # states certain
            mean, err = mc_occupancy(energy, z, samples=1_000, seed=1, model=model)
            assert (mean, err) == (exact, 0.0)

    def test_linear_value_can_overflow_while_log_stays_finite(self):
        system = LevelSystem((-100.0,) * 8, EXCLUSIVE)
        product = grand_partition_product(system, 2.0)
        assert product.value == math.inf
        assert math.isfinite(product.log_value)
        assert product.log_value > 700.0


class TestRouteAgreement:
    """Enumeration is the ground truth; everything else must match it."""

    def _random_system(self, rng, model):
        n_levels = int(rng.integers(1, 9))
        energies = rng.uniform(0.0, 5.0, size=n_levels)
        z = float(rng.uniform(0.1, 2.0))
        return LevelSystem(tuple(energies), model), z

    def test_product_matches_enumeration(self, rng):
        for _ in range(15):
            for model in (EXCLUSIVE, STANDARD_FD):
                system, z = self._random_system(rng, model)
                log_product = grand_partition_product(system, z).log_value
                log_enumerated = grand_partition_enumerate(system, z).log_value
                assert abs(log_product - log_enumerated) <= 1e-12

    def test_occupancies_match_law(self, rng):
        for _ in range(15):
            for model in (EXCLUSIVE, STANDARD_FD):
                system, z = self._random_system(rng, model)
                enumerated = mean_occupancies_enumerate(system, z)
                x = np.asarray(system.energies) - math.log(z)
                assert np.max(np.abs(enumerated - occupation(x, model))) <= 1e-12

    def test_disjoint_systems_multiply(self, rng):
        # independent levels: log Z of the union is the sum of the parts
        for model in (EXCLUSIVE, STANDARD_FD):
            first = tuple(rng.uniform(0.0, 5.0, size=3))
            second = tuple(rng.uniform(0.0, 5.0, size=3))
            z = 0.7
            log_union = grand_partition_enumerate(
                LevelSystem(first + second, model), z
            ).log_value
            log_parts = (
                grand_partition_enumerate(LevelSystem(first, model), z).log_value
                + grand_partition_enumerate(LevelSystem(second, model), z).log_value
            )
            assert abs(log_union - log_parts) <= 1e-11


class TestBlockEnumeration:
    """Block-wise enumeration against the tag-by-tag route it replaced."""

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD])
    @pytest.mark.parametrize("z", [1e-3, 0.7, 30.0, 1e200])
    def test_matches_tag_by_tag_enumeration(self, rng, model, z):
        for n_levels in range(1, 10):
            system = LevelSystem(tuple(rng.uniform(0.0, 5.0, n_levels)), model)
            shift, total, weighted = enumerate_by_tags(system, z)
            log_z = shift + math.log(total)
            # either route's ln(total) is off by a few ulps of 1, which is
            # relative only where |ln Z| >= 1
            gap = abs(grand_partition_enumerate(system, z).log_value - log_z)
            assert gap <= 2e-15 * max(1.0, abs(log_z))
            occupancies = mean_occupancies_enumerate(system, z)
            assert np.max(np.abs(occupancies - weighted / total)) <= 1e-15

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD])
    def test_many_blocks_match_one(self, rng, monkeypatch, model):
        system = LevelSystem(tuple(rng.uniform(0.0, 5.0, 6)), model)
        log_z = grand_partition_enumerate(system, 0.7).log_value
        occupancies = mean_occupancies_enumerate(system, 0.7)
        monkeypatch.setattr(ensemble, "_CHUNK", 16)  # blocks of two levels
        assert abs(grand_partition_enumerate(system, 0.7).log_value - log_z) <= 1e-15
        assert np.max(np.abs(mean_occupancies_enumerate(system, 0.7) - occupancies)) <= 1e-15

    @pytest.mark.parametrize("model, n_levels", [(EXCLUSIVE, 10), (EXCLUSIVE, 11),
                                                 (STANDARD_FD, 10)])
    @pytest.mark.parametrize("z", [1e-3, 0.7, 30.0, 1e200])
    def test_partial_sums_carry_through_many_prefix_levels(
        self, rng, monkeypatch, model, n_levels, z
    ):
        system = LevelSystem(tuple(rng.uniform(0.0, 5.0, n_levels)), model)
        monkeypatch.setattr("oracles._TAG_CHUNK", 1 << 16)
        shift, total, weighted = enumerate_by_tags(system, z)
        log_z = shift + math.log(total)
        # blocks of four levels: six to seven prefix levels pass their sums up
        monkeypatch.setattr(ensemble, "_CHUNK", system.radix**4)
        gap = abs(grand_partition_enumerate(system, z).log_value - log_z)
        assert gap <= 2e-15 * max(1.0, abs(log_z))
        occupancies = mean_occupancies_enumerate(system, z)
        assert np.max(np.abs(occupancies - weighted / total)) <= 1e-15

    @pytest.mark.parametrize("model, n_levels", [(EXCLUSIVE, 15), (STANDARD_FD, 12)])
    @pytest.mark.parametrize("z", [1e-3, 0.7, 30.0, 1e200])
    def test_capacity_matches_product(self, rng, model, n_levels, z):
        system = LevelSystem(tuple(rng.uniform(0.0, 5.0, n_levels)), model)
        log_z = grand_partition_product(system, z).log_value
        gap = abs(grand_partition_enumerate(system, z).log_value - log_z)
        assert gap <= 2e-15 * max(1.0, abs(log_z))
        law = occupation(np.asarray(system.energies) - math.log(z), model)
        assert np.max(np.abs(mean_occupancies_enumerate(system, z) - law)) <= 1e-15


class TestValidation:
    def test_too_many_levels(self):
        with pytest.raises(CapacityError):
            LevelSystem((1.0,) * 21)
        # the cap is on 4^12 configurations: 4^13 is over it, 3^15 under it
        with pytest.raises(CapacityError):
            LevelSystem((1.0,) * 13, STANDARD_FD)
        assert len(LevelSystem((1.0,) * 12, STANDARD_FD).energies) == 12
        assert len(LevelSystem((1.0,) * 15, EXCLUSIVE).energies) == 15
        with pytest.raises(CapacityError):
            LevelSystem((1.0,) * 16, EXCLUSIVE)

    def test_empty_system(self):
        with pytest.raises(ValueError):
            LevelSystem(())

    def test_non_finite_energy(self):
        with pytest.raises(ValueError):
            LevelSystem((0.0, math.inf))

    def test_continuous_model_rejected(self):
        with pytest.raises(ValueError, match="discrete"):
            LevelSystem((0.0,), BOLTZMANN)

    @pytest.mark.parametrize("z", [0.0, -1.0, math.inf, math.nan])
    def test_bad_fugacity(self, z):
        system = LevelSystem((0.0,))
        with pytest.raises(ValueError):
            grand_partition_enumerate(system, z)

    def test_mc_argument_validation(self):
        for samples in (0, 10.5, math.inf, math.nan, 2**63, 10**400):
            with pytest.raises(ValueError, match="samples"):
                mc_occupancy(1.0, 0.5, samples=samples, seed=1)
        with pytest.raises(ValueError):
            mc_occupancy(1.0, 0.5, samples=10, seed=-1)
        for energy in (math.nan, -math.inf):  # no state probabilities
            with pytest.raises(ValueError):
                mc_occupancy(energy, 0.5, samples=10, seed=1)


class TestMonteCarlo:
    def test_within_three_sigma_of_law(self):
        for model in (EXCLUSIVE, STANDARD_FD):
            for energy, z in ((0.0, 1.0), (1.5, 0.5), (3.0, 1.8)):
                mean, err = mc_occupancy(
                    energy, z, samples=200_000, seed=20240817, model=model
                )
                exact = occupation(energy - math.log(z), model)
                assert abs(mean - exact) <= 3.0 * err

    def test_standard_error_scaling(self):
        """SE of the mean should fall like 1/sqrt(samples)."""
        sample_counts = np.array([1_000, 10_000, 100_000, 1_000_000])
        errors = np.array(
            [mc_occupancy(1.0, 0.8, int(n), seed=42)[1] for n in sample_counts]
        )
        slope = np.polyfit(np.log(sample_counts), np.log(errors), 1)[0]
        assert abs(slope + 0.5) < 0.05

    def test_deterministic_for_fixed_seed_and_stream(self):
        first = mc_occupancy(1.0, 0.5, 5_000, seed=7, stream=3)
        second = mc_occupancy(1.0, 0.5, 5_000, seed=7, stream=3)
        assert first == second
        other_stream = mc_occupancy(1.0, 0.5, 5_000, seed=7, stream=4)
        assert other_stream != first

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD])
    @pytest.mark.parametrize("samples", [1, 2, 1000, 1_000_000])
    def test_counts_are_one_multinomial_draw(self, model, samples):
        for energy, z in ((0.0, 1.0), (1.5, 0.5), (3.0, 1.8)):
            mean, err = mc_occupancy(energy, z, samples, seed=20240817, model=model, stream=2)
            expected_mean, expected_err = mc_by_multinomial(energy, z, samples, 20240817, model, 2)
            assert mean == expected_mean
            assert math.isclose(err, expected_err, rel_tol=1e-12)  # inf at one sample

    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD])
    def test_agrees_in_distribution_with_generator_choice(self, model):
        # Generator.choice draws the states one by one: an independent sampler
        for energy, z in ((0.0, 1.0), (1.5, 0.5), (3.0, 1.8)):
            mean, err = mc_occupancy(energy, z, 100_000, seed=20240817, model=model, stream=2)
            other, other_err = mc_by_choice(energy, z, 100_000, 20240817, model, 2)
            assert abs(mean - other) <= 5.0 * math.hypot(err, other_err)

    def test_largest_sample_count(self):
        mean, err = mc_occupancy(1.0, 0.5, samples=2**63 - 1, seed=20240817)
        assert math.isfinite(mean) and 0.0 < err < 1e-9
        assert abs(mean - occupation(1.0 - math.log(0.5))) <= 5.0 * err

    def test_single_sample_has_infinite_error(self):
        _, err = mc_occupancy(1.0, 0.5, samples=1, seed=0)
        assert err == math.inf
