"""Reduced equation of state: integrals, inversion, virial series."""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import leggauss

from oracles import (
    bracket_fugacity,
    density_oracle,
    energy_density_oracle,
    polylog_inverse,
    polylog_moments,
    quad_moment,
    sommerfeld_series,
)
from xfermi import degenerate, eos
from xfermi.degenerate import _EDGE, specific_heat_exact
from xfermi.eos import (
    FugacityOverflowError,
    ThermoPoint,
    _moments,
    density,
    energy_density,
    fugacity_series,
    pressure,
    solve_fugacity,
    solve_point,
    virial_pressure,
)
from xfermi.magnetism import landau_partition_ratio, landau_susceptibility, pauli_magnetization
from xfermi.numerics import NumericsError, RootConvergenceError
from xfermi.occupancy import BOLTZMANN, EXCLUSIVE, STANDARD_FD, ValidityWarning

ALL_MODELS = (EXCLUSIVE, STANDARD_FD, BOLTZMANN)
BLOCKING_MODELS = (EXCLUSIVE, STANDARD_FD)
KINDS = {"density": density, "energy_density": energy_density, "pressure": pressure}

# every moment is held to this against the 30-digit polylog route
POLYLOG_REL = 1e-12
# the same draws on every run, and no example database on disk
DOMAIN = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def mixed_etas(model):
    """Points on both sides of the dilute/degenerate switch and the bulk cut, as
    the Pauli species and the Landau levels pass them; deep degeneracy too for
    the blocking models."""
    etas = np.array([-700.0, -30.0, -0.7, 0.0, 0.2, 5.0, 39.0, 41.0, 650.0])
    return np.append(etas, [1e3, 1e6]) if model.blocking else etas


def assert_matches_polylog(eta, model):
    got = (density(eta, model), energy_density(eta, model), pressure(eta, model),
           float(_moments(eta, model, [3])[0]))
    for kind, value, exact in zip((*KINDS, "dn/deta"), got, polylog_moments(eta, model)):
        assert math.isclose(value, exact, rel_tol=POLYLOG_REL), (kind, eta, model.name)


class TestIntegralsAgainstDenseGrid:
    """Gauss-Legendre kernel vs the substituted-trapezoid oracle."""

    @pytest.mark.parametrize("eta", [-5.0, 0.0, 2.0, 8.0])
    def test_density(self, eta):
        for model in ALL_MODELS:
            assert math.isclose(
                density(eta, model), density_oracle(eta, model), rel_tol=1e-12
            )

    @pytest.mark.parametrize("eta", [-5.0, 0.0, 2.0, 8.0])
    def test_energy_density(self, eta):
        for model in ALL_MODELS:
            assert math.isclose(
                energy_density(eta, model),
                energy_density_oracle(eta, model),
                rel_tol=1e-12,
            )


class TestAgainstQuadpack:
    """The kernel vs the adaptive QUADPACK route it replaced."""

    @pytest.mark.parametrize("eta", [-25.0, -5.0, -0.4, 0.5, 3.0, 20.0, 41.0, 300.0, 2e3])
    def test_moments(self, eta):
        for model in ALL_MODELS if eta < 700.0 else BLOCKING_MODELS:  # e^eta overflows
            for kind, moment in KINDS.items():
                assert math.isclose(
                    moment(eta, model), quad_moment(kind, eta, model), rel_tol=1e-10
                )


class TestPressureEnergyIdentity:
    @pytest.mark.parametrize("eta", [-10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0])
    def test_pressure_is_two_thirds_energy(self, eta):
        # two independent integrands (grand potential vs energy moment)
        for model in ALL_MODELS:
            p = pressure(eta, model)
            u = energy_density(eta, model)
            assert math.isclose(p, 2.0 * u / 3.0, rel_tol=1e-12)


class TestDeepDegeneracy:
    """Against the Sommerfeld series, whose truncation error is below 5e-12 here."""

    @pytest.mark.parametrize("eta", [8e3, 1e4, 1.5e4, 3e4, 1e5, 3e5, 1e6])
    def test_moments_match_series(self, eta):
        for model in (EXCLUSIVE, STANDARD_FD):
            u = sommerfeld_series(2.5, eta, model)
            assert math.isclose(density(eta, model), sommerfeld_series(1.5, eta, model),
                                rel_tol=1e-11)
            assert math.isclose(energy_density(eta, model), u, rel_tol=1e-11)
            assert math.isclose(pressure(eta, model), 2.0 * u / 3.0, rel_tol=1e-11)


class TestWholeDomain:
    """Every moment against the polylog route over all eta the API accepts."""

    @DOMAIN
    @given(
        eta=st.one_of(st.floats(-700.0, 1e6), st.floats(-45.0, 80.0)),
        model=st.sampled_from(BLOCKING_MODELS),
    )
    def test_blocking_models(self, eta, model):
        assert_matches_polylog(eta, model)

    @DOMAIN
    @given(eta=st.floats(-700.0, 700.0))
    def test_classical_model(self, eta):
        assert_matches_polylog(eta, BOLTZMANN)

    @DOMAIN
    @given(
        # k = eta + ln a: the dilute/degenerate switch, and the two ends of
        # the bulk cut k - 36, which takes over once it clears a panel width
        seam=st.sampled_from((0.0, 36.0, 40.0)),
        offset=st.floats(-1e-3, 1e-3),
        model=st.sampled_from(BLOCKING_MODELS),
    )
    def test_regime_seams(self, seam, offset, model):
        assert_matches_polylog(seam + offset - math.log(model.blocking), model)

    @pytest.mark.parametrize("model, eta", [(EXCLUSIVE, -1.64505), (STANDARD_FD, -0.95205)])
    def test_pressure_near_the_dilute_knee(self, model, eta):
        # eta + ln a = -0.952, where the adaptive route missed 1e-10 by 5.6e-7
        for offset in np.linspace(-3e-5, 3e-5, 7):
            exact = polylog_moments(eta + offset, model)[2]
            assert math.isclose(pressure(eta + offset, model), exact, rel_tol=POLYLOG_REL)

    @pytest.mark.parametrize("eta", [float(e) for e in np.arange(-27.0, -40.5, -1.0)])
    def test_solve_point_in_the_deep_dilute_range(self, eta):
        # the moments are near g e^eta < 1e-14, once below an absolute tolerance
        for model in ALL_MODELS:
            point = solve_point(model, eta=eta)
            exact = polylog_moments(eta, model)
            got = (point.n_lambda3, point.energy_density, point.pressure)
            for value, expected in zip(got, exact):
                assert math.isclose(value, expected, rel_tol=POLYLOG_REL)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_array_form_matches_scalar_calls(self, model):
        etas = mixed_etas(model)
        batch = _moments(etas, model)
        for i, eta in enumerate(etas):
            assert np.array_equal(batch[:, i], _moments(float(eta), model))
            assert batch[0, i] == density(float(eta), model)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_eta(self, bad):
        for moment in KINDS.values():
            with pytest.raises(ValueError):
                moment(bad)


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


class TestClassicalClosedForm:
    """The classical model (a = 0) is g e^eta times (1, 3/2, 1, 1), with no
    quadrature; every model answers each ordered row subset with the bits of
    the full call, whether a point comes alone, in an array on one side of
    k = 0 or in an array across it."""

    # every ordered subset of the four rows: 4 + 12 + 24 + 24
    ROW_SETS = [rows for size in range(1, 5) for rows in itertools.permutations(range(4), size)]

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_row_subsets_match_the_full_call(self, model):
        etas, regimes = mixed_etas(model), []
        if model.blocking:  # k = 0 exactly, the last dilute point, and the next double up
            edge = -math.log(model.blocking)
            etas = np.sort(np.append(etas, [edge, np.nextafter(edge, np.inf)]))
            k = etas + math.log(model.blocking)
            regimes = [k <= 0.0, k > 0.0]
        full = _moments(etas, model)
        for rows in self.ROW_SETS:
            mixed = _moments(etas, model, rows)
            assert mixed.tobytes() == full[list(rows)].tobytes(), rows
            for regime in regimes:  # all dilute, then all degenerate
                got = _moments(etas[regime], model, rows)
                assert got.tobytes() == mixed[:, regime].tobytes(), rows
            for i, eta in enumerate(map(float, etas)):
                got = _moments(eta, model, rows)
                assert got.tobytes() == _moments(eta, model)[list(rows)].tobytes(), (rows, eta)
                assert got.tobytes() == mixed[:, i].tobytes(), (rows, eta)

    def test_never_reaches_the_quadrature(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the classical model reached the quadrature")

        monkeypatch.setattr(eos, "_dilute", refuse)
        monkeypatch.setattr(eos, "_degenerate", refuse)
        for moment in KINDS.values():
            moment(-5.0, BOLTZMANN)
        solve_point(BOLTZMANN, eta=-5.0)
        solve_point(BOLTZMANN, n_lambda3=0.3)
        solve_fugacity(0.3, BOLTZMANN)
        pauli_magnetization(-5.0, 0.5, BOLTZMANN)
        landau_susceptibility(0.3, BOLTZMANN)
        landau_partition_ratio(0.1, 0.2, BOLTZMANN)

    def test_moments_are_the_closed_form_bit_for_bit(self):
        grid = np.linspace(-745.2, 709.78, 20_001)
        for rows in self.ROW_SETS:
            with np.errstate(over="ignore"):
                expected = 2.0 * np.exp(grid) * np.array([1.0, 1.5, 1.0, 1.0])[list(rows), None]
            fits = np.isfinite(expected).all(axis=0)
            assert _moments(grid[fits], BOLTZMANN, rows).tobytes() == expected[:, fits].tobytes()
            for i in [*range(0, grid.size, 97), grid.size - 1]:  # the last overflows
                if fits[i]:
                    got = _moments(float(grid[i]), BOLTZMANN, rows)
                    assert got.tobytes() == expected[:, i].tobytes(), (rows, grid[i])
                else:
                    with pytest.raises(FugacityOverflowError):
                        _moments(float(grid[i]), BOLTZMANN, rows)

    def test_edges_of_the_double_range(self):
        assert density(709.0, BOLTZMANN) == 2.0 * math.exp(709.0)
        with pytest.raises(FugacityOverflowError):
            energy_density(709.0, BOLTZMANN)
        with pytest.raises(FugacityOverflowError):
            pressure(709.5, BOLTZMANN)
        with pytest.raises(NumericsError):
            density(-746.0, BOLTZMANN)


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

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_newton_matches_bracket_oracle(self, model):
        for n_lambda3 in np.geomspace(1e-6, 1e60, 23):
            eta = solve_fugacity(float(n_lambda3), model)
            expected = bracket_fugacity(float(n_lambda3), model)
            assert abs(eta - expected) <= 1e-12 * max(1.0, abs(expected)), n_lambda3

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_density_residual_over_whole_domain(self, model):
        # the bracket search gave up at n lambda^3 = 1e100, and the
        # energy row overflowed the whole kernel call past ~1e186
        for exponent in np.linspace(-300.0, 300.0, 121):
            n_lambda3 = 10.0**exponent
            eta = solve_fugacity(n_lambda3, model)
            assert math.isclose(density(eta, model), n_lambda3, rel_tol=1e-12), n_lambda3

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_one_kernel_call_per_inversion(self, model, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return _moments(*args, **kwargs)

        def kernel_calls(expected, fn, *args, **kwargs):
            calls.clear()
            with contextlib.suppress(FugacityOverflowError):  # the energy row past ~1e186
                fn(*args, **kwargs)
            assert len(calls) == expected, (fn.__name__, args, kwargs, calls)

        points = list(np.geomspace(1e-300, 1e300, 601))
        if model.blocking > 0:  # n lambda^3 = nu g/a at both joins of the table, and each side
            points += [nu * model.weight / model.blocking * side
                       for nu in np.exp(eos._INVERSE_JOINS) for side in (1 - 1e-9, 1.0, 1 + 1e-9)]
            # and each side of k = eta + ln a = 40, where the heat capacity changes route
            points += [density(_EDGE - math.log(model.blocking), model) * side
                       for side in (1 - 1e-9, 1 + 1e-9)]
        monkeypatch.setattr(eos, "_moments", counted)
        routes = set()
        for n_lambda3 in points:
            n_lambda3 = float(n_lambda3)
            kernel_calls(1, solve_fugacity, n_lambda3, model)
            kernel_calls(1, solve_point, model, n_lambda3=n_lambda3)
            if model.blocking > 0:  # the temperature at which a fixed density has this n lambda^3
                t = (4.0 / (3.0 * math.sqrt(math.pi)) * model.step_height / n_lambda3) ** (2 / 3)
                # one confirming call below the tabled k = 40, none past it
                start = eos._fugacity_start(degenerate._fixed_density(t, model), model)
                bulk = start + math.log(model.blocking) < _EDGE
                kernel_calls(int(bulk), specific_heat_exact, t, model)
                routes.add(bulk)
        assert routes == ({True, False} if model.blocking > 0 else set())

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_subnormal_density_is_a_numerics_error(self, model):
        # the kernel's n at the start rounds to 0, where Newton would take log(0)
        assert solve_fugacity(1e-322, model) < -740.0
        with pytest.raises(NumericsError, match="the density at eta = .* underflows a double"):
            solve_fugacity(5e-324, model)
        with pytest.raises(NumericsError, match="the density at eta = .* underflows a double"):
            solve_point(model, n_lambda3=5e-324)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_subnormal_densities_resolve_to_their_spacing(self, model):
        # a subnormal n is a whole number of 2^-1074, so eta is known to
        # 2^-1074/n; only the smallest, where the kernel's n rounds to 0, fails
        spacing = math.ulp(0.0)
        for n_lambda3 in map(float, np.geomspace(spacing, 2.2e-308, 400)):
            if n_lambda3 == spacing:
                with pytest.raises(NumericsError,
                                   match="the density at eta = .* underflows a double"):
                    solve_fugacity(n_lambda3, model)
                continue
            eta = solve_fugacity(n_lambda3, model)
            classical = math.log(n_lambda3 / model.weight)
            assert abs(eta - classical) <= max(1e-13 * abs(eta), 2.0 * spacing / n_lambda3)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_subnormal_points_pass_the_pressure_check(self, model):
        # their p and 2 (u / 3) can be one step of 2^-1074 apart, which is more
        # than 1e-13 p below p ~ 5e-311
        for n_lambda3 in map(float, np.geomspace(1e-323, 1e-290, 2000)):
            solve_point(model, n_lambda3=n_lambda3)

    def test_newton_step_budget_is_a_numerics_error(self, monkeypatch):
        # a slope that never lets the step shrink
        monkeypatch.setattr("xfermi.eos._moments", lambda eta, model, rows: np.ones(2))
        with pytest.raises(RootConvergenceError):
            solve_fugacity(math.e)


class TestInverseTable:
    """The Chebyshev start of the inversion against the 30-digit inverse."""

    LOW, HIGH = eos._INVERSE_JOINS
    # ln nu: each piece twice or more, and both sides of each join
    POINTS = (-700.0, -300.0, -100.0, -40.0, -10.0, -5.0, -3.0, LOW - 1e-9,
              LOW, LOW + 1e-9, -1.5, -1.0, -0.5, 0.0, 1.0, 2.5, 3.5, 4.0, HIGH - 1e-9,
              HIGH, HIGH + 1e-9, 5.0, 6.0, 8.0, 12.0, 20.0, 50.0, 100.0, 300.0, 690.0)

    def test_start_is_within_1e_14_of_mpmath(self):
        # 1e-14 max(1, |k|) leaves a factor 10 to Newton's 1e-13 stop
        for log_nu in self.POINTS:
            guess = eos._fd_inverse(log_nu)
            exact = polylog_inverse(log_nu, guess)
            assert abs(guess - exact) <= 1e-14 * max(1.0, abs(exact)), (log_nu, guess, exact)

    def test_clenshaw_sum_equals_numpy_chebval(self, monkeypatch):
        ours = [eos._fd_inverse(log_nu) for log_nu in self.POINTS]
        monkeypatch.setattr(eos, "_chebval", lambda x, c: float(chebval(x, np.array(c))))
        assert ours == [eos._fd_inverse(log_nu) for log_nu in self.POINTS]

    def test_gauss_legendre_literals_equal_leggauss(self):
        nodes, weights = leggauss(20)
        assert eos._GL_T.tolist() == nodes.tolist()
        assert eos._GL_V.tolist() == weights.tolist()


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

    def test_fugacity_series_past_the_double_range_raises(self):
        # x^2 overflows to inf; at the smallest subnormal x = n lambda^3 / g rounds to 0
        with pytest.warns(ValidityWarning), pytest.raises(
                NumericsError, match="at n lambda\\^3 = 1e\\+200 overflows a double"):
            fugacity_series(1e200)
        with pytest.raises(NumericsError, match="at n lambda\\^3 = 5e-324 underflows a double"):
            fugacity_series(5e-324)
        assert fugacity_series(1e-323) == 5e-324

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
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

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_point_from_density_matches_point_from_its_eta(self, model):
        # the moments are moved from Newton's last call to the root along their
        # exact derivatives; d ln(moment)/d eta <= 1, so one ulp of eta moves each
        # by at most 2^-52 max(1, |eta|) relative
        for n_lambda3 in np.geomspace(1e-300, 1e300, 601):
            try:
                point = solve_point(model, n_lambda3=float(n_lambda3))
            except FugacityOverflowError:
                with pytest.raises(FugacityOverflowError):
                    solve_point(model, eta=solve_fugacity(float(n_lambda3), model))
                continue
            by_eta = solve_point(model, eta=point.eta)
            bound = 4.0 * 2.0**-52 * max(1.0, abs(point.eta))
            for field in ("n_lambda3", "energy_density", "pressure"):
                got, expected = getattr(point, field), getattr(by_eta, field)
                assert math.isclose(got, expected, rel_tol=bound), (n_lambda3, field)
            assert math.isclose(point.n_lambda3, n_lambda3, rel_tol=1e-12)

    def test_requires_exactly_one_coordinate(self):
        with pytest.raises(ValueError):
            solve_point(EXCLUSIVE)
        with pytest.raises(ValueError):
            solve_point(EXCLUSIVE, eta=1.0, n_lambda3=1.0)

    def test_fugacity_overflow_is_a_numerics_error(self):
        # the moments grow like eta^{5/2} and fit a double; only e^eta does not
        point = solve_point(EXCLUSIVE, eta=800.0)
        assert math.isclose(point.n_lambda3, 17043.697, rel_tol=1e-7)
        assert math.isclose(point.energy_density, 8188125.8, rel_tol=1e-7)
        assert math.isclose(point.pressure, 5458750.6, rel_tol=1e-7)
        with pytest.raises(FugacityOverflowError, match="overflows"):
            point.fugacity
        with pytest.raises(NumericsError, match="overflows"):
            pressure(709.5, BOLTZMANN)  # e^eta is finite, 2 e^eta is not

    def test_largest_classical_point(self):
        # 2 u overflows a double at eta = 708, while n, u and p do not
        point = solve_point(BOLTZMANN, eta=708.0)
        assert point.n_lambda3 == point.pressure == 2.0 * math.exp(708.0)
        assert point.energy_density == 3.0 * math.exp(708.0)

    def test_underflow_is_a_numerics_error(self):
        # n = g e^eta leaves the double range below eta ~ -745
        assert solve_point(EXCLUSIVE, eta=-744.0).n_lambda3 > 0.0
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            with pytest.raises(NumericsError, match="a moment at eta = -800 underflows a double"):
                solve_point(model, eta=-800.0)

    @pytest.mark.parametrize("moment", [density, energy_density, pressure])
    @pytest.mark.parametrize("model", [EXCLUSIVE, STANDARD_FD, BOLTZMANN])
    def test_forward_moment_refuses_a_zero(self, moment, model):
        assert 0.0 < moment(-744.0, model) < 1e-300  # subnormal, still returned
        with pytest.raises(NumericsError, match="a moment at eta = -800 underflows a double"):
            moment(-800.0, model)

    def test_overflow_is_judged_per_moment(self):
        # 2 e^709 fits a double, 3 e^709 does not
        assert density(709.0, BOLTZMANN) == 2.0 * math.exp(709.0)
        assert pressure(709.0, BOLTZMANN) == 2.0 * math.exp(709.0)
        with pytest.raises(FugacityOverflowError):
            energy_density(709.0, BOLTZMANN)
        # n ~ 1e300 needs eta ~ 1e200, where u ~ eta^{5/2} overflows
        eta = solve_fugacity(1e300, EXCLUSIVE)
        assert math.isclose(density(eta, EXCLUSIVE), 1e300, rel_tol=1e-12)
        with pytest.raises(FugacityOverflowError):
            energy_density(eta, EXCLUSIVE)

    def test_point_validation_rejects_inconsistent_pressure(self):
        # p = (2/3) u holds to 1e-13 relative, where the kernel meets about 6e-15,
        # or to one step of 2^-1074 where a subnormal p has fewer digits than that
        step = math.ulp(0.0)
        for energy_density, pressure in [(1.0, 1.0), (1.5, 1.0 + 1e-12),
                                         (1503 * step, 1000 * step)]:  # two steps apart
            with pytest.raises(ValueError, match="p = ") as failure:
                ThermoPoint(eta=0.0, n_lambda3=1.0, energy_density=energy_density,
                            pressure=pressure, model=EXCLUSIVE)
            assert isinstance(failure.value, NumericsError)
        for energy_density, pressure in [(1.5, 1.0 + 1e-14), (1.5e-315, 1e-315),
                                         (1500 * step, 1001 * step)]:  # one step apart
            ThermoPoint(eta=0.0, n_lambda3=1.0, energy_density=energy_density,
                        pressure=pressure, model=EXCLUSIVE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eta", "n_lambda3", "energy_density", "pressure"])
    def test_point_validation_rejects_non_finite_fields(self, field, bad):
        # a consistent point, p = (2/3) u, with one field replaced
        fields = dict(eta=0.0, n_lambda3=1.0, energy_density=1.5, pressure=1.0)
        ThermoPoint(**fields, model=EXCLUSIVE)
        fields[field] = bad
        message = "eta must be finite" if field == "eta" else "must be positive and finite"
        with pytest.raises(ValueError, match=message) as failure:
            ThermoPoint(**fields, model=EXCLUSIVE)
        assert not isinstance(failure.value, NumericsError)
