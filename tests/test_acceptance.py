"""Acceptance criteria, one test per criterion.

Each test is self-contained: it builds its own inputs, runs both the
closed-form route and the independent numerical route, and checks the
agreement at the quoted tolerance.  The terminal summary hook in
conftest.py prints one PASS/FAIL line per criterion.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from xfermi.astro import (
    REFERENCE_MASS_RATIO,
    Regime,
    eos_coefficient,
    lane_emden,
    white_dwarf_mass,
)
from xfermi.cli import main
from xfermi.degenerate import (
    REFERENCE_A1,
    REFERENCE_A2,
    REFERENCE_HEAT_COEFFICIENT,
    chemical_potential_exact,
    heat_capacity_series_coefficient,
    sommerfeld_constants,
    specific_heat_exact,
)
from xfermi.ensemble import (
    LevelSystem,
    grand_partition_enumerate,
    grand_partition_product,
    mc_occupancy,
    mean_occupancies_enumerate,
)
from xfermi.eos import energy_density, pressure, solve_point, virial_pressure
from xfermi.magnetism import (
    geometric_level_factor,
    landau_susceptibility,
    pauli_magnetization,
)
from xfermi.occupancy import (
    BOLTZMANN,
    EXCLUSIVE,
    STANDARD_FD,
    degeneracy_pressure,
    fermi_energy,
    occupation,
)

from oracles import fermi_sea_density, fixed_density_point, landau_level_sum, lane_emden_rk4

SEED = 20240817


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("XFERMI_SEED", raising=False)


def test_01_enumeration_validates_occupation_law():
    """100 random level systems: brute-force enumeration, the per-level
    product, and the closed-form occupation law agree to 1e-12."""
    rng = np.random.default_rng(SEED)
    for trial in range(100):
        model = EXCLUSIVE if trial % 2 == 0 else STANDARD_FD
        n_levels = int(rng.integers(1, 9))
        energies = tuple(rng.uniform(0.0, 5.0, size=n_levels))
        z = float(rng.uniform(0.1, 2.0))
        system = LevelSystem(energies, model)

        log_product = grand_partition_product(system, z)
        log_enumerated = grand_partition_enumerate(system, z)
        assert abs(log_product - log_enumerated) <= 1e-12

        enumerated = mean_occupancies_enumerate(system, z)
        law = occupation(np.asarray(energies) - math.log(z), model)
        assert np.max(np.abs(enumerated - law)) <= 1e-12


def test_02_monte_carlo_matches_law_within_three_sigma():
    """20 sampled levels at a million draws each: every Monte Carlo mean
    lands within three standard errors of the occupation law."""
    point_rng = np.random.default_rng(11)
    for i in range(20):
        model = EXCLUSIVE if i % 2 == 0 else STANDARD_FD
        energy = float(point_rng.uniform(0.0, 5.0))
        z = float(point_rng.uniform(0.1, 2.0))
        mean, err = mc_occupancy(energy, z, 1_000_000, seed=SEED, model=model, stream=i)
        exact = occupation(energy - math.log(z), model)
        assert abs(mean - exact) <= 3.0 * err


def test_03_pressure_is_two_thirds_energy_density():
    """Grand-potential and energy-moment integrals obey p = (2/3) u to 1e-8."""
    for eta in (-5.0, -1.0, 0.0, 2.0, 5.0, 10.0):
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            p = pressure(eta, model)
            u = energy_density(eta, model)
            assert math.isclose(p, 2.0 * u / 3.0, rel_tol=1e-8)


def test_04_virial_series_tracks_exact_pressure():
    """Second-order virial form stays within 0.5 (n lambda^3)^2 of the exact
    PV/NkT, and the single-occupancy correction doubles the standard one."""
    for model in (EXCLUSIVE, STANDARD_FD):
        for v in (0.01, 0.05, 0.1, 0.2):
            point = solve_point(model, n_lambda3=v)
            exact = point.pressure / point.n_lambda3
            assert abs(exact - virial_pressure(v, model)) <= 0.5 * v * v
    excl = virial_pressure(0.1, EXCLUSIVE) - 1.0
    std = virial_pressure(0.1, STANDARD_FD) - 1.0
    assert math.isclose(excl, 2.0 * std, rel_tol=1e-12)
    assert excl > std


def test_05_fermi_scale_identities():
    """Fermi-energy enhancement 2^{2/3}, density round trip, polytrope
    cross-check, and the finite-T pressure approaching the T = 0 value."""
    n = 0.37
    ratio = fermi_energy(n, EXCLUSIVE) / fermi_energy(n, STANDARD_FD)
    assert math.isclose(ratio, 2.0 ** (2.0 / 3.0), rel_tol=1e-12)
    for model in (EXCLUSIVE, STANDARD_FD):
        e_f = fermi_energy(n, model)
        assert math.isclose(fermi_sea_density(e_f, model), n, rel_tol=1e-12)
        k_nr = eos_coefficient(model, Regime.NON_RELATIVISTIC)
        assert math.isclose(
            degeneracy_pressure(n, e_f), k_nr * n ** (5.0 / 3.0), rel_tol=1e-12
        )
    point = solve_point(EXCLUSIVE, n_lambda3=fixed_density_point(0.01, EXCLUSIVE))
    assert math.isclose(point.pressure / point.n_lambda3 * 0.01 / 0.4, 1.0, rel_tol=0.01)


def test_06_sommerfeld_constants_cross_checked():
    """Step moments by quadrature agree with closed forms to 1e-10 and with
    the quoted constants 0.34657 / 1.88516 to 1e-5."""
    constants = sommerfeld_constants()
    assert abs(constants.a1 - constants.closed_form_a1) <= 1e-10
    assert abs(constants.a2 - constants.closed_form_a2) <= 1e-10
    assert abs(constants.a1 - REFERENCE_A1) <= 1e-5
    assert abs(constants.a2 - REFERENCE_A2) <= 1e-5


def test_07_chemical_potential_slope_and_curvature():
    """Exact mu(T) at fixed density: linear slope -ln 2 (0.5%), curvature
    -pi^2/12 (2%), and strict decrease over a 30-point grid."""

    def slope(t):
        return (chemical_potential_exact(t, EXCLUSIVE) - 1.0) / t

    extrapolated = 2.0 * slope(0.002) - slope(0.004)
    assert math.isclose(extrapolated, -math.log(2.0), rel_tol=5e-3)

    ts = np.linspace(0.005, 0.02, 6)
    residuals = np.array(
        [
            (chemical_potential_exact(float(t), EXCLUSIVE) - 1.0 + math.log(2.0) * t)
            / t**2
            for t in ts
        ]
    )
    curvature = np.polyfit(ts, residuals, 1)[1]
    assert math.isclose(curvature, -math.pi**2 / 12.0, rel_tol=0.02)

    grid = np.linspace(0.01, 0.3, 30)
    mus = [chemical_potential_exact(float(t), EXCLUSIVE) for t in grid]
    assert all(b < a for a, b in zip(mus, mus[1:]))


def test_08_heat_capacity_coefficient_is_universal():
    """Numeric C/(N k_B t) approaches pi^2/2 within 1% for both blocking
    values; the quoted 5.55 is off by more than 10% and is kept only as a
    recorded reference."""
    exact_limit = math.pi**2 / 2.0
    for model in (EXCLUSIVE, STANDARD_FD):
        assert math.isclose(heat_capacity_series_coefficient(model), exact_limit, rel_tol=1e-14)
        assert math.isclose(specific_heat_exact(0.02, model), exact_limit, rel_tol=0.01)
    quoted = REFERENCE_HEAT_COEFFICIENT["exclusive"]
    assert abs(quoted - exact_limit) / exact_limit > 0.10


def test_09_pauli_magnetization_saturation_law():
    """Dilute M/(N mu_B) follows tanh(b) to 0.1% for every model, is odd in
    the field exactly, and the models agree with each other to 0.1%."""
    eta = math.log(1e-4)
    for b in (0.1, 0.3, 1.0):
        per_particle = {}
        for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
            result = pauli_magnetization(eta, b, model)
            per_particle[model.name] = result.per_particle
            assert math.isclose(result.per_particle, math.tanh(b), rel_tol=1e-3)
            mirrored = pauli_magnetization(eta, -b, model)
            assert mirrored.magnetization == -result.magnetization
        assert math.isclose(
            per_particle["exclusive"], per_particle["fd"], rel_tol=1e-3
        )


def test_10_landau_susceptibility_reaches_dilute_limit():
    """The closed form -(dn/deta)/(3 g z), the s^2 term of the level sum,
    gives chi kT/(mu_B^2 n) within 1% of -1/3 for both models; the
    linearized level sum matches the geometric factor 1/(2 sinh s) to 1e-10."""
    for model in (EXCLUSIVE, STANDARD_FD):
        chi = landau_susceptibility(0.01, model)
        assert math.isclose(chi, -1.0 / 3.0, rel_tol=0.01)
    for s in (0.5, 1.0, 2.0):
        numeric = landau_level_sum(1e-4, s, linearized=True) / (2.0 * s)
        assert math.isclose(numeric, geometric_level_factor(s), rel_tol=1e-10)


def test_11_stellar_structure_pipeline(capsys):
    """Lane-Emden solver against analytic cases and a fixed-step RK4 route; the
    limiting-mass ratio comes out sqrt(2) and the report also quotes 1.6."""
    zero = lane_emden(0.0)
    assert math.isclose(zero.xi1, math.sqrt(6.0), abs_tol=1e-6)
    one = lane_emden(1.0)
    assert math.isclose(one.xi1, math.pi, abs_tol=1e-6)

    xi1, _ = lane_emden_rk4(3.0, step=1e-4)
    assert math.isclose(lane_emden(3.0).xi1, xi1, rel_tol=1e-5)

    # both laws through EOS coefficient -> Lane-Emden -> mass, at unit density and G = 1
    nr, ur = lane_emden(1.5), lane_emden(3.0)
    k_nr, k_ur = ([eos_coefficient(m, regime) for m in (EXCLUSIVE, STANDARD_FD)]
                  for regime in (Regime.NON_RELATIVISTIC, Regime.ULTRA_RELATIVISTIC))
    nr_masses = [white_dwarf_mass(k, 1.0, nr) for k in k_nr]
    ur_masses = [white_dwarf_mass(k, 1.0, ur) for k in k_ur]
    assert math.isclose(ur_masses[0] / ur_masses[1], math.sqrt(2.0), rel_tol=1e-10)
    assert math.isclose(white_dwarf_mass(k_ur[0], 100.0, ur), ur_masses[0], rel_tol=1e-8)
    assert math.isclose(k_nr[0] / k_nr[1], 2.0 ** (2.0 / 3.0), rel_tol=1e-10)
    assert math.isclose(k_ur[0] / k_ur[1], 2.0 ** (1.0 / 3.0), rel_tol=1e-10)
    assert math.isclose(nr_masses[0] / nr_masses[1], 2.0, rel_tol=1e-10)
    assert REFERENCE_MASS_RATIO == 1.6

    assert main(["star"]) == 0
    report = capsys.readouterr().out
    assert "limiting_mass_ratio_reference,1.6,reference" in report


def test_12_cli_output_is_deterministic(capsys):
    """Identical invocations produce byte-identical output, in process and
    across separate interpreter runs."""
    outputs = []
    for _ in range(2):
        assert main(["eos", "--eta", "0.5", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # and it parses

    for _ in range(2):
        assert main(["oracle", "--samples", "20000"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]

    runs = [
        subprocess.run(
            [sys.executable, "-m", "xfermi", "compare", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
