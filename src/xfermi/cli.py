"""Command line front end.

Every subcommand prints a small table of named quantities, each tagged
with how it was obtained: ``quadrature``, ``series``, ``closed-form``,
``reference`` (a quoted comparison constant), ``enumeration``,
``monte-carlo``, or ``ode``.  Analytic claims and their numerical
cross-checks therefore sit side by side in the output.

No run loads a module that its subcommand does not use: each handler imports
its own, so ``occupation``, ``fermi`` and ``star`` run without numpy.

Output is deterministic: the same invocation (and, for ``oracle``, the
same seed) produces byte-identical output, which the test suite relies
on.  Exit codes: 0 success, 1 usage error, 2 numerical failure, 141
(128 + SIGPIPE) when the reader of stdout goes away.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import re
import sys
from typing import NoReturn, Sequence

from . import __version__
from .constants import CODATA
from .numerics import NumericsError, positive_double, positive_finite
from .occupancy import (
    BOLTZMANN,
    EXCLUSIVE,
    MODELS,
    STANDARD_FD,
    degeneracy_pressure,
    fermi_energy,
    ground_state_energy,
    occupation,
    thermal_wavelength,
)

_LONG_HEADER = ["coord", "quantity", "value", "provenance", "statistics"]
_COMPARE_HEADER = ["quantity", "exclusive", "fd", "boltzmann", "provenance"]

_CSV_FMT = "%.10g"
_TABLE_FMT = "%.6g"


class UsageError(Exception):
    """Bad command line or config input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every token that parses as a negative float is a value, never a flag;
        # argparse's own test misses -1e3 and -inf
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse would exit(2); route through main()
        raise UsageError(message)


# ---------------------------------------------------------------- output

def _cell(value, fmt: str) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt % value
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        # the csv precision; RFC 8259 has no inf or nan, so those print as null
        return float(f"{value:.10g}") if math.isfinite(value) else None
    return value


def _emit(fmt: str, meta: dict, header: list[str], records: list[list]) -> None:
    out = sys.stdout
    if fmt == "csv":
        for key, value in meta.items():
            out.write(f"# {key}={_cell(value, _CSV_FMT)}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            writer.writerow([_cell(v, _CSV_FMT) for v in rec])
    elif fmt == "json":
        import itertools
        import json

        payload = {
            "meta": {k: _json_value(v) for k, v in meta.items()},
            "rows": [dict(zip(header, map(_json_value, rec))) for rec in records],
        }
        # the encoder yields a chunk per token: write them in slices, not one by one
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        while batch := list(itertools.islice(chunks, 8192)):
            out.write("".join(batch))
        out.write("\n")
    else:
        for key, value in meta.items():
            out.write(f"{key} = {_cell(value, _TABLE_FMT)}\n")
        cells = [header] + [[_cell(v, _TABLE_FMT) for v in rec] for rec in records]
        widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
        for i, row in enumerate(cells):
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            out.write("\n")
            if i == 0:
                out.write("  ".join("-" * w for w in widths) + "\n")


# ------------------------------------------------------------- resolution

def _load_config(path: str) -> list[str]:
    """The file's ``key=value`` lines as ``--key=value`` tokens for the parser."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        tokens.append(f"--{key.strip()}={value.strip()}")
    return tokens


_MAX_SWEEP_POINTS = 10**6


def _coords(args, var: str, default=None) -> list[float]:
    """Values of the coordinate flag ``--var``: its one value, or the ``--sweep`` grid."""
    scalar = getattr(args, var.replace("-", "_"))
    if args.sweep is None:
        _refuse(args, ("sweep-scale",), "needs --sweep")
        if scalar is not None:
            return [scalar]
        if default is None:
            raise UsageError(f"--{var} is required")
        return [float(default)]
    svar, raw_start, raw_stop, raw_points = args.sweep
    try:
        start, stop, points = float(raw_start), float(raw_stop), int(raw_points)
    except ValueError as exc:
        raise UsageError(f"bad --sweep argument: {exc}") from None
    if points < 2:
        raise UsageError("--sweep needs at least 2 points")
    if points > _MAX_SWEEP_POINTS:  # every row is held until output
        raise UsageError(f"--sweep takes at most {_MAX_SWEEP_POINTS} points, not {points}")
    if svar != var:
        raise UsageError(f"this command sweeps over {var!r}, not {svar!r}")
    if scalar is not None:
        raise UsageError(f"--{var} conflicts with --sweep {var}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"--sweep endpoints must be finite, not {raw_start} and {raw_stop}")
    import numpy as np

    if args.sweep_scale == "log":
        if start <= 0 or stop <= 0:
            raise UsageError("log sweeps need positive endpoints")
        return [float(v) for v in np.geomspace(start, stop, points)]
    if not math.isfinite(stop - start):
        raise UsageError(f"--sweep span from {raw_start} to {raw_stop} overflows a double")
    return [float(v) for v in np.linspace(start, stop, points)]


def _refuse(args, flags: Sequence[str], reason: str) -> None:
    """Usage error for the first of ``flags`` given, which this run would ignore."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise UsageError(f"--{flag} {reason}")


def _si_mass(args, meta):
    """The particle mass of an --si run in kg (default electron)."""
    meta["mass"] = CODATA.m_e if args.mass is None else args.mass
    positive_finite("--mass", meta["mass"])
    return meta["mass"]


# -------------------------------------------------------------- commands
# Each handler yields rows (coord, quantity, value, provenance[, statistics]),
# or the compare header's columns, and may add meta lines.

def _cmd_occupation(args, meta):
    for x in _coords(args, "x", 0.0):
        yield x, "occupation", occupation(x, args.model), "closed-form"


def _moment_route(model) -> str:
    """Provenance of a row built on the moment integrals: the classical
    model's (blocking 0) are the closed form g e^eta (1, 3/2, 1, 1)."""
    return "quadrature" if model.blocking else "closed-form"


def _point_rows(coord: float, point, eta_provenance: str):
    route = _moment_route(point.model)
    yield coord, "eta", point.eta, eta_provenance
    yield coord, "fugacity", point.fugacity, eta_provenance
    yield coord, "n_lambda3", point.n_lambda3, route
    yield coord, "energy_density", point.energy_density, route
    yield coord, "pressure", point.pressure, route
    yield coord, "pv_over_nkt", point.pressure / point.n_lambda3, route
    yield coord, "u_per_particle", point.energy_density / point.n_lambda3, route


def _cmd_eos(args, meta):
    from .eos import solve_point

    if args.si:
        _refuse(args, ("eta", "n-lambda3"), "does not apply with --si")
        if args.temperature is None:
            raise UsageError("--si needs --temperature (kelvin)")
        meta["temperature"] = temperature = args.temperature
        mass = _si_mass(args, meta)
        wavelength = thermal_wavelength(mass, temperature, CODATA)
        try:
            volume = wavelength**3
        except OverflowError:  # the scale below then underflows
            volume = math.inf
        scale = CODATA.k_B * temperature / volume if volume else math.inf
        positive_double(scale, "k_B T / lambda^3 at lambda = %r", wavelength)
        route = _moment_route(args.model)
        si_row = "%s at --density %r and --temperature %r"
        for n_si in _coords(args, "density"):
            positive_finite("--density", n_si)
            # a valid density can still leave the double range times lambda^3
            x = positive_double(n_si * volume, "n lambda^3 at --density %r", n_si)
            point = solve_point(args.model, n_lambda3=x)
            mu = point.eta * CODATA.k_B * temperature
            p_si = positive_double(point.pressure * scale, si_row, "the pressure", n_si,
                                   temperature)
            u_si = positive_double(point.energy_density * scale, si_row, "the energy density",
                                   n_si, temperature)
            yield n_si, "eta", point.eta, route
            yield n_si, "n_lambda3", point.n_lambda3, route
            yield n_si, "chemical_potential_joule", mu, route
            yield n_si, "pressure_pascal", p_si, route
            yield n_si, "energy_density_joule_m3", u_si, route
        return
    _refuse(args, ("density", "temperature", "mass"), "needs --si")
    if args.n_lambda3 is None and (args.sweep or [None])[0] != "n-lambda3":
        for eta in _coords(args, "eta", 0.0):
            yield from _point_rows(eta, solve_point(args.model, eta=eta), "closed-form")
    elif args.eta is not None:
        raise UsageError("give either --eta or --n-lambda3, not both")
    else:
        for x in _coords(args, "n-lambda3"):
            yield from _point_rows(x, solve_point(args.model, n_lambda3=x),
                                   _moment_route(args.model))


def _cmd_virial(args, meta):
    from .eos import fugacity_series, solve_point, virial_pressure

    route = _moment_route(args.model)
    for x in _coords(args, "n-lambda3", 0.1):
        point = solve_point(args.model, n_lambda3=x)
        yield x, "pv_over_nkt_series", virial_pressure(x, args.model), "series"
        yield x, "pv_over_nkt", point.pressure / point.n_lambda3, route
        yield x, "fugacity_series", fugacity_series(x, args.model), "series"
        yield x, "fugacity", point.fugacity, route


def _cmd_fermi(args, meta):
    if args.si:
        mass = _si_mass(args, meta)
        for n_si in _coords(args, "density"):
            # fermi_energy is a pure power law, so feeding an SI density
            # and scaling by hbar^2/m lands in joules
            e_f = positive_double(fermi_energy(n_si, args.model) * CODATA.hbar**2 / mass,
                                  "the Fermi energy at --density %r and --mass %r", n_si, mass)
            yield n_si, "fermi_energy_joule", e_f, "closed-form"
            yield n_si, "fermi_energy_ev", e_f / CODATA.e_charge, "closed-form"
            yield n_si, "fermi_temperature_kelvin", e_f / CODATA.k_B, "closed-form"
            yield (n_si, "degeneracy_pressure_pascal",
                   degeneracy_pressure(n_si, e_f), "closed-form")
        return
    _refuse(args, ("mass",), "needs --si")
    for n in _coords(args, "density", 1.0):
        e_f = fermi_energy(n, args.model)
        yield n, "fermi_energy", e_f, "closed-form"
        yield n, "fermi_temperature", e_f, "closed-form"  # k_B = 1
        yield n, "energy_per_particle", ground_state_energy(1.0, e_f), "closed-form"
        yield n, "degeneracy_pressure", degeneracy_pressure(n, e_f), "closed-form"


def _cmd_sommerfeld(args, meta):
    from .degenerate import REFERENCE_A1, REFERENCE_A2, sommerfeld_constants

    a = args.model.blocking
    result = sommerfeld_constants(a)
    yield a, "a1", result.a1, "quadrature"
    yield a, "a1_closed_form", result.closed_form_a1, "closed-form"
    yield a, "a2", result.a2, "quadrature"
    yield a, "a2_closed_form", result.closed_form_a2, "closed-form"
    if args.model is EXCLUSIVE:
        yield a, "a1_reference", REFERENCE_A1, "reference"
        yield a, "a2_reference", REFERENCE_A2, "reference"


def _cmd_mu_of_t(args, meta):
    from .degenerate import (
        REFERENCE_A1,
        REFERENCE_A2,
        chemical_potential_exact,
        chemical_potential_series,
        mu_series_coefficients,
    )

    model = args.model
    for t in _coords(args, "t", 0.05):
        yield t, "mu_over_ef", chemical_potential_exact(t, model), "quadrature"
        yield t, "mu_over_ef_series", chemical_potential_series(t, model), "series"
    slope, curvature = mu_series_coefficients(model)
    yield None, "slope_coefficient", slope, "closed-form"
    yield None, "curvature_coefficient", curvature, "closed-form"
    if model is EXCLUSIVE:
        # quoted second-order constant, kept for comparison with the
        # closed form above (which is -pi^2/12)
        yield (None, "curvature_reference",
               9.0 * REFERENCE_A1**2 - REFERENCE_A2 / 2.0, "reference")


def _cmd_heat_capacity(args, meta):
    from .degenerate import (
        REFERENCE_HEAT_COEFFICIENT,
        heat_capacity_series_coefficient,
        specific_heat_exact,
    )

    model = args.model
    for t in _coords(args, "t", 0.02):
        yield t, "heat_coefficient", specific_heat_exact(t, model), "quadrature"
    yield (None, "heat_coefficient_limit",
           heat_capacity_series_coefficient(model), "closed-form")
    yield (None, "heat_coefficient_reference",
           REFERENCE_HEAT_COEFFICIENT[model.name], "reference")


def _cmd_pauli(args, meta):
    from .magnetism import pauli_magnetization

    meta["eta"] = args.eta
    route = _moment_route(args.model)
    for b in _coords(args, "field", 0.5):
        result = pauli_magnetization(args.eta, b, args.model)
        yield b, "n_up", result.n_up, route
        yield b, "n_down", result.n_down, route
        yield b, "magnetization", result.magnetization, route
        yield b, "m_per_particle", result.per_particle, route
        yield b, "tanh_field", math.tanh(b), "closed-form"


def _cmd_landau(args, meta):
    from .magnetism import (
        geometric_level_factor,
        landau_partition_ratio,
        landau_susceptibility,
        small_field_series_factor,
    )

    x = args.n_lambda3
    positive_finite("--n-lambda3", x)
    meta["n_lambda3"] = x
    z = positive_double(x / args.model.weight, "the fugacity at --n-lambda3 %r", x)
    for s in _coords(args, "field", 0.5):
        positive_finite("--field", s)
        yield s, "partition_ratio", landau_partition_ratio(z, s, args.model), "series"
        yield s, "geometric_factor", geometric_level_factor(s), "closed-form"
        yield s, "small_field_factor", small_field_series_factor(s), "series"
    yield None, "chi_reduced", landau_susceptibility(x, args.model), _moment_route(args.model)
    yield None, "chi_leading_order", -1.0 / 3.0, "closed-form"


def _cmd_star(args, meta):
    from .astro import REFERENCE_MASS_RATIO, Regime, eos_coefficient, lane_emden

    k_nr, k_ur = (eos_coefficient(EXCLUSIVE, regime) / eos_coefficient(STANDARD_FD, regime)
                  for regime in (Regime.NON_RELATIVISTIC, Regime.ULTRA_RELATIVISTIC))
    yield None, "k_nr_ratio", k_nr, "closed-form"
    yield None, "k_ur_ratio", k_ur, "closed-form"
    for solution in (lane_emden(1.5), lane_emden(3.0)):
        yield solution.index, "xi1", solution.xi1, "ode"
        yield solution.index, "mass_integral", solution.mass_integral, "ode"
    # one central density and one Lane-Emden solution: the mass goes as K^{3/2}
    yield None, "nr_mass_ratio", k_nr**1.5, "closed-form"
    yield None, "limiting_mass_ratio", k_ur**1.5, "closed-form"
    yield None, "limiting_mass_ratio_closed_form", math.sqrt(2.0), "closed-form"
    yield None, "limiting_mass_ratio_reference", REFERENCE_MASS_RATIO, "reference"


def _cmd_oracle(args, meta):
    import numpy as np

    from .ensemble import (
        LevelSystem,
        _enumerate_sums,
        check_capacity,
        grand_partition_product,
        mc_occupancy,
    )

    model, z = args.model, args.fugacity
    meta.update(levels=args.levels, fugacity=z, samples=args.samples, seed=args.seed)
    if args.seed < 0:  # numpy's own refusal names neither the flag nor the seed
        raise UsageError(f"--seed must be non-negative, not {args.seed}")
    try:  # before the draw, which would allocate a huge count's energies
        check_capacity(args.levels, model)
    except ValueError as exc:
        raise UsageError(f"--levels {args.levels}: {exc}") from None
    rng = np.random.default_rng([args.seed, 0])
    system = LevelSystem(tuple(rng.uniform(0.0, 5.0, args.levels)), model)
    product = grand_partition_product(system, z)  # refuses a bad fugacity
    enumerated, occ_enum = _enumerate_sums(system, z)  # from one enumeration pass
    occ_law = occupation(np.asarray(system.energies) - math.log(z), model)
    yield (None, "log_partition_gap",
           abs(product - enumerated), "enumeration")
    yield (None, "occupancy_gap",
           float(np.max(np.abs(occ_enum - occ_law))), "enumeration")
    for i, energy in enumerate(system.energies[:3]):
        mean, se = mc_occupancy(energy, z, args.samples, args.seed, model, stream=i + 1)
        yield energy, "mc_occupancy", mean, "monte-carlo", se
        # no z-score without a finite, non-zero spread (one sample has se = inf)
        yield (energy, "mc_z_score",
               (mean - occ_law[i]) / se if 0.0 < se < math.inf else None, "monte-carlo")


def _cmd_compare(args, meta):
    from .degenerate import heat_capacity_series_coefficient
    from .eos import density, energy_density, pressure

    at, n0 = args.at, args.density
    positive_finite("--density", n0)
    meta.update(at=at, density=n0)
    # one provenance a row, for the blocking models: the boltzmann column's
    # moments are the closed form g e^eta
    for quantity, fn, provenance in (
        ("occupation", lambda m: occupation(at, m), "closed-form"),
        ("density", lambda m: density(at, m), "quadrature"),
        ("energy_density", lambda m: energy_density(at, m), "quadrature"),
        ("pressure", lambda m: pressure(at, m), "quadrature"),
        ("virial_coefficient",
         lambda m: m.blocking / (m.weight * 4.0 * math.sqrt(2.0)), "closed-form"),
        ("heat_coefficient",
         lambda m: None if m.blocking == 0 else heat_capacity_series_coefficient(m),
         "closed-form"),
        ("fermi_energy",
         lambda m: None if m.blocking == 0 else fermi_energy(n0, m), "closed-form"),
    ):
        yield quantity, *(fn(m) for m in (EXCLUSIVE, STANDARD_FD, BOLTZMANN)), provenance


_HANDLERS = {
    "occupation": _cmd_occupation,
    "eos": _cmd_eos,
    "virial": _cmd_virial,
    "fermi": _cmd_fermi,
    "sommerfeld": _cmd_sommerfeld,
    "mu-of-t": _cmd_mu_of_t,
    "heat-capacity": _cmd_heat_capacity,
    "pauli": _cmd_pauli,
    "landau": _cmd_landau,
    "star": _cmd_star,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


# --------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    """Every flag, choice and default of every subcommand.

    Coordinate flags that ``--sweep`` can replace default to None; the
    handler supplies their default, so a flag given next to a sweep of
    the same coordinate is caught as a conflict.
    """
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--format", choices=("csv", "json", "table"), default="csv",
                      help="output format (default %(default)s)")
    base.add_argument("--config", metavar="PATH",
                      help="file of key=value lines, each read as the flag --key=value; "
                           "flags on the command line override them")

    # the degenerate limit, the step moments and enumeration need blocking > 0
    blocking = tuple(name for name, model in MODELS.items() if model.blocking > 0)
    modeled, blocked = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    for parent, names in ((modeled, tuple(MODELS)), (blocked, blocking)):
        parent.add_argument("--model", choices=names, default="exclusive",
                            help="occupancy model (default %(default)s)")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--sweep", nargs=4, metavar=("VAR", "START", "STOP", "POINTS"),
                       help="evaluate on a grid of the named coordinate")
    sweep.add_argument("--sweep-scale", choices=("linear", "log"),
                       help="grid spacing (default linear)")

    parser = _Parser(
        prog="xfermi",
        description="Thermodynamics of a gas whose orbitals hold at most one fermion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("occupation", parents=[base, modeled, sweep],
                       help="occupation law f(x) = weight/(e^x + blocking)")
    p.add_argument("--x", type=float, help="reduced energy (eps - mu)/kT (default 0)")

    p = sub.add_parser("eos", parents=[base, modeled, sweep],
                       help="reduced equation of state at one point")
    p.add_argument("--eta", type=float, help="reduced chemical potential mu/kT")
    p.add_argument("--n-lambda3", type=float, help="degeneracy parameter n lambda^3")
    p.add_argument("--si", action="store_true",
                   help="SI mode: solve from --density [m^-3] and --temperature [K]")
    p.add_argument("--density", type=float, help="number density in m^-3 (with --si)")
    p.add_argument("--temperature", type=float, help="temperature in kelvin (with --si)")
    p.add_argument("--mass", type=float, help="particle mass in kg (default electron)")

    p = sub.add_parser("virial", parents=[base, modeled, sweep],
                       help="dilute-limit virial and fugacity series vs quadrature")
    p.add_argument("--n-lambda3", type=float, help="degeneracy parameter (default 0.1)")

    p = sub.add_parser("fermi", parents=[base, blocked, sweep],
                       help="Fermi energy and degeneracy pressure at a density")
    p.add_argument("--density", type=float,
                   help="number density (reduced; m^-3 with --si; default 1)")
    p.add_argument("--si", action="store_true", help="report in SI units")
    p.add_argument("--mass", type=float, help="particle mass in kg (default electron)")

    sub.add_parser("sommerfeld", parents=[base, blocked],
                   help="broadened-step moments A1, A2 vs their closed forms")

    p = sub.add_parser("mu-of-t", parents=[base, blocked, sweep],
                       help="chemical potential vs temperature at fixed density")
    p.add_argument("--t", type=float, help="reduced temperature kT/E_F (default 0.05)")

    p = sub.add_parser("heat-capacity", parents=[base, blocked, sweep],
                       help="low-temperature heat-capacity coefficient")
    p.add_argument("--t", type=float, help="reduced temperature kT/E_F (default 0.02)")

    p = sub.add_parser("pauli", parents=[base, modeled, sweep],
                       help="spin magnetization at a reduced field")
    p.add_argument("--eta", type=float, default=0.0,
                   help="reduced chemical potential (default %(default)s)")
    p.add_argument("--field", type=float, help="reduced field mu_B B/kT (default 0.5)")

    p = sub.add_parser("landau", parents=[base, modeled, sweep],
                       help="orbital response, Landau levels summed in closed form")
    p.add_argument("--n-lambda3", type=float, default=0.1,
                   help="degeneracy parameter (default %(default)s)")
    p.add_argument("--field", type=float, help="reduced level spacing / 2 (default 0.5)")

    sub.add_parser("star", parents=[base],
                   help="degenerate-star consequences of the occupancy step")

    p = sub.add_parser("oracle", parents=[base, blocked],
                       help="cross-check closed forms against enumeration and Monte Carlo")
    p.add_argument("--levels", type=int, default=6,
                   help="number of orbital levels (default %(default)s)")
    p.add_argument("--fugacity", type=float, default=0.5,
                   help="fugacity z (default %(default)s)")
    p.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo samples (default %(default)s)")
    # a string default goes through type=int, so a bad XFERMI_SEED is a usage error
    p.add_argument("--seed", type=int, default=os.environ.get("XFERMI_SEED") or "0",
                   help="RNG seed (default: XFERMI_SEED or 0)")

    p = sub.add_parser("compare", parents=[base],
                       help="one quantity per row across all occupancy models")
    p.add_argument("--at", type=float, default=0.0,
                   help="evaluation point: x for the occupation row, eta otherwise "
                        "(default %(default)s)")
    p.add_argument("--density", type=float, default=1.0,
                   help="density for the Fermi row (default %(default)s)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go before the command line's, whose last occurrence wins
            args = parser.parse_args(argv[:1] + _load_config(args.config) + argv[1:])
        meta = {"command": args.command}
        if "model" in args:
            args.model = MODELS[args.model]
            meta["model"] = args.model.name
        header = _COMPARE_HEADER if args.command == "compare" else _LONG_HEADER
        # all rows before the first byte, so an error leaves stdout empty
        records = [[*row] + [None] * (len(header) - len(row))
                   for row in _HANDLERS[args.command](args, meta)]
        _emit(args.format, meta, header, records)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away: send the unflushed rest to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"xfermi: usage error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"xfermi: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"xfermi: usage error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> NoReturn:
    """``main`` for a whole process: no cyclic collector, and ``os._exit`` after
    the flush, skipping the interpreter's teardown and ``atexit``.  An exception
    that escapes ``main`` leaves the normal way, with its traceback."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 141
    os._exit(code)
