"""Command line front end.

Every subcommand prints a small table of named quantities, each tagged
with how it was obtained: ``quadrature``, ``series``, ``closed-form``,
``reference`` (a quoted comparison constant), ``enumeration``,
``monte-carlo``, or ``ode``.  Analytic claims and their numerical
cross-checks therefore sit side by side in the output.

Output is deterministic: the same invocation (and, for ``oracle``, the
same seed) produces byte-identical output, which the test suite relies
on.  Exit codes: 0 success, 1 usage error, 2 numerical failure, 141
(128 + SIGPIPE) when the reader of stdout goes away.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .astro import REFERENCE_MASS_RATIO, compare_star_models
from .constants import codata
from .degenerate import (
    REFERENCE_A1,
    REFERENCE_A2,
    REFERENCE_HEAT_COEFFICIENT,
    chemical_potential_exact,
    chemical_potential_series,
    degeneracy_pressure,
    fermi_energy,
    ground_state_energy,
    heat_capacity_series_coefficient,
    mu_series_coefficients,
    sommerfeld_constants,
    specific_heat_exact,
)
from .ensemble import (
    LevelSystem,
    grand_partition_enumerate,
    grand_partition_product,
    mc_occupancy,
    mean_occupancies_enumerate,
)
from .eos import (
    density,
    energy_density,
    fugacity_series,
    pressure,
    solve_point,
    virial_pressure,
)
from .magnetism import (
    geometric_level_factor,
    landau_partition_ratio,
    landau_susceptibility,
    pauli_magnetization,
    small_field_series_factor,
)
from .numerics import NumericsError
from .occupancy import (
    BOLTZMANN,
    EXCLUSIVE,
    MODELS,
    STANDARD_FD,
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
        return float(f"{value:.10g}")  # match the csv precision
    return value


def _emit(fmt: str, meta: dict, header: list[str], records: list[list], out=None) -> None:
    out = sys.stdout if out is None else out
    if fmt == "csv":
        for key, value in meta.items():
            out.write(f"# {key}={_cell(value, _CSV_FMT)}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            writer.writerow([_cell(v, _CSV_FMT) for v in rec])
    elif fmt == "json":
        payload = {
            "meta": {k: _json_value(v) for k, v in meta.items()},
            "rows": [dict(zip(header, map(_json_value, rec))) for rec in records],
        }
        json.dump(payload, out, indent=2)
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


def _coords(args, var: str, default=None) -> list[float]:
    """Values of the coordinate flag ``--var``: its one value, or the ``--sweep`` grid."""
    scalar = getattr(args, var.replace("-", "_"))
    if args.sweep is None:
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
    if svar != var:
        raise UsageError(f"this command sweeps over {var!r}, not {svar!r}")
    if scalar is not None:
        raise UsageError(f"--{var} conflicts with --sweep {var}")
    if args.sweep_scale == "log":
        if start <= 0 or stop <= 0:
            raise UsageError("log sweeps need positive endpoints")
        return [float(v) for v in np.geomspace(start, stop, points)]
    return [float(v) for v in np.linspace(start, stop, points)]


def _require_blocking(args, what: str) -> None:
    if args.model.blocking == 0.0:
        raise UsageError(f"{what} needs a blocking model (exclusive or fd)")


def _refuse(args, flags: Sequence[str], reason: str) -> None:
    """Usage error for the first of ``flags`` given, which this run would ignore."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise UsageError(f"--{flag} {reason}")


def _si_mass(args, meta):
    """CODATA constants and the particle mass of an --si run (default electron)."""
    constants = codata()
    if args.mass is not None and not (args.mass > 0 and math.isfinite(args.mass)):
        raise UsageError("--mass must be positive and finite")
    meta["mass"] = constants.m_e if args.mass is None else args.mass
    return constants, meta["mass"]


# -------------------------------------------------------------- commands
# Each handler yields rows (coord, quantity, value, provenance[, statistics]),
# or the compare header's columns, and may add meta lines.

def _cmd_occupation(args, meta):
    for x in _coords(args, "x", 0.0):
        yield x, "occupation", occupation(x, args.model), "closed-form"


def _point_rows(coord: float, point, eta_provenance: str):
    yield coord, "eta", point.eta, eta_provenance
    yield coord, "fugacity", point.fugacity, eta_provenance
    yield coord, "n_lambda3", point.n_lambda3, "quadrature"
    yield coord, "energy_density", point.energy_density, "quadrature"
    yield coord, "pressure", point.pressure, "quadrature"
    yield coord, "pv_over_nkt", point.pressure / point.n_lambda3, "quadrature"
    yield coord, "u_per_particle", point.energy_density / point.n_lambda3, "quadrature"


def _cmd_eos(args, meta):
    if args.si:
        _refuse(args, ("eta", "n-lambda3"), "does not apply with --si")
        if args.temperature is None:
            raise UsageError("--si needs --temperature (kelvin)")
        meta["temperature"] = temperature = args.temperature
        constants, mass = _si_mass(args, meta)
        wavelength = thermal_wavelength(mass, temperature, constants)
        try:
            volume = wavelength**3
            scale = constants.k_B * temperature / volume
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise NumericsError(
                f"k_B T / lambda^3 leaves the double range at lambda = {wavelength!r}")
        for n_si in _coords(args, "density"):
            point = solve_point(args.model, n_lambda3=n_si * volume)
            mu = point.eta * constants.k_B * temperature
            yield n_si, "eta", point.eta, "quadrature"
            yield n_si, "n_lambda3", point.n_lambda3, "quadrature"
            yield n_si, "chemical_potential_joule", mu, "quadrature"
            yield n_si, "pressure_pascal", point.pressure * scale, "quadrature"
            yield n_si, "energy_density_joule_m3", point.energy_density * scale, "quadrature"
        return
    _refuse(args, ("density", "temperature", "mass"), "needs --si")
    if args.n_lambda3 is None and (args.sweep or [None])[0] != "n-lambda3":
        for eta in _coords(args, "eta", 0.0):
            yield from _point_rows(eta, solve_point(args.model, eta=eta), "closed-form")
    elif args.eta is not None:
        raise UsageError("give either --eta or --n-lambda3, not both")
    else:
        for x in _coords(args, "n-lambda3"):
            yield from _point_rows(x, solve_point(args.model, n_lambda3=x), "quadrature")


def _cmd_virial(args, meta):
    for x in _coords(args, "n-lambda3", 0.1):
        point = solve_point(args.model, n_lambda3=x)
        yield x, "pv_over_nkt_series", virial_pressure(x, args.model), "series"
        yield x, "pv_over_nkt", point.pressure / point.n_lambda3, "quadrature"
        yield x, "fugacity_series", fugacity_series(x, args.model), "series"
        yield x, "fugacity", point.fugacity, "quadrature"


def _cmd_fermi(args, meta):
    _require_blocking(args, "the Fermi scale")
    if args.si:
        constants, mass = _si_mass(args, meta)
        for n_si in _coords(args, "density"):
            # fermi_energy is a pure power law, so feeding an SI density
            # and scaling by hbar^2/m lands in joules
            e_f = fermi_energy(n_si, args.model) * constants.hbar**2 / mass
            yield n_si, "fermi_energy_joule", e_f, "closed-form"
            yield n_si, "fermi_energy_ev", e_f / constants.e_charge, "closed-form"
            yield n_si, "fermi_temperature_kelvin", e_f / constants.k_B, "closed-form"
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
    _require_blocking(args, "the broadened-step moments")
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
    _require_blocking(args, "the chemical-potential expansion")
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
    _require_blocking(args, "the heat-capacity expansion")
    model = args.model
    for t in _coords(args, "t", 0.02):
        yield t, "heat_coefficient", specific_heat_exact(t, model), "quadrature"
    yield (None, "heat_coefficient_limit",
           heat_capacity_series_coefficient(model), "closed-form")
    yield (None, "heat_coefficient_reference",
           REFERENCE_HEAT_COEFFICIENT[model.name], "reference")


def _cmd_pauli(args, meta):
    meta["eta"] = args.eta
    for b in _coords(args, "field", 0.5):
        result = pauli_magnetization(args.eta, b, args.model)
        yield b, "n_up", result.n_up, "quadrature"
        yield b, "n_down", result.n_down, "quadrature"
        yield b, "magnetization", result.magnetization, "quadrature"
        yield b, "m_per_particle", result.per_particle, "quadrature"
        yield b, "tanh_field", math.tanh(b), "closed-form"


def _cmd_landau(args, meta):
    x = args.n_lambda3
    if x <= 0:
        raise UsageError("n_lambda3 must be positive")
    meta["n_lambda3"] = x
    z = x / args.model.weight
    for s in _coords(args, "field", 0.5):
        if s <= 0:
            raise UsageError("field must be positive")
        yield s, "partition_ratio", landau_partition_ratio(z, s, args.model), "series"
        yield s, "geometric_factor", geometric_level_factor(s), "closed-form"
        yield s, "small_field_factor", small_field_series_factor(s), "series"
    yield None, "chi_reduced", landau_susceptibility(x, args.model), "quadrature"
    yield None, "chi_leading_order", -1.0 / 3.0, "closed-form"


def _cmd_star(args, meta):
    comparison = compare_star_models()
    yield None, "k_nr_ratio", comparison.k_nr_ratio, "closed-form"
    yield None, "k_ur_ratio", comparison.k_ur_ratio, "closed-form"
    for solution in (comparison.nr_solution, comparison.ur_solution):
        yield solution.index, "xi1", solution.xi1, "ode"
        yield solution.index, "mass_integral", solution.mass_integral, "ode"
    yield None, "nr_mass_ratio", comparison.nr_mass_ratio, "ode"
    yield None, "limiting_mass_ratio", comparison.limiting_mass_ratio, "ode"
    yield None, "limiting_mass_ratio_closed_form", math.sqrt(2.0), "closed-form"
    yield None, "limiting_mass_ratio_reference", REFERENCE_MASS_RATIO, "reference"


def _cmd_oracle(args, meta):
    _require_blocking(args, "ensemble enumeration")
    model, z = args.model, args.fugacity
    meta.update(levels=args.levels, fugacity=z, samples=args.samples, seed=args.seed)
    rng = np.random.default_rng([args.seed, 0])
    system = LevelSystem(tuple(rng.uniform(0.0, 5.0, args.levels)), model)
    product = grand_partition_product(system, z)
    enumerated = grand_partition_enumerate(system, z)
    occ_enum = mean_occupancies_enumerate(system, z)
    occ_law = np.array(
        [occupation(e - math.log(z), model) for e in system.energies]
    )
    yield (None, "log_partition_gap",
           abs(product.log_value - enumerated.log_value), "enumeration")
    yield (None, "occupancy_gap",
           float(np.max(np.abs(occ_enum - occ_law))), "enumeration")
    for i, energy in enumerate(system.energies[:3]):
        mean, se = mc_occupancy(energy, z, args.samples, args.seed, model, stream=i + 1)
        yield energy, "mc_occupancy", mean, "monte-carlo", se
        yield (energy, "mc_z_score",
               None if se == 0.0 else (mean - occ_law[i]) / se, "monte-carlo")


def _cmd_compare(args, meta):
    at, n0 = args.at, args.density
    if n0 <= 0:
        raise UsageError("--density must be positive")
    meta.update(at=at, density=n0)
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

    modeled = argparse.ArgumentParser(add_help=False)
    modeled.add_argument("--model", choices=tuple(MODELS), default="exclusive",
                         help="occupancy model (default %(default)s)")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--sweep", nargs=4, metavar=("VAR", "START", "STOP", "POINTS"),
                       help="evaluate on a grid of the named coordinate")
    sweep.add_argument("--sweep-scale", choices=("linear", "log"), default="linear",
                       help="grid spacing (default %(default)s)")

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

    p = sub.add_parser("fermi", parents=[base, modeled, sweep],
                       help="Fermi energy and degeneracy pressure at a density")
    p.add_argument("--density", type=float,
                   help="number density (reduced; m^-3 with --si; default 1)")
    p.add_argument("--si", action="store_true", help="report in SI units")
    p.add_argument("--mass", type=float, help="particle mass in kg (default electron)")

    sub.add_parser("sommerfeld", parents=[base, modeled],
                   help="broadened-step moments A1, A2 vs their closed forms")

    p = sub.add_parser("mu-of-t", parents=[base, modeled, sweep],
                       help="chemical potential vs temperature at fixed density")
    p.add_argument("--t", type=float, help="reduced temperature kT/E_F (default 0.05)")

    p = sub.add_parser("heat-capacity", parents=[base, modeled, sweep],
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

    p = sub.add_parser("oracle", parents=[base, modeled],
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
