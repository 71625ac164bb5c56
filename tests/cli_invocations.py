"""The fixed list of ``xfermi`` invocations that ``tests/golden/cli.txt``
records, and the in-process runner that writes and checks that transcript.
Run as a script, it prints the transcript of the ``xfermi`` on the import
path, to rewrite the record or to compare another checkout's ``src/`` with it:

    PYTHONPATH=src python3 tests/cli_invocations.py > tests/golden/cli.txt
    PYTHONPATH=../parent/src python3 tests/cli_invocations.py | cmp - tests/golden/cli.txt

Each invocation runs through ``xfermi.cli.main`` with ``XFERMI_SEED`` unset
and ``COLUMNS=80``, the width argparse wraps the ``--help`` texts to.  After
a first line that names the Python version, the transcript gives each one a
``$ xfermi ...`` line, an ``exit N`` line and its stdout, in the order of
``invocations()``.  Stderr is left out: it carries warnings with source
line numbers.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import sys
import warnings
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"

SUBCOMMANDS = ("occupation", "eos", "virial", "fermi", "sommerfeld", "mu-of-t",
               "heat-capacity", "pauli", "landau", "star", "oracle", "compare")
MODELS = ("exclusive", "fd", "boltzmann")
NO_MODEL = ("star", "compare")
BLOCKING_ONLY = ("fermi", "sommerfeld", "mu-of-t", "heat-capacity", "oracle")
FORMATS = ("csv", "json", "table")

# one coordinate flag per subcommand, and the ends of each one's domain;
# one Monte Carlo sample has an infinite standard error, which JSON prints
# as null, and no z-score
POINTS = """
occupation --x -800
occupation --x 800
eos --eta -700
eos --eta 708 --model boltzmann
eos --eta 1e6
eos --n-lambda3 1e-300
eos --n-lambda3 1e200 --model fd
virial --n-lambda3 3
fermi --density 1e-300
fermi --density 1e180
mu-of-t --t 1e-205
mu-of-t --t 0.35
heat-capacity --t 1e-205
heat-capacity --t 10 --model fd
pauli --eta 20 --field 0
landau --n-lambda3 3 --field 5e-3
oracle --levels 10 --seed 11 --fugacity 1.7
oracle --levels 12 --model fd --samples 1000
oracle --fugacity 1e200
oracle --levels 15
oracle --samples 65537
oracle --samples 1 --format json
compare --at 30 --density 5
"""

SWEEPS = """
occupation --sweep x -5 5 11
eos --sweep eta -5 5 9 --model fd
eos --sweep n-lambda3 0.01 10 7 --sweep-scale log
virial --sweep n-lambda3 0.01 1 5 --sweep-scale log --format table
fermi --sweep density 0.1 10 5 --sweep-scale log --format json
mu-of-t --sweep t 0.01 0.5 6
heat-capacity --sweep t 1e-4 0.5 6 --sweep-scale log --model fd
pauli --sweep field 0 2 5
landau --sweep field 0.05 2 5 --sweep-scale log
"""

# both sides of the two joins of the inversion's start table, at
# n lambda^3 a/g = e^-2 and e^4.5 (mu-of-t and heat-capacity: t = 3.13787
# and 0.0411806 for either model), and one sweep across all three pieces
JOINS = """
eos --n-lambda3 0.1353352 --format json
eos --n-lambda3 0.1353353 --format json
eos --n-lambda3 90.01713 --format json
eos --n-lambda3 90.01714 --format json
eos --n-lambda3 0.2706705 --model fd --format json
eos --n-lambda3 0.2706706 --model fd --format json
eos --n-lambda3 180.0342 --model fd --format json
eos --n-lambda3 180.0343 --model fd --format json
mu-of-t --t 3.13787
mu-of-t --t 3.13788
mu-of-t --t 0.0411805
mu-of-t --t 0.0411806
mu-of-t --t 3.13787 --model fd
mu-of-t --t 3.13788 --model fd
mu-of-t --t 0.0411805 --model fd
mu-of-t --t 0.0411806 --model fd
heat-capacity --t 3.13787
heat-capacity --t 3.13788
heat-capacity --t 0.0411805
heat-capacity --t 0.0411806
heat-capacity --t 3.13787 --model fd
heat-capacity --t 3.13788 --model fd
heat-capacity --t 0.0411805 --model fd
heat-capacity --t 0.0411806 --model fd
eos --sweep n-lambda3 1e-3 1e4 29 --sweep-scale log
eos --sweep n-lambda3 1e-3 1e4 29 --sweep-scale log --model fd
"""

SI = """
eos --si --density 1e25 --temperature 300
eos --si --density 1e28 --temperature 1e4 --mass 1.67e-27 --format json
eos --si --sweep density 1e20 1e30 4 --sweep-scale log --temperature 300
fermi --si --density 1e28
fermi --si --density 1e28 --mass 1.67e-27 --model fd --format table
fermi --si --sweep density 1e20 1e30 4 --sweep-scale log
"""

# usage errors: exit 1, empty stdout (--sweep-scale without --sweep exits 0
# against a parent that ignored it)
REFUSED = """
occupation --frequency 3
star --model fd
eos --density 1e25
eos --eta 1 --n-lambda3 1
eos --eta 1 --sweep n-lambda3 0.1 1 3
eos --si --eta 1 --density 1e25 --temperature 300
eos --si --n-lambda3 1 --density 1e25 --temperature 300
eos --si --density 1e25
eos --eta 1 --temperature 300 --mass 1
eos --mass 1
eos --si --density 1e25 --temperature 300 --mass 0
fermi --density 2 --mass 1
fermi --si --density 1e28 --mass -1
fermi --si --density 1e28 --mass 0
fermi --density 1 --model boltzmann
sommerfeld --model boltzmann
mu-of-t --model boltzmann
heat-capacity --model boltzmann
oracle --model boltzmann
occupation --x 1 --sweep-scale log
eos --rel-tol 1e-8
occupation --x 1 --sweep x 0 1 3
occupation --sweep x 0 1 1
occupation --sweep x 0 one 3
occupation --sweep eta 0 1 3
occupation --sweep x 0 1 3 --sweep-scale log
landau --n-lambda3 0
landau --field -1
compare --density 0
oracle --levels 20
oracle --samples 0
oracle --seed x
oracle --seed -1
eos --config /nonexistent/xfermi.cfg
eos --si --temperature 300
eos --sweep eta 0 x 3
eos --sweep eta 0 1 1
occupation --sweep t 0 1 3
landau --field 0
compare --at -710 --density nan
compare --at -710 --density inf
eos --si --density nan --temperature 300
occupation --sweep x -inf 1 3
occupation --sweep x -1e308 1e308 3
occupation --sweep x 1 inf 3 --sweep-scale log
eos --sweep eta 0 inf 3
"""

# numerical failures (exit 2), and the non-finite or out-of-range inputs
# at the edges of the closed forms; at n lambda^3 = 5e-324 the Landau
# fugacity n lambda^3 / g rounds to 0 (exit 1, a usage error, -> 2); the
# classical moments g e^eta at both ends of the double range: the energy row
# overflows at eta = 709 and every row at 709.5, the density underflows at
# -746, and at -740 with field 3 both spin populations are subnormal
FAILURES = """
eos --eta 709 --model boltzmann
eos --eta -746 --model boltzmann
pauli --eta -740 --field 3 --model boltzmann
compare --at 709.5 --density 1
landau --n-lambda3 5e-324
landau --n-lambda3 5e-324 --model fd
eos --eta 800
eos --eta 800 --model boltzmann
eos --eta -800
eos --n-lambda3 1e300
virial --n-lambda3 1e300
eos --si --density 1e300 --temperature 1
eos --si --density 1e-300 --temperature 300
landau --n-lambda3 10 --field 1e-9
mu-of-t --t 1e-250
heat-capacity --t 1e-250
mu-of-t --t 1e300
heat-capacity --t 1e300
fermi --density nan
fermi --density inf
fermi --density 1e300
fermi --density 1e308
fermi --si --density nan
fermi --si --density 1e300
compare --density nan
compare --density 1e308
eos --eta nan
occupation --x nan
pauli --field nan
"""

# points solved in one kernel call: the smallest subnormal n lambda^3 (its
# density underflows in the kernel; exit 1 -> 2 against a parent that took
# log(0)), the heat capacity on both sides of k = eta + ln a = 40 (t =
# 0.0249871502 for either model), where the energy row is or is not
# requested, and sweeps of n lambda^3 over the whole range that fits a double
ONE_CALL = """
eos --n-lambda3 5e-324
eos --n-lambda3 5e-324 --model fd
eos --n-lambda3 5e-324 --model boltzmann
heat-capacity --t 0.02
heat-capacity --t 0.02498715
heat-capacity --t 0.02498716
heat-capacity --t 0.03
heat-capacity --t 0.02 --model fd
heat-capacity --t 0.02498715 --model fd
heat-capacity --t 0.02498716 --model fd
heat-capacity --t 0.03 --model fd
heat-capacity --sweep t 0.02 0.03 41
eos --sweep n-lambda3 0.01 10 200
eos --sweep n-lambda3 1e-300 1e4 39 --sweep-scale log
eos --sweep n-lambda3 1e-300 1e4 39 --sweep-scale log --model fd
eos --sweep n-lambda3 1e-300 1e300 61 --sweep-scale log --model boltzmann
"""

# negative values in exponent or inf spelling, given as their own token;
# these differ from a parent whose parser took them for flags (exit 1)
NEGATIVE = """
eos --eta -1e3
occupation --x -inf
pauli --field -1e-3
eos --sweep eta -1e1 -5e0 3
"""

# subnormal n lambda^3, where Newton's steps go back and forth across the
# root at the spacing 2^-1074 of n (exit 2 against a parent that stopped
# only on a relative step of 1e-13); at 1.0037e-319, p and 2 (u / 3) are one
# such step apart (exit 2 against a parent that allowed 1e-6 p there)
SUBNORMAL = """
eos --n-lambda3 1e-315
eos --n-lambda3 1e-315 --model fd
eos --n-lambda3 1e-315 --model boltzmann
eos --n-lambda3 1.0037e-319
eos --n-lambda3 1.0037e-319 --model fd
eos --n-lambda3 1.0037e-319 --model boltzmann
"""

# sample counts whose cost grew with the count while each sample was drawn
# on its own: a trillion (about an hour that way) and one past 2^63 - 1
SAMPLES = """
oracle --samples 1000000000000
oracle --samples 9223372036854775808
"""

# populations, level spacings and SI scales past the double range: both
# spin populations underflow (a ZeroDivisionError traceback, exit 1, against
# the parent), the smaller is subnormal and would shift M/N (exit 0 -> 2),
# or one underflows beside a normal one and M/N saturates at 1; a subnormal
# Landau spacing, where 1/(2 sinh s) overflows (exit 0 with inf -> 2), and a
# wide one, where sinh s does (an OverflowError traceback, exit 1 -> 2), or
# where the partition ratio is subnormal (exit 2 on both sides: a parent
# without the ratio's check fails at 1/(2 sinh s) instead); and
# the --si wavelength and k_B T / lambda^3 out of range (tracebacks, exit 1,
# -> 2) or at a non-finite temperature (exit 1 with another message); the
# forward moments at eta = -800, which underflow to 0 (exit 0 with rows of
# zeros -> 2); a sweep one point past the cap of 10^6 (exit 0 -> 1; the
# parent takes about 16 s and 260 MB to print it); the classical occupation
# 2 e^{-x} past the double range (exit 0 with inf -> 2) and at its limit
# x = -inf (inf, exit 0, on both sides); the mu/E_F series at t = 1e200
# (exit 0 with -inf -> 2); the --si pressure and energy density past the
# double range (exit 0 with inf -> 2), and an SI Fermi energy that overflows
# or underflows (exit 1, blamed on the density, -> 2)
EDGES = """
pauli --eta -800
pauli --eta -750 --field 2
pauli --eta -744 --field 1
pauli --eta -700 --field 1
pauli --eta 0 --field 760
landau --field 1e-310
landau --field 800
landau --field 745
landau --n-lambda3 3 --field 745 --model fd
landau --sweep field 1e-320 1e-300 3 --sweep-scale log
eos --si --density 1e25 --temperature 1e-300
eos --si --density 1e25 --temperature inf
eos --si --density 1e25 --temperature 1e300
eos --si --density 1e-300 --temperature 1e300
eos --si --density 1e25 --temperature 300 --mass 1e-300
eos --si --density 1e25 --temperature nan
compare --at -800
occupation --sweep x 0 1 1000001
occupation --x -710 --model boltzmann
occupation --x -inf --model boltzmann
compare --at -710
mu-of-t --t 1e200
mu-of-t --t 1e200 --model fd
eos --si --density 1e250 --temperature 1e60
fermi --si --density 1e300 --mass 1e-300
fermi --si --density 1e-200 --mass 1e200
"""

# level counts below one or past the enumeration capacity: usage errors
# (exit 1, empty stdout) on both sides; a parent that draws the energies
# before it checks the count makes a 0.8 MB draw for 100000
LEVELS = """
oracle --levels -1
oracle --levels 0
oracle --levels 13 --model fd
oracle --levels 100000
"""


def invocations() -> list[list[str]]:
    runs = [[], ["--version"], ["--help"]]
    for command in SUBCOMMANDS:
        runs.append([command, "--help"])
        models = [None] if command in NO_MODEL else [
            m for m in MODELS if not (m == "boltzmann" and command in BLOCKING_ONLY)]
        for model in models:
            for fmt in FORMATS:
                runs.append([command, "--format", fmt]
                            + ([] if model is None else ["--model", model]))
    for block in (POINTS, JOINS, ONE_CALL, SWEEPS, SI, REFUSED, FAILURES, NEGATIVE,
                  SUBNORMAL, SAMPLES, EDGES, LEVELS):
        runs += [shlex.split(line) for line in block.strip().splitlines()]
    return runs


def preamble() -> str:
    """The transcript's first line: the Python whose argparse wrote the help texts."""
    return f"# python {sys.version_info.major}.{sys.version_info.minor}\n"


def header(argv: list[str]) -> str:
    """The transcript line that opens ``argv``'s block."""
    return " ".join(["$ xfermi", *map(shlex.quote, argv)])


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``xfermi argv`` in this interpreter; argparse's
    ``SystemExit`` after ``--help`` and ``--version`` gives the exit code."""
    from xfermi.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue()


def run_all(runs: list[list[str]]) -> list[tuple[int, str]]:
    """``run_in_process`` of each invocation, in order; their warnings, which
    would go to stderr, are dropped."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), warnings.catch_warnings():
        os.environ.pop("XFERMI_SEED", None)
        warnings.simplefilter("ignore")
        return [run_in_process(argv) for argv in runs]


def block(argv: list[str], code: int, out: str) -> str:
    """One invocation's part of the transcript."""
    return f"{header(argv)}\nexit {code}\n{out}"


def transcript(runs: list[list[str]], done: list[tuple[int, str]]) -> str:
    """The transcript text of ``runs`` given their ``run_all`` results."""
    return preamble() + "".join(block(argv, code, out) for argv, (code, out) in zip(runs, done))


def split_blocks(text: str) -> tuple[str, dict[str, str]]:
    """A transcript's first line, and its blocks by their ``$ xfermi`` line."""
    first, *parts = re.split(r"(?m)^(?=\$ xfermi)", text)
    return first, {part.split("\n", 1)[0]: part for part in parts}


def main() -> None:
    """Print the transcript of ``invocations()`` for the ``xfermi`` on the import path."""
    runs = invocations()
    sys.stdout.write(transcript(runs, run_all(runs)))


if __name__ == "__main__":
    main()
