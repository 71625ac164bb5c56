"""Tables of the moment kernel: Gauss-Legendre nodes and the inverse Fermi integral.

    python3 scripts/fermi_tables.py            # print the table blocks
    python3 scripts/fermi_tables.py --check    # exit 1 unless src/xfermi/eos.py holds them

The kernel's 20-point Gauss-Legendre nodes and weights are numpy's
``leggauss(20)``, printed as the ``repr`` of each float64, so the literals
in ``eos.py`` are bit-identical to it and the library need not import
``numpy.polynomial``.

The universal inverse is k(nu) with n_FD(k) = -Li_{3/2}(-e^k) = nu; through
the shift identity it gives eta = k - ln a at nu = n lambda^3 a/g for every
blocking model.  It is tabled on three pieces of ln nu:

- dilute, ln nu < LOW: k - ln nu in x = 2 nu/e^LOW - 1, a power series in nu;
- middle, LOW <= ln nu < HIGH: k in x linear in ln nu;
- degenerate, ln nu >= HIGH: k/k0 in x = 2 (k0(e^HIGH)/k0)^2 - 1, with
  k0 = (3 sqrt(pi)/4 nu)^{2/3} the T = 0 step; the Sommerfeld series makes
  k/k0 a series in k0^{-2}, up to terms of order e^{-k}.

At NODES Chebyshev points per piece, k comes from Newton on ln n_FD at
30 digits; the coefficients are the discrete cosine transform of those
values, kept down to the last one above TOL times the piece's largest
|value|, and printed as tuples for ``eos``'s pure-Python Clenshaw sum.
Each block is printed as it stands in ``eos.py``, so ``--check`` compares
text, and a rerun reproduces the committed tables.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

LOW, HIGH = -2.0, 4.5  # the piece joins, in ln nu
NODES = 64
TOL = 1e-17
PER_LINE = 3
GAUSS_NODES = 20


def n_fd(k):
    return mp.re(-mp.polylog(1.5, -mp.exp(k)))


def inverse(log_nu):
    """k with ln n_FD(k) = log_nu, by Newton on ln n_FD (concave in k)."""
    k = log_nu if log_nu < 0 else (0.75 * mp.sqrt(mp.pi) * mp.exp(log_nu)) ** (mp.mpf(2) / 3)
    for _ in range(100):
        n = n_fd(k)
        step = (log_nu - mp.log(n)) * n / mp.re(-mp.polylog(0.5, -mp.exp(k)))
        k += step
        if abs(step) < mp.mpf(10) ** -28 * max(1, abs(k)):
            return k
    raise RuntimeError(f"no 30-digit inverse at ln nu = {log_nu}")


def k0(log_nu):
    return mp.exp((log_nu + mp.log(0.75 * mp.sqrt(mp.pi))) * 2 / 3)


# each piece: ln nu at Chebyshev point x, and the tabled function of ln nu
PIECES = {
    "DILUTE": (lambda x: LOW + mp.log((x + 1) / 2), lambda ln: inverse(ln) - ln),
    "MIDDLE": (lambda x: LOW + (x + 1) / 2 * (HIGH - LOW), inverse),
    "DEGENERATE": (lambda x: HIGH - 0.75 * mp.log((x + 1) / 2), lambda ln: inverse(ln) / k0(ln)),
}


def coefficients(log_nu_at, tabled) -> list[float]:
    angles = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [tabled(log_nu_at(mp.cos(t))) for t in angles]
    c = [2 * mp.fsum(v * mp.cos(m * t) for v, t in zip(values, angles)) / NODES
         for m in range(NODES)]
    c[0] /= 2
    cut = TOL * max(abs(v) for v in values)
    while abs(c[-1]) <= cut:
        c.pop()
    return [float(v) for v in c]


def _literal(name: str, values, opener: str, closer: str) -> list[str]:
    text = [repr(float(v)) for v in values]
    return ([f"{name} = {opener}"]
            + ["    " + ", ".join(text[i:i + PER_LINE]) + ","
               for i in range(0, len(text), PER_LINE)]
            + [closer])


def gauss_block() -> str:
    lines = [f"# generated by scripts/fermi_tables.py from numpy's leggauss({GAUSS_NODES}); "
             "rerun it, do not edit"]
    for name, values in zip(("_GL_T", "_GL_V"), np.polynomial.legendre.leggauss(GAUSS_NODES)):
        lines += _literal(name, values, "np.array([", "])")
    return "\n".join(lines) + "\n"


def inverse_block() -> str:
    lines = ["# generated by scripts/fermi_tables.py from mpmath; rerun it, do not edit",
             f"_INVERSE_JOINS = ({LOW!r}, {HIGH!r})"]
    for name, piece in PIECES.items():
        lines += _literal(f"_INVERSE_{name}", coefficients(*piece), "(", ")")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless src/xfermi/eos.py holds the blocks verbatim")
    args = parser.parse_args()
    with mp.workdps(30):
        blocks = (gauss_block(), inverse_block())
    if not args.check:
        sys.stdout.write("\n".join(blocks))
        return 0
    source = (Path(__file__).resolve().parents[1] / "src" / "xfermi" / "eos.py").read_text(
        encoding="utf-8")
    missing = [text for text in blocks if text not in source]
    if not missing:
        print("eos.py holds the generated tables")
        return 0
    print("eos.py differs from the generated tables:\n" + "\n".join(missing), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
