"""Print one SHA-256 over the bits of the moment kernel and everything built on it.

    python3 scripts/kernel_digest.py
    python3 scripts/kernel_digest.py --src ../parent

A change meant to keep every number bit for bit prints the same digest as
its parent.  The digest covers, for all three models: ``_moments`` for
every ordered subset of its four rows, on an eta grid from -745 to 1e6
(with k = eta + ln a = 0 exactly and the doubles beside it) and a few etas
up to 1e300, as one array, as the array below eta = 700 and as one scalar
call per point; ``density``, ``energy_density``, ``pressure`` and
``solve_point`` from eta; ``solve_point`` from n lambda^3 and
``solve_fugacity`` over 1e-320..1e300; ``chemical_potential_exact`` and
``specific_heat_exact``; ``pauli_magnetization``,
``landau_susceptibility`` and ``landau_partition_ratio``.  A call that
raises adds its error's type and message in place of its value.  ``--src``
hashes the checkout at DIR (its ``src/``) in place of this one.  Takes
about 20 s.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import struct
import sys
import warnings
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent


def digest() -> str:
    from xfermi import degenerate, eos, magnetism
    from xfermi.occupancy import BOLTZMANN, EXCLUSIVE, STANDARD_FD

    sha = hashlib.sha256()

    def record(call, *args):
        try:
            value = call(*args)
        except Exception as error:  # the error is part of what is hashed
            sha.update(f"{type(error).__name__}: {error}".encode())
            return
        if isinstance(value, np.ndarray):
            sha.update(value.tobytes())
        elif isinstance(value, tuple):
            sha.update(struct.pack(f"{len(value)}d", *value))
        else:
            sha.update(struct.pack("d", value))

    def fields(point):  # a ThermoPoint's numbers
        return point.eta, point.n_lambda3, point.energy_density, point.pressure

    def populations(eta, b, model):
        m = magnetism.pauli_magnetization(eta, b, model)
        return m.n_up, m.n_down, m.magnetization

    rows = [r for size in range(1, 5) for r in itertools.permutations(range(4), size)]
    densities = [*np.geomspace(1e-320, 1e300, 620), 5e-324, 0.0, -1.0, math.inf]
    temperatures = [*np.geomspace(1e-8, 1e300, 200), 0.02, 0.05, 0.0, math.inf]
    fugacities = np.geomspace(1e-300, 1e3, 40)
    for model in (EXCLUSIVE, STANDARD_FD, BOLTZMANN):
        edge = np.array([-math.log(model.blocking)] if model.blocking else [])  # k = 0
        etas = np.unique(np.concatenate((
            np.linspace(-745.0, 50.0, 800), np.geomspace(50.0, 1e6, 200),
            [-1e-300, 0.0, 1e-300, 709.78, 710.0, 1e100, 1e130, 1e200, 1e300],
            edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf))))
        for subset in rows:
            record(eos._moments, etas, model, subset)
            record(eos._moments, etas[etas < 700.0], model, subset)
            for eta in etas:
                record(eos._moments, float(eta), model, subset)
        for eta in map(float, etas):
            for moment in (eos.density, eos.energy_density, eos.pressure):
                record(moment, eta, model)
            record(lambda e: fields(eos.solve_point(model, eta=e)), eta)
        for n in densities:
            record(lambda x: fields(eos.solve_point(model, n_lambda3=x)), n)
            record(eos.solve_fugacity, n, model)
            record(magnetism.landau_susceptibility, n, model)
        for t in temperatures:
            record(degenerate.chemical_potential_exact, t, model)
            record(degenerate.specific_heat_exact, t, model)
        for eta in np.linspace(-745.0, 700.0, 60):
            for b in (-30.0, -1.0, 0.0, 1e-3, 2.0, 50.0):
                record(populations, eta, b, model)
        for z in fugacities:
            for s in (5e-3, 0.1, 1.0, 30.0):
                record(magnetism.landau_partition_ratio, z, s, model)
    return sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=_ROOT, metavar="DIR",
                        help="checkout whose src/ is hashed (default: this one)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve() / "src"))
    warnings.simplefilter("ignore")
    import xfermi
    print(f"hashing {Path(xfermi.__file__).parent}", file=sys.stderr)
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
