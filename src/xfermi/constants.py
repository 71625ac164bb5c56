"""Pinned physical-constants sets.

All internal computation is done in reduced units (hbar = m = k_B = 1, and
c = 1 where relativity enters); conversion to SI happens only at the
boundary, using the versioned CODATA set below.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    version: str
    hbar: float
    k_B: float
    m_e: float
    c: float
    G: float
    e_charge: float


REDUCED = PhysicalConstants("reduced", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
CODATA = PhysicalConstants("si-2018", hbar=1.054571817e-34, k_B=1.380649e-23,
                           m_e=9.1093837015e-31, c=299792458.0, G=6.6743e-11,
                           e_charge=1.602176634e-19)
