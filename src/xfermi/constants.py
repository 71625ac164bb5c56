"""Pinned physical-constants sets.

All internal computation is done in reduced units (hbar = m = k_B = 1, and
c = 1 where relativity enters); conversion to SI happens only at the
boundary, using the versioned table shipped with the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources


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


@lru_cache(maxsize=1)
def codata() -> PhysicalConstants:
    """SI constants loaded from the pinned data file."""
    import json

    text = resources.files("xfermi").joinpath("data/constants_si.json").read_text()
    return PhysicalConstants(**json.loads(text))
