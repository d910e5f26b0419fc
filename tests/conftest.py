"""Shared helpers for the test suite."""

from __future__ import annotations

import os
from fractions import Fraction

from hypothesis import settings

from cycstat.partial import CyclePathType
from cycstat.oracle import partitions

# HYPOTHESIS_PROFILE=ci runs every property test five times harder than the
# default; a test with its own @settings keeps them
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def integer_partitions_at_most(total: int):
    """All partitions of 0..total as weakly decreasing tuples."""
    for s in range(total + 1):
        yield from partitions(s)


def all_cycle_path_types(kmax: int) -> list[CyclePathType]:
    """Every cycle-path type with 1 <= size <= kmax, size = |mu| + |nu|."""
    out = []
    for k in range(1, kmax + 1):
        for a in range(k + 1):
            for mu in partitions(a):
                for nu in partitions(k - a):
                    out.append(CyclePathType(mu, nu))
    return out


def frac(x) -> Fraction:
    return Fraction(x)
