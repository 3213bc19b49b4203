"""Shared fixtures-by-function for the test suite.

Complexes cache their own invariant computations per instance, so the
tests share instances through an lru_cache keyed by catalog name; a
leading '-' means the dual.
"""

import importlib
from functools import lru_cache

import upsilonkit as uk

UPSILON = importlib.import_module("upsilonkit.upsilon")  # uk.upsilon is the function
UPSILON2 = importlib.import_module("upsilonkit.upsilon2")  # so is uk.upsilon2

# Every named/parameterized family member exercised by the suites.
CATALOG_SCAN = [
    "unknot",
    "fig8",
    "figure6",
    "hom-C1",
    "hom-C2",
    "hom-K",
    "T(2,3)",
    "T(3,4)",
    "T(2,5)",
    "T(4,5)",
    "T(5,7)",
    "box(1)",
    "box(2)",
    "box(3)",
    "nK(1)",
    "nK(2)",
]


@lru_cache(maxsize=None)
def built(name: str) -> uk.ModelComplex:
    if name.startswith("-"):
        return uk.dual(built(name[1:]))
    return uk.catalog(name)


def interior_breakpoints(C):
    return [x for x, _ in uk.upsilon(C).breakpoints if 0 < x < 2]


def pl(points) -> uk.PLFunction:
    return uk.PLFunction(points)


def combine(vectors, combo: int) -> int:
    """XOR of the vectors selected by the bits of combo."""
    acc = 0
    idx = 0
    while combo:
        if combo & 1:
            acc ^= vectors[idx]
        combo >>= 1
        idx += 1
    return acc


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name to record the arguments of each call; returns the record."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def count_thresholds(monkeypatch) -> list:
    """Patch upsilon.threshold to record one entry per call; returns the record."""
    return count_calls(monkeypatch, UPSILON, "threshold")


def skew_one_sided(monkeypatch, shift):
    """Patch upsilon._one_sided to add shift(side) to the level it reports
    at t in (0, 2), where the pivots are read.  Validation reads gamma(0)
    and gamma(2) off the same memoized searches at 0 and 2, which stay
    as they are, so a fresh complex still validates."""
    one_sided = UPSILON._one_sided

    def skewed(C, t, side):
        value, *rest = one_sided(C, t, side)
        return (value + shift(side) if 0 < t < 2 else value, *rest)

    monkeypatch.setattr(UPSILON, "_one_sided", skewed)


def boundaries(C) -> tuple[int, ...]:
    """Echelon basis of the grading-1 boundary span of C: the directions of
    its H0 coset."""
    return tuple(C._elimination()[1].basis())
