"""Concordance-genus lower bounds from the PL invariants and the
diagonal width of a model complex."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import ModelComplex
from .exact import DomainError, PLFunction
from .upsilon import upsilon
from .upsilon2 import upsilon2


class GenusBoundReport(NamedTuple):
    source: str
    slope_bound: int  # ceiling of the largest absolute slope
    breakpoint_bounds: tuple[tuple[Fraction, int], ...]  # (location, implied bound)
    combined: int


def gc_bound_from_pl(f: PLFunction, source: str = "pl") -> GenusBoundReport:
    """Bounds from slopes and from the denominators of interior breakpoints.

    A breakpoint at p/q in lowest terms forces the bound q for odd p
    and q/2 (rounded up) for even p.
    """
    if not f.is_finite:
        raise DomainError("no genus bound from a constant-infinite function")
    # The ceiling of the largest |slope| is the largest ceiling, -(-|n| // d).
    slope_bound = max(-(-abs(s.numerator) // s.denominator) for s in f.slopes)
    bp_bounds = []
    for x, _ in f.breakpoints[1:-1]:
        p, q = x.numerator, x.denominator
        bp_bounds.append((x, q if p % 2 == 1 else (q + 1) // 2))
    combined = max([slope_bound] + [b for _, b in bp_bounds] + [0])
    return GenusBoundReport(source, slope_bound, tuple(bp_bounds), combined)


def diagonal_width(C: ModelComplex) -> int:
    """Largest |alg - Alex| over generators; a model-level statistic."""
    C.require_valid()
    return max((abs(i - j) for i, j in zip(C._i, C._j)), default=0)


class GenusReport(NamedTuple):
    reports: tuple[GenusBoundReport, ...]
    skipped: tuple[str, ...]  # t values whose secondary function was infinite
    combined: int


def genus_report(C: ModelComplex, t_list) -> GenusReport:
    """Combined lower bound from Upsilon and from Upsilon2 at each t."""
    reports = [gc_bound_from_pl(upsilon(C), "upsilon")]
    skipped = []
    for t in t_list:
        res = upsilon2(C, t)
        if res.upsilon2.is_finite:
            reports.append(gc_bound_from_pl(res.upsilon2, f"upsilon2[t={res.t}]"))
        else:
            skipped.append(str(res.t))
    combined = max(r.combined for r in reports)
    return GenusReport(tuple(reports), tuple(skipped), combined)
