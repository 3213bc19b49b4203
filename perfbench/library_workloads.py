"""The in-process workloads: upsilon-staircase and bounds-tensor.

One op builds its complex fresh from the expression, so nothing the
library memoises on a complex carries over from one op to the next.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import upsilonkit as uk

import closedform as cf
from inputs import HOM_K, Input, atom_expr, nk_terms, random_stair, scaled

# The torus knots are a fixed ladder, each with its mirror, so that the
# costliest ops, and with them wall_s and op_p90_ms, do not depend on the
# seed; the seed draws the staircases and sums, where op_p50_ms falls.
TORUS_LADDER = [(5, 7), (13, 17), (17, 19)]
TORUS_BOTH = [(5, 17), (8, 13), (9, 14), (11, 13), (7, 19), (11, 17), (8, 19)]

T_BOUNDS = (Fraction(2, 3), Fraction(1))

# Symmetric four-step staircases (step vectors that read the same backwards,
# as for knots).  The bounds-tensor pairs are drawn from these, so that every
# pair has a stored expected report and the pairs cost about the same, which
# keeps op_p50_ms, falling among them, steady across seeds.
STAIR_POOL = [("stair", (a, b, b, a)) for a in (1, 2, 3) for b in (1, 2, 3)]
PAIRS = [(s1, s2) for s1 in STAIR_POOL for s2 in STAIR_POOL if s1 != s2]
# The costlier bounds-tensor inputs are fixed, so that wall_s and op_p90_ms
# do not depend on the seed; the seed draws the pairs and the acyclic
# summands, where op_p50_ms falls.
BOX_SUMS = [(1, 2, 3), (1, 1, 1), (2, 3, 4), (4, 4, 4)]
_SQUARED = [((2, 2), (1, 2, 2, 1)), ((1, 1), (3, 1, 1, 3)), ((3, 3), (2, 3, 3, 2))]
POWER_PAIRS = [(("stair", a), ("stair", b)) for a, b in _SQUARED] + [
    (("stair", b), ("stair", a)) for a, b in _SQUARED
]
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@functools.cache
def expected_reports() -> dict:
    """Stored Upsilon2 reports by input key (see make_expected.py)."""
    return json.loads(EXPECTED_PATH.read_text())["bounds-tensor"]


def complex_sizes(C) -> dict:
    return {
        "generators": len(C),
        "slice0": len(C.grading_slice(0)),
        "slice1": len(C.grading_slice(1)),
        "candidates": len(uk.breakpoint_candidates(C)),
    }


def torus_input(p: int, q: int, mirror: bool) -> Input:
    sign = -1 if mirror else 1
    return Input(("-" if mirror else "") + f"T({p},{q})", ((sign, ("torus", p, q)),), "torus")


def pair_expr(s1, s2) -> str:
    return f"{atom_expr(s1)} # -{atom_expr(s2)}"


class UpsilonStaircase:
    """build -> validate -> upsilon -> delta_upsilon_prime at every interior breakpoint."""

    name = "upsilon-staircase"
    in_process = True

    def make_inputs(self, seed: int, workdir: Path) -> list[Input]:
        rng = random.Random(seed)
        items = [torus_input(p, q, False) for p, q in TORUS_LADDER]
        items += [torus_input(p, q, mirror) for p, q in TORUS_BOTH for mirror in (False, True)]
        # As many staircases (the cheapest ops) as torus knots (the costliest),
        # so that the median op falls in the middle of the 48 sums.
        for _ in range(len(items)):
            atom = random_stair(rng, 2, 7, 4)
            mirror = rng.random() < 0.5
            items.append(Input(("-" if mirror else "") + atom_expr(atom),
                               ((-1 if mirror else 1, atom),), "stair"))
        for _ in range(48):
            s1, s2 = random_stair(rng, 3, 3, 3), random_stair(rng, 3, 3, 3)
            items.append(Input(pair_expr(s1, s2), ((1, s1), (-1, s2)), "sum"))
        rng.shuffle(items)
        return items

    def run_op(self, inp: Input):
        C = uk.parse_and_build(inp.expr)
        C.validate()
        f = uk.upsilon(C)
        jumps = tuple((x, uk.delta_upsilon_prime(C, x)) for x, _ in f.breakpoints[1:-1])
        return (f.breakpoints, jumps), C

    def sizes(self, inp: Input, C) -> dict:
        return complex_sizes(C)

    def check(self, inp: Input, out) -> str | None:
        points, jumps = out
        expected = cf.ExpectedUpsilon(inp.terms)
        mismatch = cf.upsilon_mismatch(list(points), expected)
        if mismatch:
            return mismatch
        for x, jump in jumps:
            want = expected.slope(x, "right") - expected.slope(x, "left")
            if jump != want:
                return f"slope jump at {x} is {jump}, closed form gives {want}"
        return None


def report_tuple(report) -> tuple:
    reports = tuple((r.source, r.slope_bound, tuple(r.breakpoint_bounds), r.combined)
                    for r in report.reports)
    return reports, tuple(report.skipped), report.combined


def box_points(corner, size):
    x, y = corner
    return [(x + size, y + size), (x, y + size), (x + size, y), (x, y)]


def nk_upsilon2(n: int):
    """Published Upsilon2 of nK(n) at t = 1."""
    return [(Fraction(0), Fraction(-4 * n)), (Fraction(1), Fraction(-2)),
            (Fraction(2), Fraction(-4 * n))]


# Expression -> n for the nK(n) family (hom-K is nK(1)).
NK_NAMES = {"hom-K": 1, "nK(2)": 2, "nK(3)": 3, "nK(4)": 4}


def encode_reports(reports, skipped) -> dict:
    """JSON form of the Upsilon2 part of a genus report."""
    return {
        "upsilon2": [[s, b, [[str(x), v] for x, v in bps], c] for s, b, bps, c in reports],
        "skipped": list(skipped),
    }


def decode_reports(entry) -> tuple:
    reports = tuple((s, b, tuple((Fraction(x), v) for x, v in bps), c)
                    for s, b, bps, c in entry["upsilon2"])
    return reports, tuple(entry["skipped"])


class BoundsTensor:
    """build -> validate -> genus_report(C, [2/3, 1]) -> diagonal_width."""

    name = "bounds-tensor"
    in_process = True

    def make_inputs(self, seed: int, workdir: Path) -> list[Input]:
        rng = random.Random(seed)
        items = [
            Input("3*hom-K", scaled(HOM_K, 3), "hom-K-power", {"key": "3*hom-K"}),
            Input("2*hom-K", scaled(HOM_K, 2), "hom-K-power", {"key": "2*hom-K"}),
        ]
        items += [Input(f"nK({n})", nk_terms(n), "nK", {"key": f"nK({n})"}) for n in (2, 3, 4)]
        for ns in BOX_SUMS:
            expr = " # ".join(f"box({n})" for n in ns)
            items.append(Input(expr, tuple((1, ("box", n)) for n in ns), "box-sum", {"key": expr}))
        for s1, s2 in POWER_PAIRS:
            expr = f"2*({pair_expr(s1, s2)})"
            items.append(Input(expr, ((2, s1), (-2, s2)), "pair-power", {"key": expr}))
        for _ in range(48):
            s1, s2 = rng.choice(PAIRS)
            expr = pair_expr(s1, s2)
            items.append(Input(expr, ((1, s1), (-1, s2)), "pair", {"key": expr}))
        for _ in range(8):
            corner = (rng.randint(-3, 3), rng.randint(-3, 3))
            size = rng.randint(1, 3)
            if rng.random() < 0.25:
                expr, terms = rng.choice([("hom-K", HOM_K), ("nK(2)", nk_terms(2))])
            else:
                s1, s2 = rng.choice(PAIRS)
                expr, terms = pair_expr(s1, s2), ((1, s1), (-1, s2))
            items.append(Input(expr, terms, "acyclic-summand",
                               {"key": expr, "box": (corner, size)}))
        rng.shuffle(items)
        return items

    def run_op(self, inp: Input):
        C = uk.parse_and_build(inp.expr)
        if "box" in inp.extra:
            C = uk.add_acyclic_box(C, *inp.extra["box"])
        C.validate()
        report = uk.genus_report(C, T_BOUNDS)
        return (report_tuple(report), uk.diagonal_width(C)), C

    def sizes(self, inp: Input, C) -> dict:
        return complex_sizes(C)

    def check(self, inp: Input, out) -> str | None:
        (reports, skipped, combined), width = out
        key = inp.extra["key"]
        up = ("upsilon",) + cf.gc_bound(cf.ExpectedUpsilon(inp.terms).points())
        if reports[0] != up:
            return f"Upsilon bound report {reports[0]}, closed form gives {up}"
        if key not in expected_reports():
            return f"no stored expected report for {key!r}"
        want, want_skipped = decode_reports(expected_reports()[key])
        if reports[1:] != want or skipped != want_skipped:
            return f"Upsilon2 reports {reports[1:]} / skipped {skipped}, stored {want} / {want_skipped}"
        if key in NK_NAMES:
            published = ("upsilon2[t=1]",) + cf.gc_bound(nk_upsilon2(NK_NAMES[key]))
            if published not in reports:
                return f"no report {published} from the published Upsilon2 of {key}"
        if key == "nK(2)" and combined != 6:
            return f"combined bound of nK(2) is {combined}, published 6"
        if combined != max(r[3] for r in reports):
            return f"combined bound {combined} is not the largest report bound"
        extra = box_points(*inp.extra["box"]) if "box" in inp.extra else ()
        want_width = cf.diagonal_width(inp.terms, extra)
        if width != want_width:
            return f"diagonal width {width}, closed form gives {want_width}"
        return None
