"""Closed-form references for the benchmark's correctness gate.

Nothing here calls upsilonkit.  For a staircase S with grading-0
corners a_k = (i_k, j_k), gamma_S(t) = min_k phi_t(a_k) with
phi_t(i, j) = (t/2) j + (1 - t/2) i.  For T(p, q) the same function
comes from the Ozsvath-Stipsicz-Szabo formula over the semigroup
<p, q> (arXiv:1407.1795):

    gamma(t) = min_{0 <= m <= 2g} #(S n [0, m)) + t (g - m) / 2.

Upsilon = -2 gamma is additive under connected sum and changes sign
under mirroring, which gives exact expected values for any sum of
staircases, torus knots and their mirrors.  Box complexes have
Upsilon = 0, and a direct summand with zero homology changes nothing.

An atom is a tuple: ("stair", steps), ("torus", p, q) or ("box", n).
A term list is a tuple of (coefficient, atom) pairs; the coefficient
is the signed tensor multiplicity.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO, TWO = Fraction(0), Fraction(2)


def stair_corners(steps):
    """Grading-0 and grading-1 corners of the staircase walk, in order."""
    i, j = 0, sum(steps[1::2])
    a_points, b_points = [(i, j)], []
    for k in range(0, len(steps), 2):
        i += steps[k]
        b_points.append((i, j))
        j -= steps[k + 1]
        a_points.append((i, j))
    return a_points, b_points


def semigroup_gaps(p: int, q: int):
    """Genus g and the set of semigroup elements of <p, q> below 2g."""
    g = (p - 1) * (q - 1) // 2
    members = {a * p + b * q for a in range(2 * g // p + 1) for b in range(2 * g // q + 1)}
    return g, {s for s in members if s < 2 * g}


def torus_steps(p: int, q: int):
    """Step vector of the T(p, q) staircase: consecutive gaps between the
    exponents of (1 - t) * sum_{s in S} t^s up to degree 2g."""
    g, sg = semigroup_gaps(p, q)
    inside = lambda n: n in sg or n >= 2 * g
    exps = [n for n in range(2 * g + 1) if inside(n) != (n > 0 and inside(n - 1))]
    exps.sort(reverse=True)
    return [a - b for a, b in zip(exps, exps[1:])]


def atom_lines(atom):
    """gamma of the atom as min over lines, each (intercept, slope)."""
    kind = atom[0]
    if kind == "stair":
        a_points, _ = stair_corners(atom[1])
        return [(Fraction(i), Fraction(j - i, 2)) for i, j in a_points]
    if kind == "torus":
        _, p, q = atom
        g, sg = semigroup_gaps(p, q)
        lines, count = [], 0
        for m in range(2 * g + 1):
            lines.append((Fraction(count), Fraction(g - m, 2)))
            count += m in sg
        return lines
    if kind == "box":
        return [(ZERO, ZERO)]
    raise ValueError(f"unknown atom {atom!r}")


def atom_points(atom):
    """Lattice points (i, j) of every generator of the library's model."""
    kind = atom[0]
    if kind == "stair":
        a_points, b_points = stair_corners(atom[1])
        return a_points + b_points
    if kind == "torus":
        return atom_points(("stair", tuple(torus_steps(atom[1], atom[2]))))
    if kind == "box":
        n = atom[1]
        return [(-n, n), (0, 0), (n, -n), (n, n), (-n, -n)]
    raise ValueError(f"unknown atom {atom!r}")


def _envelope_breaks(lines):
    """Interior t in (0, 2) where the lower envelope of the lines bends."""
    current = min(lines, key=lambda ln: (ln[0], ln[1]))
    t, out = ZERO, []
    while True:
        best = None
        for b, s in lines:
            if s < current[1]:
                cross = (b - current[0]) / (current[1] - s)
                if cross > t and (best is None or (cross, s) < best[0]):
                    best = ((cross, s), (b, s))
        if best is None or best[0][0] >= TWO:
            return out
        t, current = best[0][0], best[1]
        out.append(t)


class ExpectedUpsilon:
    """Closed-form Upsilon of a term list."""

    def __init__(self, terms):
        self.terms = [(c, atom_lines(a)) for c, a in terms if a[0] != "box"]
        breaks = {ZERO, TWO}
        for _, lines in self.terms:
            breaks.update(_envelope_breaks(lines))
        self.candidates = sorted(breaks)

    def value(self, t: Fraction) -> Fraction:
        return sum((-2 * c * min(b + s * t for b, s in lines) for c, lines in self.terms), ZERO)

    def slope(self, t: Fraction, side: str) -> Fraction:
        """One-sided derivative of Upsilon at t."""
        total = ZERO
        for c, lines in self.terms:
            low = min(b + s * t for b, s in lines)
            active = [s for b, s in lines if b + s * t == low]
            total += -2 * c * (min(active) if side == "right" else max(active))
        return total

    def points(self):
        """Canonical breakpoints (collinear points merged)."""
        return merge_collinear([(x, self.value(x)) for x in self.candidates])


def merge_collinear(pts):
    out = [pts[0]]
    for p in pts[1:]:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            if (y1 - y0) * (p[0] - x1) == (p[1] - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(p)
    return out


def pl_value(points, x: Fraction) -> Fraction:
    """Linear interpolation on sorted breakpoints covering [0, 2]."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} outside the breakpoints")


def upsilon_mismatch(points, expected: ExpectedUpsilon):
    """None if the PL function given by points equals the closed form,
    else a description.  Both sides are linear between consecutive
    points of the union of their breakpoints, so agreeing there is
    agreeing everywhere."""
    if points[0][0] != 0 or points[-1][0] != 2:
        return f"breakpoints do not span [0, 2]: {points}"
    for x in sorted({x for x, _ in points} | set(expected.candidates)):
        got, want = pl_value(points, x), expected.value(x)
        if got != want:
            return f"Upsilon({x}) = {got}, closed form gives {want}"
    return None


def gc_bound(points):
    """(slope bound, ((breakpoint, bound), ...), combined) of a finite PL
    function: the ceiling of the largest absolute slope, and for each
    interior breakpoint p/q the bound q for odd p, ceil(q/2) for even p."""
    slope = max((abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(points, points[1:])),
                default=ZERO)
    slope_bound = math.ceil(slope)
    bps = []
    for x, _ in points[1:-1]:
        p, q = x.numerator, x.denominator
        bps.append((x, q if p % 2 else math.ceil(Fraction(q, 2))))
    return slope_bound, tuple(bps), max([slope_bound] + [b for _, b in bps])


def diagonal_width(terms, extra_points=()):
    """max |i - j| over the generators of the tensor product of the atoms
    (coefficient = signed multiplicity), plus any direct-summand points."""
    lo = hi = 0
    for c, atom in terms:
        ds = [i - j for i, j in atom_points(atom)]
        if c < 0:
            ds = [-d for d in ds]
        lo += abs(c) * min(ds)
        hi += abs(c) * max(ds)
    width = max(abs(lo), abs(hi))
    return max([width] + [abs(i - j) for i, j in extra_points])


def generator_count(terms) -> int:
    n = 1
    for c, atom in terms:
        n *= len(atom_points(atom)) ** abs(c)
    return n
