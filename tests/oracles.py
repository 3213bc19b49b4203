"""Reference implementations of gamma, gamma2 and the one-sided sets.

The brute-force oracles enumerate the full cycle coset (and, for gamma2,
every connecting chain for every pair of one-sided minimizers) instead
of using threshold spans, so they share no algorithmic ideas with the
engine beyond the definitions themselves.  Guarded to dimension
MAX_DIM to keep enumeration tractable.

margin_one_sided takes "just left and right of t" literally, at t -+ delta
for a margin delta inside which no two weights cross, where the engine
orders by an exact one-sided key at t; it runs reference_threshold there
and has no dimension limit.  one_sided_weight is that key as a Fraction
weight, for reference_threshold, and phi_key the int weight 2q phi_t at
t = p/q as a function of the point.

The brute-force oracles are memoised by (complex, t, s): the test
complexes are shared instances (helpers.built), and several suites ask
for the same grid of values.  Within a call each point's phi weight is
taken once, before the loops over coset members and chains.

reference_threshold is the level search before its reduction modulo the
base span: it copies the base and grows it by the raw items in weight
order, testing membership of the target after each level, so it shares no
code with upsilon.prepare_search and upsilon.threshold.  Run with Fraction
weights, one per distinct point and call, it checks their integer keys
past MAX_DIM.

is_acyclic is the test of an acyclic summand: the structural checks of
validate (grading-drop, filtration-monotone, d-squared) pass, and the
graded homology vanishes (slices repeat with period two).

reference_d_squared is the d^2 = 0 check of validate before it read the
slice columns: it walks every pair of (U-power, target) terms by name and
counts each U^k z of d(d(x)) mod 2, so it needs no grading-drop.

pl_value_and_slopes reads a PL function's value and one-sided slopes at x
by a linear scan of all its pieces, where PLFunction bisects once.

certified_pl is the PL assembly before the kinetic sweep: it evaluates a
level at every crossing of two points (crossings, all pairs) and checks
linearity at each midpoint, so it visits every candidate where the sweep
visits only the winner's crossings.

check_disjointness_theorem is the paper's property that a positive slope
jump of Upsilon at t forces disjoint Z- and Z+, read off the library's
public delta_upsilon_prime and z_sets.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cache

import upsilonkit as uk
from upsilonkit.gf2 import Gf2Solver, Gf2Span, support
from upsilonkit.upsilon import one_sided_key
from helpers import boundaries, combine

MAX_DIM = 16


def _coset_members(C):
    coset = C.generator_coset()
    bs = list(boundaries(C))
    if len(bs) > MAX_DIM:
        raise ValueError(f"coset dimension {len(bs)} exceeds oracle limit")
    members = [coset.cycle ^ combine(bs, m) for m in range(1 << len(bs))]
    return coset, members


def reference_threshold(base_span, target, items, weight):
    """(least weight at which target enters base_span grown by the
    (vector, point) items, points of that level), or None if it never does."""
    weights = {point: weight(point) for point in {point for _, point in items}}
    groups = {}
    for vector, point in items:
        groups.setdefault(weights[point], []).append((vector, point))
    span = Gf2Span(base_span.basis())
    for level in sorted(groups):
        for vector, _ in groups[level]:
            span.add(vector)
        if target in span:
            return level, {point for _, point in groups[level]}
    return None


def is_acyclic(C) -> bool:
    structural = ("grading-drop", "filtration-monotone", "d-squared")
    if not all(c.passed for c in C.validate().checks if c.name in structural):
        return False
    return C.homology_dimension(0) == 0 and C.homology_dimension(1) == 0


def reference_d_squared(C) -> list[str]:
    """Names of the generators x with d(d(x)) != 0, in declaration order."""
    boundary = C.boundary
    bad = []
    for name in C.names:
        counts = {}
        for k1, mid in boundary[name]:
            for k2, target in boundary[mid]:
                key = (k1 + k2, target)
                counts[key] = counts.get(key, 0) ^ 1
        if any(counts.values()):
            bad.append(name)
    return bad


def gamma_eligible(C) -> bool:
    return len(boundaries(C)) <= MAX_DIM


def gamma2_eligible(C) -> bool:
    return (
        gamma_eligible(C)
        and len(Gf2Solver(C.slice_boundary(1)).kernel_basis()) <= MAX_DIM
    )


@cache
def brute_gamma(C, t) -> Fraction:
    """min over representing cycles of max weight over their support."""
    coset, members = _coset_members(C)
    weights = [uk.phi(t, e.point) for e in coset.basis]
    return min(max(weights[i] for i in support(z)) for z in members)


def crossings(points):
    """0, 2 and every t in (0, 2) where phi_t of two of the points agree,
    sorted; between consecutive crossings their phi_t order is constant."""
    points = sorted(set(points))
    cands = {Fraction(0), Fraction(2)}
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            di = points[a][0] - points[b][0]
            dj = points[a][1] - points[b][1]
            if di != dj:
                t = Fraction(2 * di, di - dj)
                if 0 < t < 2:
                    cands.add(t)
    return sorted(cands)


def half_gap(cands, t) -> Fraction:
    """Half the distance from t in (0, 2) to the nearest other of cands, a
    sorted crossings list."""
    k = bisect_left(cands, t)
    above = cands[k + 1] if cands[k] == t else cands[k]
    return min(t - cands[k - 1], above - t) / 2


def certified_pl(f, xs, what: str) -> uk.PLFunction:
    """The PL function through (x, f(x)) for x in xs, certified linear
    between neighbours by one extra evaluation at each midpoint."""
    ys = [f(x) for x in xs]
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if f((x0 + x1) / 2) != (y0 + y1) / 2:
            raise uk.ConsistencyError(f"{what} not linear on ({x0}, {x1})")
    return uk.PLFunction(list(zip(xs, ys)))


@cache
def brute_gamma2(C, t, s):
    """gamma2 at parameter t evaluated at s; None encodes -infinity.

    Enumerates Z- and Z+ outright, then for each pair every grading-1
    chain c with boundary z- + z+, and minimizes the max s-weight of
    the part of c outside the t half-plane at gamma(t).
    """
    t = Fraction(t)
    s = Fraction(s)
    coset, members = _coset_members(C)
    pts = [e.point for e in coset.basis]
    cands = crossings(pts)
    delta = half_gap(cands, t)

    def minimizers(tp):
        level = brute_gamma(C, tp)
        weights = [uk.phi(tp, point) for point in pts]
        return [z for z in members if max(weights[i] for i in support(z)) == level]

    z_minus = minimizers(t - delta)
    z_plus = minimizers(t + delta)
    if set(z_minus) & set(z_plus):
        return None

    gamma_t = brute_gamma(C, t)
    slice1 = C.grading_slice(1)
    t_weights = [uk.phi(t, e.point) for e in slice1]
    s_weights = [uk.phi(s, e.point) for e in slice1]
    solver = Gf2Solver(C.slice_boundary(1))
    kernel = solver.kernel_basis()
    if len(kernel) > MAX_DIM:
        raise ValueError(f"chain space dimension {len(kernel)} exceeds oracle limit")

    best = None
    for zm in z_minus:
        for zp in z_plus:
            x0 = solver.solve(zm ^ zp)
            assert x0 is not None, "minimizers not homologous in the full complex"
            for m in range(1 << len(kernel)):
                chain = x0 ^ combine(kernel, m)
                outside = [i for i in support(chain) if t_weights[i] > gamma_t]
                if not outside:
                    return None  # homologous inside the t half-plane alone
                level = max(s_weights[i] for i in outside)
                if best is None or level < best:
                    best = level
    return best


def same_affine(rep1, dirs1, rep2, dirs2) -> bool:
    """Whether rep1 + span(dirs1) and rep2 + span(dirs2) are one set."""
    span1 = Gf2Span(dirs1)
    span2 = Gf2Span(dirs2)
    if span1.rank != span2.rank or any(v not in span1 for v in dirs2):
        return False
    return (rep1 ^ rep2) in span1


def check_disjointness_theorem(C, t) -> bool:
    """Positive slope jump forces disjoint one-sided cycle sets."""
    return uk.delta_upsilon_prime(C, t) <= 0 or uk.z_sets(C, t).disjoint


def _margin_side(C, t_side):
    """The pivot at t_side, off the crossing arrangement, and the
    representative and direction basis of the cycles supported in the
    half-plane of weight at most gamma(t_side), both from the reference
    search with Fraction weights."""
    coset = C.generator_coset()
    items = [(1 << k, e.point) for k, e in enumerate(coset.basis)]
    bs = list(boundaries(C))
    level, points = reference_threshold(Gf2Span(bs), coset.cycle, items, lambda p: uk.phi(t_side, p))
    assert len(points) == 1, f"weight tie off the crossing arrangement at t = {t_side}"
    outside = ~sum(1 << k for k, e in enumerate(coset.basis) if uk.phi(t_side, e.point) <= level)
    solver = Gf2Solver([b & outside for b in bs])
    x = solver.solve(coset.cycle & outside)
    assert x is not None, f"no minimizing cycle at t = {t_side}"
    directions = Gf2Span(combine(bs, combo) for combo in solver.kernel_basis())
    return next(iter(points)), (coset.cycle ^ combine(bs, x), tuple(directions.basis()))


def phi_key(t):
    """(weight, d) ordering points by phi at t: for t = p/q in lowest terms,
    d = 2q and weight(i, j) = d phi_t(i, j), an int: one_sided_key(t, 0, 1).
    The engine reads that key off upsilon._pivots as the pair (a, b)."""
    t = uk.as_rational(t)
    a, b = one_sided_key(t, 0, 1)
    return (lambda point: a * point[0] + b * point[1]), 2 * t.denominator


def one_sided_weight(t, side):
    """The phi order just left (side -1) or right (+1) of t as a Fraction
    weight: (phi_t, side (j - i)), lexicographically."""
    return lambda p: (uk.phi(t, p), side * (p[1] - p[0]))


def margin_one_sided(C, t):
    """(delta, p_minus, p_plus, Z-, Z+) at t from t -+ delta, where delta is
    half the distance from t to the nearest other crossing of two grading-0
    weights; Z-+ are (representative, directions).  The same computation at
    delta / 2 must give the same pivots and cycle sets."""
    t = Fraction(t)
    cands = crossings(e.point for e in C.grading_slice(0))
    delta = half_gap(cands, t)

    def at(d):
        (pm, zm), (pp, zp) = _margin_side(C, t - d), _margin_side(C, t + d)
        return (pm, pp), zm, zp

    pivots, zm, zp = at(delta)
    pivots2, zm2, zp2 = at(delta / 2)
    assert pivots == pivots2, f"pivots unstable under delta halving at t = {t}"
    assert same_affine(*zm, *zm2) and same_affine(*zp, *zp2), (
        f"one-sided cycle sets unstable under delta halving at t = {t}")
    return (delta,) + pivots + (zm, zp)


def pl_value_and_slopes(points, x):
    """(f(x), slope just left of x, slope just right of x) of the PL function
    with these breakpoints, by a scan of every piece; a slope with no piece
    on its side of x is None."""
    value = left = right = None
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        slope = (y1 - y0) / (x1 - x0)
        if x0 <= x <= x1:
            value = y0 + slope * (x - x0)
        if x0 < x <= x1:
            left = slope
        if x0 <= x < x1:
            right = slope
    return value, left, right
