"""Reference implementations of gamma, gamma2, tau and the one-sided sets.

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

phi is the Fraction weight (t/2) j + (1 - t/2) i of a lattice point, the
reference for the engine's int keys (upsilon.one_sided_key).

pl_value_and_slopes reads a PL function's value and one-sided slopes at x
by a linear scan of all its pieces, where PLFunction reads a breakpoint
off its index and bisects once inside a piece.  merge_collinear is the
stack-based merge of collinear breakpoints by cross-multiplied slopes,
against which PLFunction's merge by its divided-out slopes is checked.

certified_pl is the PL assembly before the kinetic sweep: it evaluates a
level at every crossing of two points (crossings, all pairs) and checks
linearity at each midpoint, so it visits every candidate where the sweep
visits only the winner's crossings.

check_disjointness_theorem is the paper's property that a positive slope
jump of Upsilon at t forces disjoint Z- and Z+, read off the library's
public delta_upsilon_prime and z_sets.  assert_witnesses_connect checks
Upsilon2's witnesses with a fresh span.

tau reads Ozsvath-Szabo's tau off the vertical complex C{i = 0} (and its
mirror image off the horizontal one, C{j = 0}) with GF(2) spans alone; it
shares no code with the threshold searches, and Upsilon's slope is -tau
just right of 0 (Ozsvath, Stipsicz & Szabo, Concordance homomorphisms from
knot Floer homology, 2017).
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cache

import upsilonkit as uk
from upsilonkit.gf2 import Gf2Solver, Gf2Span, support
from upsilonkit.upsilon import one_sided_key
from helpers import boundaries, combine

MAX_DIM = 16


def phi(t, point) -> Fraction:
    """Weight (t/2)*Alex + (1 - t/2)*alg of a lattice point, for t in [0, 2]."""
    t = uk.as_rational(t)
    if not 0 <= t <= 2:
        raise uk.DomainError(f"t = {t} outside [0, 2]")
    i, j = point
    return t / 2 * j + (1 - t / 2) * i


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


def merge_collinear(pts) -> list:
    """pts, strictly increasing in x, with each point collinear with its
    neighbours dropped: each new point pops the last kept one while the
    two before it and it have equal cross-multiplied slopes."""
    out = [pts[0]]
    for p in pts[1:]:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            x2, y2 = p
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(p)
    return out


def tau(C, axis: int) -> int:
    """tau of C off its vertical complex (axis 0) or horizontal complex (axis
    1), from C.generators and C.boundary alone.  The copy U^i x (U^j x) of
    each generator x lies on the axis, at grading gr(x) - 2i (- 2j) and level
    j - i (i - j), and a boundary term U^m y stays on it if i(y) - m = i(x)
    (j(y) - m = j(x)).  tau is the least level s at which a grading-0 cycle
    of level at most s is not a boundary: grading-0 copies join a span of
    (boundary << n | copy) rows in level order, and a row led below bit n
    is a new cycle."""
    on = {g.name: g.point[axis] for g in C.generators}
    level = {g.name: (g.j - g.i) * (1 - 2 * axis) for g in C.generators}
    grading = {g.name: g.grading - 2 * on[g.name] for g in C.generators}
    order = sorted(level, key=level.get)
    bit, n, boundary = {name: 1 << k for k, name in enumerate(order)}, len(order), C.boundary

    def d(x):
        return sum(bit[y] for m, y in boundary[x] if on[y] - m == on[x])

    boundaries = Gf2Span(d(x) for x in order if grading[x] == 1)
    cycles = Gf2Span()
    for x in order:
        if grading[x] == 0:
            row = cycles.add(d(x) << n | bit[x])
            if row >> n == 0 and row not in boundaries:
                return level[x]
    raise AssertionError("every grading-0 cycle on the axis is a boundary")


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
    weights = [phi(t, e.point) for e in coset.basis]
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
        weights = [phi(tp, point) for point in pts]
        return [z for z in members if max(weights[i] for i in support(z)) == level]

    z_minus = minimizers(t - delta)
    z_plus = minimizers(t + delta)
    if set(z_minus) & set(z_plus):
        return None

    gamma_t = brute_gamma(C, t)
    slice1 = C.grading_slice(1)
    t_weights = [phi(t, e.point) for e in slice1]
    s_weights = [phi(s, e.point) for e in slice1]
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
    level, points = reference_threshold(Gf2Span(bs), coset.cycle, items, lambda p: phi(t_side, p))
    assert len(points) == 1, f"weight tie off the crossing arrangement at t = {t_side}"
    outside = ~sum(1 << k for k, e in enumerate(coset.basis) if phi(t_side, e.point) <= level)
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
    return lambda p: (phi(t, p), side * (p[1] - p[0]))


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


def assert_witnesses_connect(C, res):
    """Check each piece's witness of res = upsilon2(C, t), a finite Upsilon2,
    with a fresh span: it names grading-1 elements outside the t half-plane
    but inside the s half-plane at gamma2 at the piece's right end s1, whose
    boundaries with those of the t half-plane and the one-sided directions
    join z- to z+."""
    zs = res.zsets
    assert res.witnesses
    slice1, columns = C.grading_slice(1), C.slice_boundary(1)
    index = {e.name: k for k, e in enumerate(slice1)}
    inside = [columns[k] for k, e in enumerate(slice1) if phi(res.t, e.point) <= res.gamma_t]
    for s0, s1, names in res.witnesses:
        assert set(names) <= index.keys(), s0
        for name in names:
            point = slice1[index[name]].point
            assert phi(res.t, point) > res.gamma_t, (s0, name)
            assert phi(s1, point) <= res.gamma2.evaluate(s1), (s0, name)
        span = Gf2Span(list(zs.v_minus + zs.v_plus) + inside + [columns[index[n]] for n in names])
        assert zs.z_minus ^ zs.z_plus in span, s0
