"""The Upsilon invariant: gamma, its PL function, pivots, slope jumps.

For a parameter t in [0, 2] the weight of a lattice point (i, j) is
phi_t(i, j) = (t/2) j + (1 - t/2) i.  gamma(t) is the smallest w such
that some grading-0 cycle carrying the H0 generator is supported on
points of weight at most w, and Upsilon(t) = -2 gamma(t).

gamma(t) is one level search (_level over threshold), which upsilon2
shares: the unit vectors of the slice elements join the coset's boundary
span in phi_t order until it holds the cycle, and the points of the last
level are those on the support line.  prepare_search reduces a search
modulo its base span once (for gamma, once per complex), each item one
int laid out as a Gf2Solver column, its residue above its own item bit.
So threshold weighs each point once, never copies the base and is the
search's only elimination, and the low bits of its rows and of the
target name, exactly, the admitted items that sum to them: its
certificate's x and kernel, which upsilon2 reads as Z+- and witnesses
with no elimination of its own.  The engine orders points
only by the integer key 2q phi_t for t = p/q (phi_key), with no Fraction
arithmetic per point; phi is the Fraction reference.  Just left or right
of t the key is paired with the slope of phi_t (symbolic perturbation),
so the pivots come from the kernel at t.

gamma as a PL function is one kinetic sweep, level_pl, which upsilon2's
gamma2(s) shares: from t = 0 it keeps the one-sided winner p until phi(p)
meets the phi of another point with a nonzero residue (a kinetic event).
threshold certifies each winner with a functional f, built while its rows
are in hand and only for the right-hand searches the sweep reads it on,
so a certificate is an immutable record holding no rows.  An event that
the certificate survives needs no search, so the searches grow with the
winner changes and the events the certificate cannot decide, not with
the pairs of points or with every event.  Each gamma search just left or
right of a t runs once per complex (_one_sided, memoized on it with
Upsilon): the sweep's searches are the right-hand ones, validation reads
gamma(0) and gamma(2) off those right of 0 and left of 2, and the pivots
p+- and gamma(t) are read off the two at t, so upsilon2, z_sets,
delta_upsilon_prime and the CLI share them and, at a breakpoint of
Upsilon, run only the left-hand search.  The support line is the points
of p-'s key, and delta comes from the first crossings of neighbours in
the phi order on each side of t, with no list of pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, repeat
from typing import Callable, NamedTuple

from .complexes import LatticePoint, ModelComplex, memoized
from .exact import DomainError, PLFunction, as_rational, shared
from .gf2 import Gf2Span, functional


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an engine bug."""


def phi(t, point: LatticePoint) -> Fraction:
    """Weight (t/2)*Alex + (1 - t/2)*alg of a lattice point."""
    t = as_rational(t)
    if not 0 <= t <= 2:
        raise DomainError(f"t = {t} outside [0, 2]")
    i, j = point
    return t / 2 * j + (1 - t / 2) * i


def phi_key(t, side: int = 0) -> tuple[Callable[[LatticePoint], object], int]:
    """(weight, d) ordering points by phi at t (side 0), or just left (-1) or
    right (+1) of t.  For t = p/q in lowest terms, d = 2q and weight(i, j) =
    d phi_t(i, j) = (2q - p) i + p j; at side +-1 it is the pair (d phi_t,
    side (j - i)), lexicographically the phi order at t + side eps for all
    small eps > 0, as phi_t has slope (j - i) / 2 in t: no two points tie."""
    t = as_rational(t)
    if not 0 <= t <= 2:
        raise DomainError(f"t = {t} outside [0, 2]")
    p, d = t.numerator, 2 * t.denominator
    a = d - p
    if side:
        return (lambda point: (a * point[0] + p * point[1], side * (point[1] - point[0]))), d
    return (lambda point: a * point[0] + p * point[1]), d


def prepare_search(base_span: Gf2Span, target: int, items):
    """A level search reduced modulo base_span once: (target, ((point,
    (vector, ...)), ...), n) for the distinct points of the n (vector, point)
    items, laid out as Gf2Solver's columns: item k is its residue << n | 1 << k,
    so its low n bits name the items that sum to it, and the target is its
    residue << n.  threshold is the only elimination the search gets: an item
    whose residue is 0, or depends on those admitted before it, goes into its
    certificate's kernel.  A point whose residues are all 0 still belongs to
    its level."""
    reduce, n = base_span.reduce, len(items)
    points: dict = {}
    for k, (vector, point) in enumerate(items):
        points.setdefault(point, []).append(reduce(vector) << n | 1 << k)
    return reduce(target) << n, tuple((point, tuple(vectors)) for point, vectors in points.items()), n


class Certificate(NamedTuple):
    """Why the target of a search enters at a level, in its residue space.
    x names items of the level and below whose residues sum to the target's;
    kernel is a basis of the item sets of the level and below whose residues
    sum to 0, one per item that reduced to 0.  f, read as w -> parity of
    f & w, is 1 on the target and 0 on every item vector of the points below
    the level, so they do not span it.  Its bits lie above the item bits, so
    on a prepared item it reads the residue alone.  f is None when
    threshold was not asked for it (_level asks just right of t, where the
    sweep reads f), or when the target's residue is 0: such a target, in
    the base span, enters at the first level with x = 0, and no functional
    is 1 on it."""

    x: int
    kernel: tuple
    f: int | None

    def survives(self, p: LatticePoint, met, movers) -> bool:
        """Whether p, the one point of a one-sided level, still wins, with
        this certificate, after the event where the (p, q) pairs of met
        meet: each q joins the points below p if its slope j - i is below
        p's and leaves them otherwise; f may be 1 on no joiner's item, and no
        leaver's item may be in x.  With no f every event fails, so the
        caller searches again."""
        if (f := self.f) is None:
            return False
        for _, q in met:
            vectors = movers[q]
            if q[1] - q[0] < p[1] - p[0]:
                if any((f & v).bit_count() & 1 for v in vectors):
                    return False
            elif any(self.x & v for v in vectors):
                return False
        return True


def threshold(search, weight, dual: bool = False):
    """Least weight at which the target of a prepare_search result enters
    the span of its item residues, admitted from empty in increasing
    weight(point) one level at a time.  Returns (level, points of that level, its
    Certificate); raises ConsistencyError if the target never enters.  Its
    f is built, from the rows below the level, only if dual is true.

    Rows are augmented as the items are, so each carries in its low n bits
    the items that sum to it (the R = DV bookkeeping of Cohen-Steiner,
    Edelsbrunner & Morozov, Vines and vineyards, SoCG 2006).  An item led
    below bit n after reduction has a residue of 0: its low bits go into the
    kernel.  The target is carried along: a new row changes it only when
    it has the target's leading bit, and then that bit falls, so one call
    takes at most one step of the target per row.  The search ends at the
    first level where the target is led below bit n; its low bits are then
    the certificate's x.  The elimination is written out, with no call per
    row: it is the engine's innermost loop."""
    residue, points, n = search
    groups: dict = {}
    for k, (point, _) in enumerate(points):
        groups.setdefault(weight(point), []).append(k)
    rows: dict = {}  # leading bit -> augmented echelon row, in insertion order
    kernel = []
    for level in sorted(groups):
        below, before = len(rows), residue
        for k in groups[level]:
            for v in points[k][1]:
                while (lead := v.bit_length() - 1) in rows:
                    v ^= rows[lead]
                if lead < n:
                    kernel.append(v)
                    continue
                rows[lead] = v
                if lead == residue.bit_length() - 1:
                    residue ^= v
                    while (lead := residue.bit_length() - 1) in rows:
                        residue ^= rows[lead]
        if residue.bit_length() <= n:
            # the rows below the level are a prefix of rows
            f = functional(islice(rows.values(), below), before) if dual and before else None
            return level, {points[k][0] for k in groups[level]}, Certificate(residue, tuple(kernel), f)
    raise ConsistencyError("threshold target not in the span of all items")


@memoized
def _gamma_search(C: ModelComplex):
    """The H0 coset as a prepared search: the cycle and the grading-0 slice
    as (unit vector, point) items modulo the boundary span; item sets are
    chains.  Needs a one-dimensional H0 but no other validity."""
    coset = C.generator_coset()
    items = [(1 << idx, e.point) for idx, e in enumerate(coset.basis)]
    return prepare_search(C._elimination()[1], coset.cycle, items)


def _level(search, t, side: int = 0) -> tuple[Fraction, object, Certificate]:
    """The phi_t value of the level at which the target of search, a
    prepare_search result, enters in the order of phi_key(t, side), the
    points of that level and threshold's certificate of it: gamma(t) and
    gamma2(s).  A one-sided level has one point, as the one-sided keys never
    tie two points, and is given as that point.  Only a right-hand
    certificate carries f, which the sweep reads."""
    weight, d = phi_key(t, side)
    level, points, certificate = threshold(search, weight, side > 0)
    if not side:
        return Fraction(level, d), points, certificate
    if len(points) != 1:
        raise ConsistencyError(f"one-sided weight tie at t = {t}, side {side}")
    return Fraction(level[0], d), points.pop(), certificate


def _next_crossing(pairs, t: Fraction) -> tuple[Fraction, list]:
    """The least x in (t, 2) where phi_x(p) = phi_x(q) for one of the pairs
    (p, q) of points, or 2, and the pairs that meet at x.  phi_x(q) - phi_x(p)
    = q_i - p_i + x ds / 2 with ds the difference of the slopes (j - i), so q
    meets p after t iff it lies below p at t and rises faster, or above and
    rises slower.  The crossings are compared as integer fractions,
    cross-multiplied."""
    b = t.numerator
    a = 2 * t.denominator - b  # a i + b j = 2q phi_t(i, j), as in phi_key
    num, den, met = 2, 1, []
    for pair in pairs:
        (pi, pj), (qi, qj) = pair
        di, dj = qi - pi, qj - pj
        ds = dj - di
        if ds * (a * di + b * dj) < 0:
            n = -2 * di
            if ds < 0:
                n, ds = -n, -ds
            order = n * den - num * ds
            if order < 0:
                num, den, met = n, ds, [pair]
            elif not order:
                met.append(pair)
    return Fraction(num, den), met


def _first_crossing(points, t: Fraction) -> Fraction:
    """The least x in (t, 2) where the phi_x of two of the points agree, or
    2.  Until then their phi order is the one just right of t, and two that
    meet first are neighbours in it (the kinetic-sorting lemma), so the
    neighbours are the only pairs scanned."""
    order = sorted(points, key=phi_key(t, 1)[0])
    return _next_crossing(zip(order, order[1:]), t)[0]


def level_pl(search, what: str, right) -> tuple[PLFunction, tuple[int, ...]]:
    """The level of search, a prepare_search result, as an exact PL function
    of t on [0, 2], and per piece its midpoint certificate's x, by a kinetic
    sweep (Basch, Guibas & Hershberger, SODA 1997).  right(t) is the
    search's one-sided level just right of t, as _level(search, t, 1) gives
    it; gamma's is the memoized _one_sided, so the sweep's searches are the
    ones the pivots read.  Just right of t the level is phi(p) for its one
    point p, and the points below p with a nonzero residue change only where
    phi(p) meets phi(q) for such a q (an event); a point whose residues are
    all 0 adds no row.  p's certificate decides most events with no search
    (McConnell, Mehlhorn, Naeher & Schweitzer, Certifying algorithms, 2011);
    elsewhere the level found just right of the event must continue the
    piece.  Each piece, ending where the winner changes, is checked at its
    midpoint; raises ConsistencyError naming what otherwise."""
    _, points, n = search
    movers = {point: vectors for point, vectors in points if any(v >> n for v in vectors)}
    t = Fraction(0)
    value, p, certificate = right(t)
    breakpoints, xs = [(t, value)], []
    while t < 2:
        t, met = _next_crossing(zip(repeat(p), movers), t)
        if t < 2 and certificate.survives(p, met, movers):
            continue
        (t0, v0), slope = breakpoints[-1], Fraction(p[1] - p[0], 2)
        value, winner = v0 + (t - t0) * slope, p
        if t < 2:
            level, winner, certificate = right(t)
            if level != value:
                raise ConsistencyError(f"{what} not continuous at {t}")
            if winner == p:
                continue
        mid = (t0 + t) / 2
        level, _, at_mid = _level(search, mid)
        if level != (v0 + value) / 2:
            raise ConsistencyError(f"{what} not linear on ({t0}, {t})")
        breakpoints.append((t, value))
        xs.append(at_mid.x)
        p = winner
    return PLFunction(breakpoints), tuple(xs)


@memoized
def _one_sided(C: ModelComplex, t: Fraction, side: int) -> tuple[Fraction, LatticePoint, Certificate]:
    """The gamma search just left (-1) or right (+1) of t, the only one
    there: gamma(t), its winner p and its certificate.  The level is p
    alone, so the certificate's kernel spans the cycles on the points up to
    p (z_sets).  gamma_pl's sweep runs the right-hand searches, and
    validation the ones right of 0 and left of 2, so at a breakpoint of
    Upsilon the pivots find the right-hand search memoized and run the
    left-hand one fresh.  A right-hand certificate carries f, for the
    sweep's events; a left-hand one none."""
    return _level(_gamma_search(C), t, side)


def gamma_at(C: ModelComplex, t) -> Fraction:
    """gamma(t) = min over representing cycles of max weight over support."""
    C.require_valid()
    return _level(_gamma_search(C), t)[0]


def breakpoint_candidates(C: ModelComplex) -> tuple[Fraction, ...]:
    """All t in [0, 2] where two grading-0 weights can cross, plus endpoints.

    Between consecutive candidates the weight order of the slice points
    is constant, so gamma is linear there.  The engine does not read them:
    they are all pairs of slice points, where the kinetic sweep of gamma_pl
    visits only the crossings of the winner and pivot_points only those of
    neighbours.
    """
    cands = {Fraction(0), Fraction(2)}
    for (ai, aj), (bi, bj) in combinations({e.point for e in C.grading_slice(0)}, 2):
        di, dj = ai - bi, aj - bj
        if di != dj:
            t = Fraction(2 * di, di - dj)
            if 0 < t < 2:
                cands.add(t)
    return tuple(sorted(cands))


@memoized
def gamma_pl(C: ModelComplex) -> PLFunction:
    """gamma as an exact PL function of t on [0, 2]."""
    C.require_valid()
    return level_pl(_gamma_search(C), "gamma", lambda t: _one_sided(C, t, 1))[0]


@memoized
def upsilon(C: ModelComplex) -> PLFunction:
    """Upsilon(t) = -2 gamma(t), exact on [0, 2]."""
    return gamma_pl(C).scale(-2)


class PivotData(NamedTuple):
    t: Fraction
    gamma_t: Fraction
    on_line: frozenset  # grading-0 slice points of weight exactly gamma(t)
    p_minus: LatticePoint
    p_plus: LatticePoint
    delta: Fraction  # reported only: half the distance to the nearest other crossing


def _pivots(C: ModelComplex, t) -> tuple[Fraction, Fraction, LatticePoint, LatticePoint]:
    """(t, gamma(t), p-, p+) off the memoized one-sided searches, whose
    levels at t must agree: both are gamma(t), by continuity."""
    C.require_valid()
    t = as_rational(t)
    if not 0 < t < 2:
        raise DomainError(f"pivots are defined for t in (0, 2), got {t}")
    (left, p_minus, _), (right, p_plus, _) = (_one_sided(C, t, side) for side in (-1, 1))
    if left != right:
        raise ConsistencyError(f"one-sided levels {left} and {right} differ at t = {t}")
    return t, left, p_minus, p_plus


@memoized
def pivot_points(C: ModelComplex, t) -> PivotData:
    """The pivots p+- at t, the slice points of p-'s phi_t key (gamma(t)), and delta."""
    t, gamma_t, p_minus, p_plus = _pivots(C, t)
    points = {e.point for e in C.grading_slice(0)}
    weight, _ = phi_key(t)
    on_line = frozenset(q for q in points if weight(q) == weight(p_minus))
    above = _first_crossing(points, t)
    below = 2 - _first_crossing({(j, i) for i, j in points}, 2 - t)  # phi_x(j, i) = phi_{2-x}(i, j)
    return PivotData(t, gamma_t, on_line, p_minus, p_plus, min(t - below, above - t) / 2)


def delta_upsilon_prime(C: ModelComplex, t) -> Fraction:
    """Jump of the derivative of Upsilon at t, cross-checked against the pivots."""
    t, gamma_t, p_minus, p_plus = _pivots(C, t)
    value, left, right = upsilon(C).value_and_slopes(t)
    if value != -2 * gamma_t:
        raise ConsistencyError(f"Upsilon({t}) = {value} but the pivots give {-2 * gamma_t}")
    jump = right - left
    from_pivots = Fraction(2) / t * (p_plus[0] - p_minus[0])
    if jump != from_pivots:
        raise ConsistencyError(
            f"slope jump {jump} disagrees with pivot formula {from_pivots} at t = {t}"
        )
    return shared(jump)
