"""The Upsilon invariant: gamma, its PL function, pivots, slope jumps.

For a parameter t in [0, 2] the weight of a lattice point (i, j) is
phi_t(i, j) = (t/2) j + (1 - t/2) i.  gamma(t) is the smallest w such
that some grading-0 cycle carrying the H0 generator is supported on
points of weight at most w, and Upsilon(t) = -2 gamma(t).

Every gamma and gamma2 search is one level search (_level over
threshold) just left or right of t: the unit vectors of the slice
elements join the coset's boundary span one point at a time, in the phi
order at t -+ eps, until it holds the cycle.  Upsilon is continuous, so
either side's level is gamma(t); the points they stop at are the pivots
p+-.  That phi order is by one int key per point, m 2q phi_t + side
(j - i) for t = p/q and m above the spread of j - i (one_sided_key; the
tests keep the Fraction phi), as phi_t moves with slope (j - i) / 2 in t
(Edelsbrunner & Muecke, Simulation of Simplicity, 1990).  prepare_search
fixes m as it reduces a search modulo its base span once, and threshold
sorts the keys and is its only elimination: the low bits of its rows and
target name the admitted items that sum to them, the certificate's x and
kernel, which upsilon2 reads as Z+- and witnesses.

gamma as a PL function is one kinetic sweep, level_pl, which gamma2(s)
shares: from t = 0 it keeps the right-hand winner p until phi(p) meets
the phi of a point that can fail p's certificate, which holds a
functional f and no rows: one scan of p against the points with a nonzero
residue per certificate finds that meeting, and only there is a search.
Each piece is checked at its right end by the left-hand search there.
Each gamma search just left or right of a t runs once per complex
(_one_sided, memoized): the sweep runs the right-hand ones and the
left-hand ones at its breakpoints, validation reads gamma(0) and
gamma(2) off those right of 0 and left of 2, and gamma_at the left-hand
one at t.  _pivots is the one reader of what the engine knows at t in
(0, 2), and the one check of that range: both searches at t and the
support line, the points whose int key a i + b j = 2q phi_t(i, j) at
t = p/q is p-'s.  pivot_points, delta_upsilon_prime, z_sets and upsilon2
read it alone, so they and the CLI share the searches; the pivots need no
margin around t.

A rational stays a pair of ints on the per-breakpoint path: a level
search builds one Fraction, its level; the sweep compares levels with
keys cross-multiplied and builds its PL function, canonical by
construction, with the slope of each piece; and a slope jump is checked
against Upsilon(t) and the pivots in ints, and reads the slopes off that
function by lookup.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, islice
from typing import NamedTuple

from .complexes import LatticePoint, ModelComplex, memoized
from .exact import DomainError, PLFunction, as_rational, shared
from .gf2 import Gf2Span, functional


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an engine bug."""


def one_sided_key(t: Fraction, side: int, m: int) -> tuple[int, int]:
    """(u, v) with u i + v j = m 2q phi_t(i, j) + side (j - i), t = p/q: for m
    above the spread of j - i, the key of the phi order just left (side -1)
    or right (+1) of t, which ties no two points, as (2q - p) + p = 2q > 0."""
    p, d = t.numerator, 2 * t.denominator
    return (d - p) * m - side, p * m + side


def prepare_search(base_span: Gf2Span, target: int, items):
    """A level search reduced modulo base_span once: (target, ((point,
    (vector, ...)), ...), n, m) for the distinct points of the n (vector, point)
    items, laid out as Gf2Solver's columns: item k is its residue << n | 1 << k,
    so its low n bits name the items that sum to it, and the target is its
    residue << n; m, for one_sided_key, is one more than the spread of j - i.
    threshold is the search's only elimination, and a point whose residues
    are all 0 still belongs to its level."""
    reduce, n = base_span.reduce, len(items)
    points: dict = {}
    for k, (vector, point) in enumerate(items):
        points.setdefault(point, []).append(reduce(vector) << n | 1 << k)
    slopes = [j - i for i, j in points] or [0]
    entries = tuple((point, tuple(vectors)) for point, vectors in points.items())
    return reduce(target) << n, entries, n, max(slopes) - min(slopes) + 1


class Certificate(NamedTuple):
    """Why the target of a search enters at its point p, in its residue
    space.  x names items of p and the points before it whose residues sum
    to the target's; kernel is a basis of the item sets of those points
    whose residues sum to 0.  f, read as w -> parity of f & w, is 1 on the
    target and 0 on every item of the points before p; its bits lie above
    the item bits, so on an item it reads the residue alone.  f is None
    left of t, where no sweep reads it, and for a target in the base span,
    which enters at the first point with x = 0.  threat is the sweep's event
    test: the one scan per certificate skips every other meeting."""

    x: int
    kernel: tuple
    f: int | None

    def threat(self, p: LatticePoint, movers):
        """Which points q of movers can fail this certificate, that of the
        right-hand search won by p, where phi(q) meets phi(p): a joiner, whose
        slope j - i is below p's so it joins the points below p, with an item
        on which f is 1, or a leaver, which leaves them, with an item in x.
        None, as every meeting can fail it, if f is None."""
        if (f := self.f) is None:
            return None
        x, slope = self.x, p[1] - p[0]  # a joiner's slope is below p's
        return lambda q: any((f & v).bit_count() & 1 if q[1] - q[0] < slope else x & v
                             for v in movers[q])


def threshold(search, keys, side: int):
    """(point, Certificate) of the first point after which the target of a
    prepare_search result enters the span of its item residues, admitted in
    increasing keys[k] for its k-th point: the phi order just left (side -1)
    or right (+1) of t, with one_sided_key's keys.  f is built, from the rows
    before the point, only if side > 0.  Raises ConsistencyError if an
    admitted point shares its key with the next, or if the target never enters.

    Rows are augmented as the items are, so each carries in its low n bits
    the items that sum to it (the R = DV bookkeeping of Cohen-Steiner,
    Edelsbrunner & Morozov, Vines and vineyards, SoCG 2006).  An item led
    below bit n after reduction has a residue of 0: its low bits go into the
    kernel.  The target is carried along: a new row changes it only when
    it has the target's leading bit, and then that bit falls, so one call
    takes at most one step of the target per row.  The search ends at the
    first point after which the target is led below bit n; its low bits are
    then the certificate's x.  The elimination is written out, with no call
    per row: it is the engine's innermost loop."""
    residue, points, n, _ = search
    rows: dict = {}  # leading bit -> augmented echelon row, in insertion order
    kernel = []
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for at, k in enumerate(order, 1):  # order[at] is the point after k
        if at < len(order) and keys[k] == keys[order[at]]:
            raise ConsistencyError(f"one-sided weight tie at key {keys[k]}, side {side}")
        below, before = len(rows), residue
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
            # the rows before the point are a prefix of rows
            f = functional(islice(rows.values(), below), before) if side > 0 and before else None
            return points[k][0], Certificate(residue, tuple(kernel), f)
    raise ConsistencyError("threshold target not in the span of all items")


@memoized
def _gamma_search(C: ModelComplex):
    """The H0 coset as a prepared search: the cycle and the grading-0 slice
    as (unit vector, point) items modulo the boundary span; item sets are
    chains.  Needs a one-dimensional H0 but no other validity."""
    coset = C.generator_coset()
    items = [(1 << idx, e.point) for idx, e in enumerate(coset.basis)]
    return prepare_search(C._elimination()[1], coset.cycle, items)


def _level(search, t: Fraction, side: int) -> tuple[Fraction, LatticePoint, Certificate]:
    """The phi_t value at which the target of search, a prepare_search
    result, enters just left (side -1) or right (+1) of t, the point it
    enters at and threshold's certificate of it: gamma(t) and gamma2(s).
    The level, 2q phi_t of the point over 2q for t = p/q, is its one
    Fraction."""
    p, d = t.numerator, 2 * t.denominator
    if not 0 <= p <= d:
        raise DomainError(f"t = {t} outside [0, 2]")
    a, b = one_sided_key(t, 0, 1)
    u, v = one_sided_key(t, side, search[3])
    point, certificate = threshold(search, [u * i + v * j for (i, j), _ in search[1]], side)
    return Fraction(a * point[0] + b * point[1], d), point, certificate


def _next_crossing(p: LatticePoint, points, t: Fraction, threat) -> Fraction:
    """The least x in (t, 2) where phi_x(p) = phi_x(q) for one of the points
    q with threat None or threat(q) true, or 2.  phi_x(q) - phi_x(p) = q_i -
    p_i + x ds / 2 with ds the difference of the slopes (j - i), so q meets
    p after t iff it lies below p at t and rises faster, or above and rises
    slower.  The crossings are compared as integer fractions,
    cross-multiplied, and threat is asked only of a q that meets p before
    the least crossing found so far."""
    a, b = one_sided_key(t, 0, 1)  # a i + b j = 2q phi_t(i, j)
    pi, pj = p
    num, den = 2, 1
    for q in points:
        di, dj = q[0] - pi, q[1] - pj
        ds = dj - di
        if ds * (a * di + b * dj) < 0:
            n = -2 * di
            if ds < 0:
                n, ds = -n, -ds
            if n * den < num * ds and (threat is None or threat(q)):
                num, den = n, ds
    return Fraction(num, den)


def level_pl(search, what: str, at) -> tuple[PLFunction, tuple[int, ...]]:
    """The level of search, a prepare_search result, as an exact PL function
    of t on [0, 2], and per piece the x of the certificate just left of its
    right end, by a kinetic sweep (Basch, Guibas & Hershberger, SODA 1997).
    at(t, side) is the search's level just left (side -1) or right (+1) of
    t, as _level(search, t, side) gives it; gamma's is the memoized
    _one_sided, so the sweep's searches are the ones the pivots read.  Just
    right of t the level is phi(p) for its point p, and the points below p
    with a nonzero residue change only where phi(p) meets phi(q) for such a
    q; a point whose residues are all 0 adds no row.  Two phi lines meet at
    most once, so a meeting that cannot fail p's certificate (McConnell,
    Mehlhorn, Naeher & Schweitzer, Certifying algorithms, 2011) changes
    nothing the sweep reads: one scan per certificate finds the first
    meeting that can, and the level found just right of it must continue
    the piece.  Each piece, ending where the winner changes, is checked at
    its right end by the left-hand search, which builds no f: its level
    must be phi(p) there and its winner p; raises ConsistencyError naming
    what otherwise.  Both checks compare a level with p's int key
    a p_i + b p_j = 2q phi_t(p) at t = p/q, cross-multiplied, and a
    breakpoint's value is the level found there, so the loop builds no
    Fraction of its own but the slope (j - i) / 2 of each piece's winner.

    The function is canonical by construction, so it skips PLFunction's
    coercion, checks and slope division (every coordinate is still shared): the
    sweep starts at 0 and ends at 2; each breakpoint lies strictly right of
    the one before it, as _next_crossing returns an x in (t, 2]; each
    interior breakpoint is a change of winner, at the level of the piece
    before it, as the continuity check has verified; and two distinct
    points with the same phi at t and the same slope j - i would be the
    same point, so consecutive pieces differ in slope and no three
    breakpoints are collinear."""
    _, points, n, _ = search
    movers = {point: vectors for point, vectors in points if any(v >> n for v in vectors)}
    t = t0 = Fraction(0)
    level, p, certificate = at(t, 1)
    breakpoints, slopes, xs = [(shared(t), shared(level))], [], []
    while True:
        t = _next_crossing(p, movers, t, certificate.threat(p, movers))
        a, b = one_sided_key(t, 0, 1)  # a i + b j = 2q phi_t(i, j); a = 0 at t = 2
        key, d, winner = a * p[0] + b * p[1], 2 * t.denominator, p
        if a:
            level, winner, certificate = at(t, 1)
            if level.numerator * d != key * level.denominator:
                raise ConsistencyError(f"{what} not continuous at {t}")
            if winner == p:
                continue
        level, left, check = at(t, -1)
        if level.numerator * d != key * level.denominator or left != p:
            raise ConsistencyError(f"{what} not linear on ({t0}, {t})")
        breakpoints.append((shared(t), shared(level)))
        slopes.append(Fraction(p[1] - p[0], 2))
        xs.append(check.x)
        if not a:
            return PLFunction._canonical(tuple(breakpoints), tuple(slopes)), tuple(xs)
        t0, p = t, winner


@memoized
def _one_sided(C: ModelComplex, t: Fraction, side: int) -> tuple[Fraction, LatticePoint, Certificate]:
    """The gamma search just left (-1) or right (+1) of t, the only one
    there: gamma(t), its winner p and its certificate, whose kernel spans
    the cycles on the points up to p (z_sets).  gamma_pl's sweep runs the
    right-hand searches and the left-hand ones at its breakpoints, and
    validation those right of 0 and left of 2; the pivots and gamma_at read
    the ones at t."""
    return _level(_gamma_search(C), t, side)


def gamma_at(C: ModelComplex, t) -> Fraction:
    """gamma(t) = min over representing cycles of max weight over support."""
    C.require_valid()
    return _one_sided(C, as_rational(t), -1)[0]


def breakpoint_candidates(C: ModelComplex) -> tuple[Fraction, ...]:
    """All t in [0, 2] where two grading-0 weights can cross, plus endpoints.

    Between consecutive candidates the weight order of the slice points
    is constant, so gamma is linear there.  The engine does not read them:
    they are all pairs of slice points, where the kinetic sweep of gamma_pl
    visits only the crossings of the winner.
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
    return level_pl(_gamma_search(C), "gamma", partial(_one_sided, C))[0]


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


def _pivots(C: ModelComplex, t):
    """What the engine reads at t: (t, minus, plus, (a, b), level), with
    minus and plus the memoized searches (gamma(t), p-+, certificate) just
    left and right of t, whose levels must agree, both gamma(t) by
    continuity, and the support line: the points (i, j) with a i + b j =
    level, for (a, b) = one_sided_key(t, 0, 1), so a i + b j = 2q phi_t(i, j)
    at t = p/q, and level the key of p-.  The one check that t lies in
    (0, 2)."""
    C.require_valid()
    t = as_rational(t)
    if not 0 < t.numerator < 2 * t.denominator:
        raise DomainError(f"t must lie in (0, 2), got {t}")
    minus, plus = (_one_sided(C, t, side) for side in (-1, 1))
    if minus[0] != plus[0]:
        raise ConsistencyError(f"one-sided levels {minus[0]} and {plus[0]} differ at t = {t}")
    a, b = one_sided_key(t, 0, 1)
    i, j = minus[1]
    return t, minus, plus, (a, b), a * i + b * j


def pivot_points(C: ModelComplex, t) -> PivotData:
    """The pivots p+- at t and the slice points of p-'s phi_t key, gamma(t)."""
    t, (gamma_t, p_minus, _), (_, p_plus, _), (a, b), level = _pivots(C, t)
    on_line = frozenset(e.point for e in C.grading_slice(0) if a * e.point[0] + b * e.point[1] == level)
    return PivotData(t, gamma_t, on_line, p_minus, p_plus)


def delta_upsilon_prime(C: ModelComplex, t) -> Fraction:
    """Jump of the derivative of Upsilon at t, cross-checked against the
    pivots: Upsilon(t) = -2 gamma(t) and jump t = 2 (p+_i - p-_i), both
    cross-multiplied in ints.  The jump is the one Fraction it builds but
    for an error message."""
    t, (gamma_t, p_minus, _), (_, p_plus, _), _, _ = _pivots(C, t)
    value, left, right = upsilon(C).value_and_slopes(t)
    if value.numerator * gamma_t.denominator != -2 * gamma_t.numerator * value.denominator:
        raise ConsistencyError(f"Upsilon({t}) = {value} but the pivots give {-2 * gamma_t}")
    (ln, ld), (rn, rd) = (left.numerator, left.denominator), (right.numerator, right.denominator)
    num, den = rn * ld - ln * rd, rd * ld
    if num * t.numerator != 2 * (p_plus[0] - p_minus[0]) * den * t.denominator:
        raise ConsistencyError(f"slope jump {right - left} disagrees with pivot formula "
                               f"{Fraction(2) / t * (p_plus[0] - p_minus[0])} at t = {t}")
    return shared(Fraction(num, den))
