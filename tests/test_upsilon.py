import gc
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import upsilonkit as uk
from upsilonkit import DomainError, InvalidComplexError
from upsilonkit.gf2 import Gf2Solver, Gf2Span, support
from upsilonkit.cli import main
from upsilonkit.upsilon import (
    Certificate, _first_crossing, _gamma_search, _level, _next_crossing, _one_sided, phi_key,
    one_sided_key, prepare_search, threshold,
)
from helpers import (
    CATALOG_SCAN, UPSILON, assert_witnesses_connect, boundaries, built, combine,
    count_calls, count_thresholds, interior_breakpoints, pl, skew_one_sided,
)
from oracles import certified_pl, crossings, half_gap, one_sided_weight, reference_threshold


def test_phi():
    assert uk.phi(0, (3, 7)) == 3
    assert uk.phi(2, (3, 7)) == 7
    assert uk.phi(1, (3, 7)) == 5
    assert uk.phi(F(2, 3), (0, 3)) == 1
    assert uk.phi(F(2, 3), (1, 1)) == 1
    with pytest.raises(DomainError):
        uk.phi(F(5, 2), (0, 0))
    with pytest.raises(DomainError):
        uk.phi(-1, (0, 0))


def test_gamma_at():
    C = built("T(3,4)")
    assert uk.gamma_at(C, 0) == 0
    assert uk.gamma_at(C, F(1, 3)) == F(1, 2)
    assert uk.gamma_at(C, F(2, 3)) == 1
    assert uk.gamma_at(C, 1) == 1
    assert uk.gamma_at(C, 2) == 0


def test_gamma_at_reads_the_memoized_left_hand_search(monkeypatch):
    # gamma_at is the left-hand search at t, memoized once per complex and t,
    # whether t comes as "2/3" or F(2, 3): after the pivots at 2/3 have run
    # it, gamma_at there searches no more.
    C = uk.parse_and_build("T(3,4)")
    uk.pivot_points(C, F(2, 3))
    calls = count_thresholds(monkeypatch)
    assert uk.gamma_at(C, F(2, 3)) == uk.gamma_at(C, "2/3") == 1
    assert not calls


def test_gamma_rejects_invalid_complex():
    bad = uk.ModelComplex(
        [uk.Generator("a", 0, 0, 0), uk.Generator("b", 0, 0, 0)], {}
    )
    with pytest.raises(InvalidComplexError):
        uk.gamma_at(bad, 1)


def test_breakpoint_candidates():
    cands = uk.breakpoint_candidates(built("T(3,4)"))
    assert cands[0] == 0 and cands[-1] == 2
    assert F(2, 3) in cands and F(4, 3) in cands
    assert all(0 <= c <= 2 for c in cands)
    assert list(cands) == sorted(set(cands))


def test_upsilon_closed_forms():
    assert uk.upsilon(built("unknot")) == pl([(0, 0), (2, 0)])
    assert uk.upsilon(built("T(2,3)")) == pl([(0, 0), (1, -1), (2, 0)])
    assert uk.upsilon(built("T(2,5)")) == pl([(0, 0), (1, -2), (2, 0)])
    assert uk.upsilon(built("fig8")) == pl([(0, 0), (2, 0)])
    assert uk.upsilon(built("box(3)")) == pl([(0, 0), (2, 0)])
    assert uk.upsilon(built("hom-K")) == pl([(0, 0), (2, 0)])


def test_gamma_pl_cached_and_consistent():
    C = built("T(4,5)")
    assert uk.gamma_pl(C) is uk.gamma_pl(C)
    assert uk.upsilon(C) == uk.gamma_pl(C).scale(-2)
    for t in (0, F(1, 2), 1, F(7, 5), 2):
        assert uk.gamma_pl(C).evaluate(t) == uk.gamma_at(C, t)


def test_upsilon_symmetry():
    for name in CATALOG_SCAN:
        f = uk.upsilon(built(name))
        for t in (F(1, 5), F(1, 2), F(9, 10)):
            assert f.evaluate(t) == f.evaluate(2 - t), name


def test_pivot_points_at_breakpoint():
    pd = uk.pivot_points(built("T(3,4)"), F(2, 3))
    assert pd.gamma_t == 1
    assert pd.on_line == frozenset({(0, 3), (1, 1)})
    assert pd.p_minus == (0, 3)
    assert pd.p_plus == (1, 1)
    assert 0 < pd.delta <= F(1, 6)


def test_pivot_points_at_smooth_point():
    pd = uk.pivot_points(built("T(3,4)"), 1)
    assert pd.p_minus == pd.p_plus == (1, 1)
    assert uk.delta_upsilon_prime(built("T(3,4)"), 1) == 0


def test_pivot_domain(monkeypatch):
    C = built("T(2,3)")
    # delta_upsilon_prime shares its t check with pivot_points, before any
    # search or Upsilon.
    monkeypatch.setattr(UPSILON, "upsilon", None)
    for t in (0, 2, F(5, 2)):
        with pytest.raises(DomainError):
            uk.pivot_points(C, t)
        with pytest.raises(DomainError):
            uk.delta_upsilon_prime(C, t)


# T(3,4) # box(1) # box(1) has a point whose residues are all 0 (its unit
# vectors are boundaries) on the support line at t = 2/3 and 4/3.
ROWLESS_ON_THE_LINE = "T(3,4) # box(1) # box(1)"


@pytest.mark.parametrize("expr", [*CATALOG_SCAN, "-T(13,17) # T(5,7)", "2*hom-K # T(3,4)",
                                  "box(1) # box(2) # box(3)", ROWLESS_ON_THE_LINE])
def test_support_line_is_the_two_sided_level(expr):
    # Lemma (checked): the reference search with the phi_t weights, which
    # admits a whole level at a time, stops at gamma(t), the level of both
    # one-sided searches at t, and every slice point of that weight joins
    # at that level, whether or not its residues are all 0.  So
    # pivot_points reads on_line as the points of p-'s key.  Checked at
    # every interior breakpoint of Upsilon and each piece's midpoint.
    C = uk.parse_and_build(expr)
    bps = [x for x, _ in uk.upsilon(C).breakpoints]
    span, cycle, raw = gamma_raw(C)
    _, items, n, _ = _gamma_search(C)
    residues = {point: [v >> n for v in vectors] for point, vectors in items}
    rowless = 0
    for t in sorted(set(bps[1:-1]) | {(a + b) / 2 for a, b in zip(bps, bps[1:])}):
        level, points = reference_threshold(span, cycle, raw, lambda p: uk.phi(t, p))
        pd = uk.pivot_points(C, t)
        assert (level, points) == (pd.gamma_t, pd.on_line), t
        rowless += sum(not any(residues[point]) for point in points)
    assert rowless == (2 if expr == ROWLESS_ON_THE_LINE else 0)


def test_slope_jumps_run_only_the_one_sided_searches(monkeypatch):
    # After Upsilon, a slope jump runs the left-hand search at t and nothing
    # else: the sweep searched just right of every breakpoint, and no sort
    # of the slice for delta runs.  pivot_points at the same t then reads
    # both memoized searches.
    C = uk.torus_knot_complex(23, 29)
    uk.upsilon(C)
    searches = count_thresholds(monkeypatch)
    levels = count_calls(monkeypatch, UPSILON, "_level")
    sorts = count_calls(monkeypatch, UPSILON, "_first_crossing")
    ts = interior_breakpoints(C)
    assert len(ts) == 31
    for t in ts:
        before = len(searches)
        uk.delta_upsilon_prime(C, t)
        assert len(searches) - before == 1, t
    assert not sorts
    for t in ts:
        uk.pivot_points(C, t)
    assert len(searches) == len(ts) and len(sorts) == 2 * len(ts)
    assert [side for _, _, side in levels] == [-1] * len(ts)


@pytest.mark.parametrize("expr, breakpoints, searches", [("T(23,29)", 33, 96),
                                                         ("-T(13,17) # T(5,7)", 21, 61)])
def test_one_gamma_search_per_t_and_side(monkeypatch, expr, breakpoints, searches):
    # validate, Upsilon and the slope jump at every interior breakpoint (an
    # upsilon-staircase op) run each gamma search, just left or right of a
    # t, once: validation the ones right of 0, where the sweep starts, and
    # left of 2, the sweep its right-hand searches and its midpoint checks,
    # left of each piece's midpoint, and each jump only its left-hand
    # search.  Searching right of each breakpoint again made 128 and 81.
    # Only the right-hand searches build f: building it for every search
    # would make 96 and 61 functionals.
    calls = count_thresholds(monkeypatch)
    levels = count_calls(monkeypatch, UPSILON, "_level")
    functionals = count_calls(monkeypatch, UPSILON, "functional")
    C = uk.parse_and_build(expr)
    C.validate()
    f = uk.upsilon(C)
    jumps = [uk.delta_upsilon_prime(C, t) for t, _ in f.breakpoints[1:-1]]
    assert len(f.breakpoints) == breakpoints and all(jumps)
    assert len(calls) == searches
    sides = [(t, side) for _, t, side in levels]
    assert len(sides) == len(set(sides)) == searches
    mids = {((a + b) / 2, -1) for (a, _), (b, _) in zip(f.breakpoints, f.breakpoints[1:])}
    assert len(mids) == breakpoints - 1 and mids <= set(sides)
    assert sides.count((0, 1)) == 1 and (2, -1) in sides
    assert len(functionals) == {"T(23,29)": 32, "-T(13,17) # T(5,7)": 21}[expr]
    # Every one but the midpoint checks is memoized; only a right-hand one
    # carries f.
    held = [(side, _one_sided(C, t, side)[2]) for t, side in sides if (t, side) not in mids]
    assert len(calls) == searches
    assert all(c.f is None if side < 0 else isinstance(c.f, int) for side, c in held)


def test_sweep_refuses_a_level_off_its_piece(monkeypatch):
    # The level just right of an event must continue the piece, and the
    # left-hand level at each piece's midpoint must lie on it.
    C = uk.torus_knot_complex(3, 4)
    C.validate()
    skew_one_sided(monkeypatch, lambda side: 1)
    with pytest.raises(uk.ConsistencyError, match="gamma not continuous at 2/3"):
        uk.gamma_pl(C)
    monkeypatch.undo()
    level = UPSILON._level

    def skewed(search, t, side):
        value, *rest = level(search, t, side)
        return (value + 1 if side < 0 else value, *rest)

    # C's searches right of 0 and left of 2, from validate, are memoized
    # unskewed, so only the midpoint checks are skewed.
    monkeypatch.setattr(UPSILON, "_level", skewed)
    with pytest.raises(uk.ConsistencyError, match=r"gamma not linear on \(0, 2/3\)"):
        uk.gamma_pl(C)


def test_pivots_refuse_one_sided_levels_that_differ(monkeypatch):
    skew_one_sided(monkeypatch, lambda side: side > 0)
    for read in (uk.pivot_points, uk.delta_upsilon_prime):
        with pytest.raises(uk.ConsistencyError, match="one-sided levels 1 and 2 differ at t = 2/3"):
            read(uk.torus_knot_complex(3, 4), F(2, 3))  # fresh: nothing memoized


def test_slope_jump_refuses_an_upsilon_off_the_one_sided_level(monkeypatch):
    # Both sides agree, and the pivots and so the pivot formula are right,
    # but gamma(t) is not -Upsilon(t) / 2.  Upsilon comes first: its sweep
    # reads the same right-hand searches, and would refuse the skewed one.
    C = uk.torus_knot_complex(3, 4)
    uk.upsilon(C)
    skew_one_sided(monkeypatch, lambda side: 1)
    assert uk.pivot_points(C, F(2, 3)).gamma_t == 2
    with pytest.raises(uk.ConsistencyError, match=r"Upsilon\(2/3\) = -2 but the pivots give -4"):
        uk.delta_upsilon_prime(C, F(2, 3))


def test_derivative_jumps():
    assert uk.delta_upsilon_prime(built("T(3,4)"), F(2, 3)) == 3
    assert uk.delta_upsilon_prime(built("figure6"), 1) == -4
    assert uk.delta_upsilon_prime(built("T(5,7)"), F(2, 5)) == 5


def test_jump_cross_check_everywhere():
    # delta_upsilon_prime raises ConsistencyError if the PL slopes and
    # the pivot formula ever disagree.
    for name in CATALOG_SCAN:
        C = built(name)
        for t in interior_breakpoints(C):
            jump = uk.delta_upsilon_prime(C, t)
            f = uk.upsilon(C)
            _, left, right = f.value_and_slopes(t)
            assert jump == right - left


def oss_gamma(p, q):
    """gamma(t) of T(p,q) from the Ozsvath-Stipsicz-Szabo formula: the
    minimum over 0 <= m <= 2g of #(S cap [0, m)) + t (g - m) / 2, with S
    the semigroup generated by p and q.  Returns the formula as a
    function and the t in (0, 2) where two of its lines cross."""
    g = (p - 1) * (q - 1) // 2
    semigroup = {a * p + b * q for a in range(2 * g // p + 1) for b in range(2 * g // q + 1)}
    lines = [(sum(1 for x in semigroup if x < m), F(g - m, 2)) for m in range(2 * g + 1)]

    def gamma(t):
        return min(c + t * slope for c, slope in lines)

    crossings = {
        (c2 - c1) / (k1 - k2)
        for c1, k1 in lines for c2, k2 in lines if k1 != k2
    }
    return gamma, {t for t in crossings if 0 < t < 2}


@pytest.mark.parametrize("p,q", [(8, 11), (9, 11)])
def test_torus_knots_match_oss_formula_past_brute_force(p, q):
    # Coset dimensions 20 and 24 exceed the brute-force oracle's MAX_DIM.
    C = uk.torus_knot_complex(p, q)
    gamma, formula_crossings = oss_gamma(p, q)
    engine = uk.upsilon(C)
    # Both sides are PL with breakpoints inside this union, so agreeing on
    # it means agreeing everywhere.
    for t in set(uk.breakpoint_candidates(C)) | formula_crossings:
        assert engine.evaluate(t) == -2 * gamma(t), (p, q, t)


def test_upsilon_additive_on_a_sum():
    a, b = uk.torus_knot_complex(3, 4), uk.torus_knot_complex(2, 5)
    assert uk.upsilon(uk.tensor(a, uk.dual(b))) == uk.upsilon(a) + -uk.upsilon(b)


def midpoints_and(xs):
    """xs and the midpoint of each pair of neighbours."""
    return list(xs) + [(a + b) / 2 for a, b in zip(xs, xs[1:])]


@pytest.mark.parametrize("expr", ["T(13,17)", "2*hom-K"])
def test_integer_keys_match_fraction_weights_for_gamma(expr):
    # The engine orders slice points by the integer 2q phi_t, a tie by its
    # slope j - i, and searches modulo the boundary span; the reference
    # grows a copy of that span with the Fraction weight phi_t itself, a
    # whole level at a time.  Each side stops in the reference's level, at
    # one of its points.  Both complexes are past the brute-force oracle's
    # MAX_DIM.
    C = uk.parse_and_build(expr)
    span, cycle, items = gamma_raw(C)
    for t in midpoints_and(uk.breakpoint_candidates(C)):
        level, points = reference_threshold(span, cycle, items, lambda p: uk.phi(t, p))
        for side in (-1, 1):
            at, p, _ = _level(_gamma_search(C), t, side)
            assert at == level and p in points, (expr, t, side)


def gamma_raw(C):
    """(base span, target, items) of the gamma search, with a fresh span of
    the boundaries: the cycle and the grading-0 slice's unit vectors."""
    coset = C.generator_coset()
    items = [(1 << k, e.point) for k, e in enumerate(coset.basis)]
    return Gf2Span(boundaries(C)), coset.cycle, items


def gamma2_search(C, res):
    """(base span, target, items) of the gamma2 search of res = upsilon2(C, t),
    rebuilt as upsilon2 sets it up but split at gamma(t) by the Fraction phi."""
    zs, t = res.zsets, res.t
    slice1, columns = C.grading_slice(1), C.slice_boundary(1)
    inside = [k for k, e in enumerate(slice1) if uk.phi(t, e.point) <= res.gamma_t]
    base = Gf2Span(list(zs.v_minus + zs.v_plus) + [columns[k] for k in inside])
    items = [(columns[k], e.point) for k, e in enumerate(slice1) if k not in set(inside)]
    return base, zs.z_minus ^ zs.z_plus, items


@pytest.mark.parametrize("expr,t", [
    ("2*hom-K", F(1)), ("nK(3)", F(1)),
    # At t = 2/3 the Z sets of 2*hom-K and nK(3) meet, so there is no sweep;
    # a sum with T(3,4) has one.
    ("2*hom-K # T(3,4)", F(2, 3)), ("nK(3) # T(3,4)", F(2, 3)),
    # A mixed-sign sum, where a sweep that misses points crossing the winner
    # from below errs, and sums with more pieces and larger slices.
    ("T(3,4) # -T(2,5)", F(2, 3)), ("nK(3) # T(5,7)", F(2, 5)), ("box(1) # box(2) # box(3)", F(1)),
])
def test_integer_keys_match_fraction_weights_for_gamma2(expr, t):
    # The gamma2 sweep's search, rebuilt as upsilon2 sets it up and run by the
    # reference with Fraction weights at every s crossing and midpoint.
    C = uk.parse_and_build(expr)
    res = uk.upsilon2(C, t)
    assert res.zsets.disjoint
    base, target, items = gamma2_search(C, res)
    for s in midpoints_and(crossings(p for _, p in items)):
        level, _ = reference_threshold(base, target, items, lambda p: uk.phi(s, p))
        assert res.gamma2.evaluate(s) == level, (expr, t, s)


def sweeps_match_every_crossing(C) -> int:
    """Check gamma_pl and every finite gamma2 at 2/3, 1 and each interior
    breakpoint against the reference, which evaluates the same level search
    at every crossing of two of its points and at each midpoint, and check
    each finite gamma2's witnesses; returns the number of finite gamma2
    checked."""
    assert uk.gamma_pl(C) == certified_pl(lambda t: _level(_gamma_search(C), t, -1)[0], crossings(
        e.point for e in C.grading_slice(0)), "gamma")
    finite = 0
    for t in sorted({F(2, 3), F(1)} | set(interior_breakpoints(C))):
        res = uk.upsilon2(C, t)
        if not res.gamma2.is_finite:
            continue
        base, target, items = gamma2_search(C, res)
        search = prepare_search(base, target, items)
        reference = certified_pl(lambda s: _level(search, s, -1)[0], crossings(p for _, p in items), "gamma2")
        assert res.gamma2 == reference, t
        assert_witnesses_connect(C, res)
        finite += 1
    return finite


@pytest.mark.parametrize("expr", ["T(13,17)", "-T(13,17)", "2*hom-K", "nK(3) # T(5,7)",
                                  "T(3,4) # -T(2,5)", "2*hom-K # T(3,4)"])
def test_kinetic_sweep_matches_every_crossing(expr):
    # gamma_pl and gamma2 follow only the winner's crossings, and search at
    # a crossing only where the winner's certificate fails.
    finite = sweeps_match_every_crossing(uk.parse_and_build(expr))
    assert finite or expr == "-T(13,17)"  # mirrors of L-space knots have Z sets that meet


SYMMETRIC_STAIRS = st.builds(lambda sign, a, b: f"{sign}stair[{a},{b},{b},{a}]",
                             st.sampled_from(["", "-"]), st.integers(1, 3), st.integers(1, 3))
SWEEP_SUMS = st.builds(lambda stairs, extra: " # ".join(stairs + extra),
                       st.lists(SYMMETRIC_STAIRS, min_size=1, max_size=3),
                       st.lists(st.sampled_from(["hom-K", "box(1)", "T(3,4)", "-T(2,5)", "figure6"]),
                                max_size=1))


@settings(max_examples=50, deadline=None)
@given(SWEEP_SUMS)
def test_certified_sweep_matches_every_crossing_on_random_sums(expr):
    # Signed sums of symmetric staircases, some with an atom that is no
    # staircase: their winners meet many points with rows from both sides,
    # where the event test must tell joiners from leavers.
    sweeps_match_every_crossing(uk.parse_and_build(expr))


def certificate_holds(raw, t):
    """Check the certificate of the one-sided search of raw = (base span,
    target, (vector, point) items) at t against its definition, with fresh
    spans and solvers; returns (the number of points below the winner, the
    rank of the admitted items' kernel)."""
    base, target, items = raw
    search = prepare_search(base, target, items)
    prepared, points, n, _ = search
    _, p, certificate = _level(search, t, 1)
    f, x = certificate.f >> n, certificate.x
    assert f << n == certificate.f, t  # f reads an item's residue alone
    weight = one_sided_weight(t, 1)
    below = [vectors for q, vectors in points if weight(q) < weight(p)]
    assert (f & prepared >> n).bit_count() % 2 == 1, t
    assert not any((f & v >> n).bit_count() % 2 for vectors in below for v in vectors), t
    # x is exact: items of the winner and the points before it whose
    # residues sum to the target's, so their vectors sum to it modulo the base.
    vectors = [v for v, _ in items]
    admitted = {k for k, (_, q) in enumerate(items) if weight(q) <= weight(p)}
    target_residue, residues = base.reduce(target), [base.reduce(v) for v in vectors]
    assert set(support(x)) <= admitted, t
    assert p in {items[k][1] for k in support(x)}, t
    assert combine(residues, x) == target_residue, t
    assert combine(vectors, x) ^ target in base, t
    # The kernel reduces to 0 and is a basis of the kernel of the admitted
    # vectors modulo the base.
    combos = certificate.kernel
    assert all(set(support(c)) <= admitted and not combine(residues, c) for c in combos), t
    rank = Gf2Span(combos).rank
    assert rank == len(combos), t
    assert rank == len(Gf2Solver([*base.basis(), *(vectors[k] for k in sorted(admitted))]).kernel_basis()), t
    return len(below), rank


@pytest.mark.parametrize("expr", ["T(3,4) # -T(2,5)", "2*hom-K", "nK(3) # T(5,7)"])
def test_one_sided_search_certificate(expr):
    # The dual f is 1 on the target and 0 on every item residue of the
    # points before the winner just right of t; the primal x is an exact
    # set of items of the winner and points before it whose residues sum to
    # the target's, and the kernel is a basis of the rest.
    C = uk.parse_and_build(expr)
    ts = sorted({F(0), F(1, 3), F(2, 3), F(1), F(3, 2)} | set(interior_breakpoints(C)))
    below, ranks = zip(*(certificate_holds(gamma_raw(C), t) for t in ts))
    assert max(below) > 1 and max(ranks) > 0, (below, ranks)


def test_gamma2_search_certificate():
    C = uk.parse_and_build("nK(3) # T(5,7)")
    res = uk.upsilon2(C, F(2, 5))
    raw = gamma2_search(C, res)
    bps = [s for s, _ in res.gamma2.breakpoints]
    below, ranks = zip(*(certificate_holds(raw, s) for s in sorted(set(bps[:-1]) | {F(1, 3), F(1), F(3, 2)})))
    assert max(below) > 1 and max(ranks) > 0, (below, ranks)


def test_only_right_hand_certificates_carry_f():
    # threshold builds f just right of t, where the sweep reads it, and
    # not left of t.  A certificate is the record (x, kernel, f) alone.
    assert Certificate._fields == ("x", "kernel", "f")
    C = uk.parse_and_build("nK(3) # T(5,7)")
    gamma2 = prepare_search(*gamma2_search(C, uk.upsilon2(C, F(2, 5))))
    for search in (_gamma_search(C), gamma2):
        for t in (F(1, 3), F(1), F(3, 2)):
            assert isinstance(_level(search, t, 1)[2].f, int), t
            assert _level(search, t, -1)[2].f is None, t


def weight_keys(search, weight, side):
    """threshold's keys for the order by (weight(p), side (j - i)) of the
    points p = (i, j) of search, for any int weight: weight(p) m + side (j -
    i), with the search's own m, one more than the spread of j - i."""
    m = search[3]
    return [weight(p) * m + side * (p[1] - p[0]) for p, _ in search[1]]


VECTORS = st.integers(0, (1 << 16) - 1)


@settings(max_examples=200, deadline=None)
@given(base=st.lists(VECTORS, max_size=6), weights=st.lists(st.integers(0, 3), min_size=5, max_size=5),
       items=st.lists(st.tuples(VECTORS, st.integers(0, 4)), max_size=12),
       combo=st.integers(0, (1 << 12) - 1), extra=st.just(0) | VECTORS)
def test_threshold_matches_the_reference_on_dense_searches(base, weights, items, combo, extra):
    # Dense 16-bit vectors over a random base, with no staircase shape and
    # tied weights, keyed w m + side (j - i) by weight_keys: on each side the
    # level and its point are the reference's with the weight (w, side (j -
    # i)), and the certificate meets its definition with fresh spans and
    # solvers.  Either side stops in the level where the reference,
    # admitting whole levels of weight w, holds the target, at one of that
    # level's points: the lemma the one-sided searches rest on.  The target
    # is a sum of items, off by extra, so it mostly enters.
    base, items = Gf2Span(base), [(v, (p, 0)) for v, p in items]
    vectors = [v for v, _ in items]
    target = combine(vectors, combo & ((1 << len(items)) - 1)) ^ extra
    search = prepare_search(base, target, items)
    prepared, _, n, _ = search
    target_residue, residues = base.reduce(target), [base.reduce(v) for v in vectors]

    def weight(point):
        return weights[point[0]]

    two_sided = reference_threshold(base, target, items, weight)
    for side in (-1, 1):
        def key(point):
            return weight(point), side * (point[1] - point[0])

        reference = reference_threshold(base, target, items, key)
        if reference is None:
            with pytest.raises(uk.ConsistencyError, match="threshold target not in the span of all items"):
                threshold(search, weight_keys(search, weight, side), side)
            continue
        p, certificate = threshold(search, weight_keys(search, weight, side), side)
        level = weight(p)
        assert ((level, side * (p[1] - p[0])), {p}) == reference
        assert level == two_sided[0] and p in two_sided[1]
        x, kernel = certificate.x, certificate.kernel
        admitted = {k for k, (_, q) in enumerate(items) if key(q) <= key(p)}
        # x is exact.
        assert set(support(x)) <= admitted
        assert combine(residues, x) == target_residue and combine(vectors, x) ^ target in base
        # The kernel is independent and of full rank among the admitted items.
        assert all(set(support(c)) <= admitted and not combine(residues, c) for c in kernel)
        rank = Gf2Span(kernel).rank
        assert rank == len(kernel)
        assert rank == len(Gf2Solver([*base.basis(), *(vectors[k] for k in sorted(admitted))]).kernel_basis())
        # f is 1 on the target and 0 on every item before p, built only on
        # the right; a target in the base enters at the first point with x =
        # 0, and has no f.
        if not target_residue:
            assert x == 0
        if side < 0 or not target_residue:
            assert certificate.f is None
            continue
        f = certificate.f >> n
        assert f << n == certificate.f
        assert (f & prepared >> n).bit_count() % 2 == 1
        below = [residues[k] for k, (_, q) in enumerate(items) if key(q) < key(p)]
        assert not any((f & r).bit_count() % 2 for r in below)


GRID = st.tuples(st.integers(-3, 3), st.integers(-3, 3))  # phi_t ties are frequent
FAR = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@settings(max_examples=200, deadline=None)
@given(t=st.fractions(0, 2, max_denominator=40) | st.sampled_from([F(0), F(1, 2), F(1), F(2, 3), F(2)]),
       points=st.sets(GRID, min_size=2, max_size=20) | st.sets(FAR, min_size=2, max_size=20))
def test_one_sided_keys_never_tie(t, points):
    # The lemma the one-sided searches rest on: with m one more than the
    # spread of j - i, one_sided_key's int key is injective on lattice
    # points and orders them by (phi_key(t) weight, side (j - i)), as the
    # weight is (2q - p) i + p j with 2q - p + p > 0 and |side d(j - i)| < m.
    # So threshold, which sorts by the key alone, never meets a tie.
    weight, _ = phi_key(t)
    slopes = [j - i for i, j in points]
    m = max(slopes) - min(slopes) + 1
    for side in (-1, 1):
        u, v = one_sided_key(t, side, m)
        keys = {p: u * p[0] + v * p[1] for p in points}
        assert len(set(keys.values())) == len(points), (t, side)
        by_pair = sorted(points, key=lambda p: (weight(p), side * (p[1] - p[0])))
        assert sorted(points, key=keys.__getitem__) == by_pair, (t, side)


def test_a_target_in_the_base_has_no_functional():
    # Its residue is 0, so it enters at the first point with x = 0 and no
    # functional is 1 on it: f is None, and the certificate decides no
    # event, so a sweep would search again at the next one.
    search = prepare_search(Gf2Span([2]), 2, [(1, (0, 0))])
    p, certificate = threshold(search, weight_keys(search, lambda p: p[0], 1), 1)
    assert (_level(search, F(0), 1)[0], p, certificate.x) == (0, (0, 0), 0)
    assert certificate.f is None
    assert not certificate.survives((0, 0), [], {})
    assert not certificate.survives((0, 0), [((0, 0), (1, 0))], {(1, 0): (1 << 1,)})


@pytest.mark.parametrize("target,items", [(0b100, [(0b001, (0, 0)), (0b011, (1, 0))]),
                                          (0b100, []), (0, [])])
def test_threshold_refuses_a_target_that_never_enters(target, items):
    # A target outside the span of the base and every item, and a search
    # with no items, where no level is searched at all.
    search = prepare_search(Gf2Span([0b010]), target, items)
    for side in (-1, 1):
        with pytest.raises(uk.ConsistencyError, match="threshold target not in the span of all items"):
            threshold(search, weight_keys(search, lambda point: point[0], side), side)


def test_threshold_refuses_two_points_of_one_weight_and_slope():
    # No one_sided_key ties two lattice points (one weight and one slope j -
    # i), but keys that do have no one-sided order.  Keys 5, 5, 6 tie two
    # points admitted before the winner, when the target is the third
    # point's, or the winner and the next point, when it is the first's.
    items = [(0b001, (0, 0)), (0b010, (1, 1)), (0b100, (0, 1))]
    for target, winner in ((0b100, (0, 1)), (0b001, (0, 0))):
        search = prepare_search(Gf2Span(), target, items)
        for side in (-1, 1):
            with pytest.raises(uk.ConsistencyError, match=f"one-sided weight tie at key 5, side {side}"):
                threshold(search, [5, 5, 6], side)
            # Keys apart, the same search stops at the point that holds the target.
            p, certificate = threshold(search, [5, 6, 7], side)
            assert (p, certificate.x) == (winner, target)


def test_upsilon_work_grows_with_the_winner_changes(monkeypatch):
    # T(23,29): 33 breakpoints among 3043 crossing candidates.  The sweep
    # searches at the start, at each event where the winner's certificate
    # fails and at the midpoint of each piece (here each event changes the
    # winner), where one search per candidate and midpoint made 6085.
    C = uk.torus_knot_complex(23, 29)
    C.validate()
    calls = count_thresholds(monkeypatch)
    assert len(uk.upsilon(C).breakpoints) == 33
    assert len(calls) <= 70


def test_upsilon_searches_only_where_the_certificate_fails(monkeypatch):
    # -T(13,17) # T(5,7): 21 breakpoints, but its winner meets points with
    # rows at 293 events; a search at each event and at each piece's
    # midpoint made 588.  The certificate's x is exact, so a leaver none of
    # whose items x names lets the winner stand: 41 searches, where an x
    # holding every point that went into its rows made 53.
    C = uk.parse_and_build("-T(13,17) # T(5,7)")
    C.validate()
    calls = count_thresholds(monkeypatch)
    assert len(uk.upsilon(C).breakpoints) == 21
    assert len(calls) <= 41


def test_no_engine_path_builds_the_crossing_candidates(monkeypatch, capsys):
    # delta comes from neighbours in the two one-sided orders at t; with the
    # list of all crossing candidates refused, it must still be half the gap
    # to the nearest crossing among all pairs, and what reads the pivots runs.
    reference = crossings(e.point for e in built("T(5,7)").grading_slice(0))

    def refuse(C):
        raise AssertionError("breakpoint_candidates called")

    monkeypatch.setattr(UPSILON, "breakpoint_candidates", refuse)
    monkeypatch.setattr(uk, "breakpoint_candidates", refuse)
    C = uk.torus_knot_complex(5, 7)
    ts = sorted(set(interior_breakpoints(C)) | {F(1, 2)})
    for t in ts:
        assert uk.pivot_points(C, t).delta == half_gap(reference, t), t
    assert uk.upsilon2(C, F(2, 3)).smooth_point  # 2/3 is no breakpoint of T(5,7)
    assert uk.genus_report(C, ts).combined == 12  # the genus of T(5,7)
    assert main(["pivots", "T(5,7)", "--t", "1/2", "--json"]) == 0
    assert F(json.loads(capsys.readouterr().out)["delta"]) == half_gap(reference, F(1, 2))


SCAN_POINTS = st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=7)


@given(points=SCAN_POINTS, data=st.data())
@example(points={(0, 0), (1, 1), (2, 2), (0, 3)}, data=None)  # three parallel: equal j - i
@example(points={(0, 2), (1, 1), (2, 0), (3, 3)}, data=None)  # three lines meet at t = 1
def test_adjacent_pair_scan_finds_the_nearest_crossings(points, data):
    # The first crossing after t is between neighbours just right of t, and
    # the last one before t is 2 minus the first after 2 - t of the points
    # with i and j swapped: both against every pair, also with t exactly at
    # a crossing, and the sweep's (p, q) for q in points form against p's
    # pairs, with the points that meet p there.
    cands = crossings(points)
    interior = cands[1:-1]
    if data is None:
        ts = interior + [F(1, 2), F(3, 2)]
    else:
        fraction = st.fractions(F(1, 1000), F(1999, 1000), max_denominator=1000)
        ts = [data.draw(st.sampled_from(interior) if interior and data.draw(st.booleans()) else fraction)]
    swapped = {(j, i) for i, j in points}
    p = min(points)
    own = {c for q in points for c in crossings({p, q})}
    for t in ts:
        assert _first_crossing(points, t) == min(c for c in cands if c > t), (points, t)
        assert 2 - _first_crossing(swapped, 2 - t) == max(c for c in cands if c < t), (points, t)
        x, met = _next_crossing(((p, q) for q in points), t)
        assert x == min(c for c in own if c > t), (p, t)
        if x < 2:
            meeting = [q for q in points if q != p and uk.phi(x, q) == uk.phi(x, p)]
            assert sorted(q for _, q in met) == sorted(meeting), (p, t)


def traced(search):
    """A copy of search whose vectors are Traced ints, and the log of the
    XORs made with them: (copy, log, Traced).  An XOR with a Traced operand
    gives a Traced int and logs (left, right, result), so a test can follow
    vectors through threshold's elimination, which makes no call per row."""
    log = []

    class Traced(int):
        def __xor__(self, other):
            out = Traced(int(self) ^ int(other))
            log.append((self, other, out))
            return out

        def __rxor__(self, other):
            out = Traced(int(other) ^ int(self))
            log.append((other, self, out))
            return out

    target, points, n, m = search
    copy = (Traced(target), tuple((point, tuple(Traced(v) for v in vectors)) for point, vectors in points), n, m)
    return copy, log, Traced


@pytest.mark.parametrize("expr,t", [("-T(5,7)", F(1, 3)), ("T(3,4) # -T(2,5)", F(1, 3)),
                                    ("2*hom-K", F(1, 3))])
def test_threshold_carries_the_target_residue(expr, t):
    # threshold starts from the prepared target's residue and only steps it,
    # each step lowering the leading bit: at most one step per row, so per
    # item, and no membership test of the target per level.  Rows are
    # counted as the ranks of the points' residues.  The residue is
    # followed by identity from the target through the XORs made with it;
    # it ends led below bit n, the certificate's x in its item bits.
    C = uk.parse_and_build(expr)
    search = _gamma_search(C)
    residue, points, n, _ = search
    rows = sum(Gf2Span(v >> n for v in vectors).rank for _, vectors in points)
    weight, _ = phi_key(t)
    for side in (-1, 1):
        copy, log, _ = traced(search)
        p, certificate = threshold(copy, weight_keys(copy, weight, side), side)
        level = weight(p)
        own = []  # the residue's values after the target
        for left, _, out in log:
            if left is (own[-1] if own else copy[0]):
                own.append(out)
        assert own[-1] == certificate.x and own[-1].bit_length() <= n
        assert len({weight(p) for p, *_ in points if weight(p) < level}) > 1  # several levels searched
        lengths = [v.bit_length() for v in [residue] + own]
        assert all(a > b for a, b in zip(lengths, lengths[1:])), lengths
        assert len(own) <= rows <= len(C.generator_coset().basis)
        values = {id(v) for v in [copy[0]] + own}
        assert sum(id(left) in values for left, _, _ in log) == len(own)  # each value stepped once


@pytest.mark.parametrize("expr", ["2*hom-K", "T(3,4) # -T(2,5)"])
def test_threshold_never_copies_or_reduces_against_the_base(monkeypatch, expr):
    # The gamma search is reduced modulo the boundary span once, when it is
    # prepared: each threshold call grows its echelon rows from empty out of
    # the search's own vectors, and never copies the base or reduces a
    # vector against it.
    C = uk.parse_and_build(expr)
    search = _gamma_search(C)
    touched = []  # each span method call
    for method in ("__init__", "add", "reduce", "basis", "__contains__"):
        def recording(self, *args, original=getattr(Gf2Span, method)):
            touched.append(self)
            return original(self, *args)
        monkeypatch.setattr(Gf2Span, method, recording)
    for t in (0, F(1, 3), 1, 2):
        for side in (-1, 1):
            copy, log, Traced = traced(search)
            threshold(copy, weight_keys(copy, phi_key(t)[0], side), side)
            assert not touched, t  # no span: neither the base nor a copy of it
            assert log and all(isinstance(v, Traced) for entry in log for v in entry), t


def test_z_sets_read_the_memoized_one_sided_searches(monkeypatch):
    # _one_sided memoizes each one-sided gamma search as gamma(t), its
    # winner and its certificate.  At a breakpoint the sweep has run the
    # right-hand search, so the pivots and z_sets run only the left-hand
    # one.  The left-hand certificate carries no f, the right-hand one f.
    # x is a coset cycle on the points up to the winner and each kernel
    # combination a boundary among them.  z+- is that x and V+- spans that
    # kernel, which is a basis.  Checked against a fresh span of the
    # boundaries, not the prepared residues.
    C, t = uk.parse_and_build("T(3,4) # -T(2,5)"), F(2, 3)
    assert t in interior_breakpoints(C)
    searches = count_thresholds(monkeypatch)
    pd = uk.pivot_points(C, t)
    assert pd.p_minus != pd.p_plus
    span, coset = Gf2Span(boundaries(C)), C.generator_coset()
    zs = uk.z_sets(C, t)
    assert len(searches) == 1
    kernels = 0
    for side, pivot, z in ((-1, pd.p_minus, zs.z_minus), (1, pd.p_plus, zs.z_plus)):
        held = _one_sided(C, t, side)
        assert held is _one_sided(C, t, side)
        value, p, certificate = held
        x, kernel = certificate.x, certificate.kernel
        assert certificate.f is None if side < 0 else isinstance(certificate.f, int)
        assert (value, p, x) == (pd.gamma_t, pivot, z)
        assert Gf2Span(kernel).rank == len(kernel) == len(zs.v_minus if side < 0 else zs.v_plus)
        assert all(isinstance(v, int) for v in (x, *kernel))
        weight = one_sided_weight(t, side)
        assert all(weight(coset.basis[k].point) <= weight(p) for k in support(x))
        assert x ^ coset.cycle in span
        assert all(combo in span for combo in kernel)
        kernels += len(kernel)
    assert kernels


def assert_no_search_holds_rows(C):
    """No memoized one-sided gamma search of C reaches a dict, as echelon
    rows are kept, through gc.get_referents (classes aside)."""
    stack = [v for k, v in C._cache.items() if k[0] is UPSILON._one_sided.__wrapped__]
    assert stack
    seen = set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, dict), type(obj)
        stack.extend(gc.get_referents(obj))


def test_no_memoized_search_holds_rows():
    # A certificate is x, kernel and f, built while threshold's rows are in
    # hand, so no memoized search keeps them, whoever ran it.  Upsilon of
    # 3*hom-K is 0: its sweep never searches at 1/2, where the pivots run
    # a right-hand search of their own.
    C = uk.parse_and_build("3*hom-K")
    uk.upsilon(C)
    assert not interior_breakpoints(C)
    uk.pivot_points(C, F(1, 2))
    assert_no_search_holds_rows(C)
    # Read before Upsilon, the right-hand search at a breakpoint is the one
    # the sweep then takes from the memo.
    C, t = uk.parse_and_build("T(3,4) # -T(2,5)"), F(2, 3)
    uk.pivot_points(C, t)
    assert_no_search_holds_rows(C)
    held = _one_sided(C, t, 1)
    uk.upsilon(C)
    assert t in interior_breakpoints(C)
    assert _one_sided(C, t, 1) is held
    assert_no_search_holds_rows(C)
