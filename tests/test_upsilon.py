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
    _first_crossing, _gamma, _gamma_search, _level, _next_crossing, _one_sided, phi_key,
    prepare_search, threshold,
)
from helpers import (
    CATALOG_SCAN, UPSILON, UPSILON2, assert_witnesses_connect, boundaries, built, combine,
    count_thresholds, interior_breakpoints, pl,
)
from oracles import certified_pl, crossings, half_gap, reference_threshold


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
    # delta_upsilon_prime reads its t check from pivot_points, before any Upsilon.
    monkeypatch.setattr(UPSILON, "upsilon", None)
    for t in (0, 2, F(5, 2)):
        with pytest.raises(DomainError):
            uk.pivot_points(C, t)
        with pytest.raises(DomainError):
            uk.delta_upsilon_prime(C, t)


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
            assert jump == f.one_sided_slope(t, "right") - f.one_sided_slope(t, "left")


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
    # The engine orders slice points by the integer 2q phi_t and searches
    # modulo the boundary span; the reference grows a copy of that span with
    # the Fraction weight phi_t itself.  Both complexes are past the
    # brute-force oracle's MAX_DIM.
    C = uk.parse_and_build(expr)
    span, cycle, items = gamma_raw(C)
    for t in midpoints_and(uk.breakpoint_candidates(C)):
        reference = reference_threshold(span, cycle, items, lambda p: uk.phi(t, p))
        assert _gamma(C, t)[:2] == reference, (expr, t)


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
    assert uk.gamma_pl(C) == certified_pl(lambda t: _gamma(C, t)[0], crossings(
        e.point for e in C.grading_slice(0)), "gamma")
    finite = 0
    for t in sorted({F(2, 3), F(1)} | set(interior_breakpoints(C))):
        res = uk.upsilon2(C, t)
        if not res.gamma2.is_finite:
            continue
        base, target, items = gamma2_search(C, res)
        search = prepare_search(base, target, items)
        reference = certified_pl(lambda s: _level(search, s)[0], crossings(p for _, p in items), "gamma2")
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
    residue, points = search
    _, (p,), certificate = _level(search, t, 1)
    f, x = certificate.f, certificate.x
    weight, _ = phi_key(t, 1)
    below = [rows for q, rows, _, _ in points if weight(q) < weight(p)]
    assert (f & residue).bit_count() % 2 == 1, t
    assert not any((f & row).bit_count() % 2 for rows in below for row, _ in rows), t
    # x is exact: items of the winner and the points before it whose
    # residues sum to the target's, so their vectors sum to it modulo the base.
    vectors = [v for v, _ in items]
    admitted = {k for k, (_, q) in enumerate(items) if weight(q) <= weight(p)}
    target_residue, *residues = base.residues([target] + vectors)
    assert set(support(x)) <= admitted, t
    assert p in {items[k][1] for k in support(x)}, t
    assert combine(residues, x) == target_residue, t
    assert combine(vectors, x) ^ target in base, t
    # The kernel and the admitted points' dependents reduce to 0 and span
    # the kernel of the admitted vectors modulo the base.
    combos = [*certificate.kernel, *(c for q, _, own, _ in points if weight(q) <= weight(p) for c in own)]
    assert all(set(support(c)) <= admitted and not combine(residues, c) for c in combos), t
    rank = Gf2Span(combos).rank
    assert rank == len(Gf2Solver([*base.basis(), *(vectors[k] for k in sorted(admitted))]).kernel_basis()), t
    return len(below), rank


@pytest.mark.parametrize("expr", ["T(3,4) # -T(2,5)", "2*hom-K", "nK(3) # T(5,7)"])
def test_one_sided_search_certificate(expr):
    # The dual f is 1 on the target and 0 on every row of the points before
    # the winner just right of t; the primal x is an exact set of items of
    # the winner and points before it whose residues sum to the target's,
    # and the kernel, with the dependents of those points, spans the rest.
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

    residue, points = search
    copy = (Traced(residue), tuple((point, tuple((Traced(row), combo) for row, combo in rows), own, mask)
                                   for point, rows, own, mask in points))
    return copy, log, Traced


@pytest.mark.parametrize("expr,t", [("-T(5,7)", F(1, 3)), ("T(3,4) # -T(2,5)", F(1, 3)),
                                    ("2*hom-K", F(1, 3))])
def test_threshold_carries_the_target_residue(expr, t):
    # threshold starts from the prepared target's residue and only steps it,
    # each step lowering the leading bit: at most one step per row, so per
    # item, and no membership test of the target per level.  The residue is
    # followed by identity from the target through the XORs made with it.
    C = uk.parse_and_build(expr)
    search = _gamma_search(C)
    residue, points = search
    rows = sum(len(basis) for _, basis, _, _ in points)
    weight, _ = phi_key(t)
    copy, log, _ = traced(search)
    level, _, _ = threshold(copy, weight)
    own = []  # the residue's values after the target
    for left, _, out in log:
        if left is (own[-1] if own else copy[0]):
            own.append(out)
    assert own[-1] == 0
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
    for method in ("__init__", "add", "reduce", "residues", "basis", "__contains__"):
        def recording(self, *args, original=getattr(Gf2Span, method)):
            touched.append(self)
            return original(self, *args)
        monkeypatch.setattr(Gf2Span, method, recording)
    for t in (0, F(1, 3), 1, 2):
        copy, log, Traced = traced(search)
        threshold(copy, phi_key(t)[0])
        assert not touched, t  # no span: neither the base nor a copy of it
        assert log and all(isinstance(v, Traced) for entry in log for v in entry), t


def test_z_sets_read_the_memoized_one_sided_searches(monkeypatch):
    # pivot_points memoizes each one-sided gamma search as gamma(t), its
    # winner, x and kernel, with no echelon rows: x is a coset cycle on the
    # points up to the winner and each kernel combination a boundary among
    # them.  z+- is that x and V+- spans that kernel.  Checked against a
    # fresh span of the boundaries, not the prepared residues; winners that
    # are not the pivots are refused.
    C, t = uk.parse_and_build("T(3,4) # -T(2,5)"), F(2, 3)
    pd = uk.pivot_points(C, t)
    assert pd.p_minus != pd.p_plus
    span, coset = Gf2Span(boundaries(C)), C.generator_coset()
    zs = uk.z_sets(C, t)
    kernels = 0
    for side, pivot, z in ((-1, pd.p_minus, zs.z_minus), (1, pd.p_plus, zs.z_plus)):
        held = _one_sided(C, t, side)
        assert held is _one_sided(C, t, side)
        value, p, x, kernel = held
        assert (value, p, x) == (pd.gamma_t, pivot, z)
        assert Gf2Span(kernel).rank == len(zs.v_minus if side < 0 else zs.v_plus)
        assert all(isinstance(v, int) for v in (x, *kernel))
        weight, _ = phi_key(t, side)
        assert all(weight(coset.basis[k].point) <= weight(p) for k in support(x))
        assert x ^ coset.cycle in span
        assert all(combo in span for combo in kernel)
        kernels += len(kernel)
    assert kernels
    swapped = pd._replace(p_minus=pd.p_plus, p_plus=pd.p_minus)
    monkeypatch.setattr(UPSILON2, "pivot_points", lambda *args: swapped)
    with pytest.raises(uk.ConsistencyError, match="are not the pivots"):
        uk.z_sets(C, t)
