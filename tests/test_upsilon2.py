import importlib
from fractions import Fraction as F

import pytest

import upsilonkit as uk
from upsilonkit import NEG_INF, POS_INF, DomainError
from upsilonkit.gf2 import Gf2Solver, Gf2Span
from helpers import (
    CATALOG_SCAN, UPSILON, UPSILON2, assert_witnesses_connect, boundaries, built,
    count_thresholds, interior_breakpoints, pl,
)
from oracles import check_disjointness_theorem, margin_one_sided, reference_threshold, same_affine


def names_of(zs, vec):
    return {zs.basis[i].name for i in range(len(zs.basis)) if vec >> i & 1}


def test_z_sets_staircase():
    zs = uk.z_sets(built("hom-C1"), 1)
    assert names_of(zs, zs.z_minus) == {"a1"}
    assert names_of(zs, zs.z_plus) == {"a2"}
    assert zs.v_minus == () and zs.v_plus == ()
    assert zs.disjoint


def test_z_sets_members_are_minimizing_cycles():
    from upsilonkit.gf2 import Gf2Span, support

    C = built("T(5,7)")
    t = F(4, 5)
    zs = uk.z_sets(C, t)
    coset = C.generator_coset()
    boundary_span = Gf2Span(boundaries(C))
    level = uk.gamma_at(C, t)
    for rep in (zs.z_minus, zs.z_plus):
        # Reps lie in the coset: they differ from the canonical
        # representative by boundaries.
        assert (rep ^ coset.cycle) in boundary_span
        # And their support stays in the weight-gamma(t) half-plane.
        assert max(uk.phi(t, zs.basis[i].point) for i in support(rep)) <= level
    for direction in zs.v_minus + zs.v_plus:
        assert direction in boundary_span


def test_z_sets_mirror_not_disjoint():
    zs = uk.z_sets(built("-T(3,4)"), F(2, 3))
    assert not zs.disjoint


def test_z_sets_refuse_a_cycle_outside_the_t_half_plane(monkeypatch):
    # The left-hand search at 2/3 reports an x that also holds a slice
    # element past the support line.
    C = uk.parse_and_build("T(3,4) # -T(2,5)")
    t = F(2, 3)
    level = uk.gamma_at(C, t)
    far = next(k for k, e in enumerate(C.generator_coset().basis) if uk.phi(t, e.point) > level)
    one_sided = UPSILON._one_sided

    def skewed(C, s, side):
        value, point, certificate = one_sided(C, s, side)
        if (s, side) == (t, -1):
            certificate = certificate._replace(x=certificate.x | 1 << far)
        return value, point, certificate

    monkeypatch.setattr(UPSILON, "_one_sided", skewed)
    with pytest.raises(uk.ConsistencyError, match="one-sided cycle leaves the t half-plane at t = 2/3"):
        uk.z_sets(C, t)


def test_upsilon2_refuses_disjoint_z_sets_that_meet_inside_the_t_half_plane(monkeypatch):
    # fig8's Z sets meet at t = 1; reported disjoint, z- + z+ reduces to 0
    # modulo the base, a boundary inside the t half-plane.
    z_sets = uk.z_sets
    monkeypatch.setattr(UPSILON2, "z_sets", lambda C, t: z_sets(C, t)._replace(disjoint=True))
    with pytest.raises(uk.ConsistencyError, match="disjoint Z sets meet inside the t half-plane at t = 1"):
        uk.upsilon2(uk.catalog("fig8"), 1)


def test_upsilon2_reads_no_pivot_points(monkeypatch):
    # upsilon2 reads gamma(t), the pivots and the support line off
    # upsilon._pivots, with no pass over slice 0 for on_line.
    C = uk.parse_and_build("T(3,4)")
    expected = uk.upsilon2(C, F(2, 3))

    def refuse(*args):
        raise AssertionError("pivot_points called")

    for module in (UPSILON, UPSILON2):
        monkeypatch.setattr(module, "pivot_points", refuse, raising=False)
    assert uk.upsilon2(C, F(2, 3)) == expected


# Mixed-sign sums, where a sweep that follows only one side of t errs, and
# cosets past the brute-force oracle's MAX_DIM (2*hom-K and up).
MARGIN_INPUTS = {
    "T(3,4)": lambda: built("T(3,4)"),
    "T(13,17)": lambda: uk.parse_and_build("T(13,17)"),
    "T(3,4) # -T(2,5)": lambda: uk.parse_and_build("T(3,4) # -T(2,5)"),
    "2*hom-K": lambda: uk.parse_and_build("2*hom-K"),
    "nK(3)": lambda: uk.parse_and_build("nK(3)"),
    "2*hom-K # T(3,4)": lambda: uk.parse_and_build("2*hom-K # T(3,4)"),
    "hom-K with an acyclic box at (1,0)": lambda: uk.add_acyclic_box(built("hom-K"), (1, 0), 1),
    # Points with several slice elements, where the chains threshold picks
    # for Z+- are one of many.
    "box(1) # hom-K": lambda: uk.parse_and_build("box(1) # hom-K"),
    "2*hom-K # box(1) # box(2)": lambda: uk.parse_and_build("2*hom-K # box(1) # box(2)"),
}


@pytest.mark.parametrize("name", MARGIN_INPUTS)
def test_one_sided_keys_match_the_margin_method(name):
    # The engine takes its pivots and Z sets from exact one-sided keys at t,
    # with no margin; the oracle evaluates at t -+ delta and t -+ delta / 2.
    C = MARGIN_INPUTS[name]()
    for t in sorted({F(2, 3), F(1)} | set(interior_breakpoints(C))):
        _, p_minus, p_plus, (zm, vm), (zp, vp) = margin_one_sided(C, t)
        pd = uk.pivot_points(C, t)
        assert (pd.p_minus, pd.p_plus) == (p_minus, p_plus), (name, t)
        # gamma(t) and on_line come from the integer search; the reference
        # runs the kernel with Fraction weights and scans the slice.
        coset = C.generator_coset()
        items = [(1 << k, e.point) for k, e in enumerate(coset.basis)]
        level, _ = reference_threshold(Gf2Span(boundaries(C)), coset.cycle, items, lambda p: uk.phi(t, p))
        assert pd.gamma_t == level, (name, t)
        assert pd.on_line == {e.point for e in C.grading_slice(0) if uk.phi(t, e.point) == level}
        zs = uk.z_sets(C, t)
        assert same_affine(zs.z_minus, zs.v_minus, zm, vm), (name, t)
        assert same_affine(zs.z_plus, zs.v_plus, zp, vp), (name, t)


@pytest.mark.parametrize("expr,t", [
    ("2*hom-K", F(1)), ("nK(3) # T(3,4)", F(2, 3)), ("T(5,7)", F(4, 5)), ("figure6", F(1)),
    ("box(1) # hom-K", F(1)), ("2*hom-K # box(1) # box(2)", F(1)),
])
def test_witness_chains_connect_the_z_sets(expr, t):
    # Each piece's witness, the x of the gamma2 search just left of its right
    # end s1, names grading-1 elements outside the t half-plane but inside
    # the s half-plane at gamma2(s1), whose boundaries with those of the t half-plane
    # and the one-sided directions join z- to z+.
    C = uk.parse_and_build(expr)
    assert_witnesses_connect(C, uk.upsilon2(C, t))


def test_upsilon2_finds_the_pivots_once(monkeypatch):
    # upsilon2 reads the pivots directly and through z_sets; both share the
    # memoized one-sided searches, which run the gamma kernel once per side
    # of t, and neither runs another gamma search.
    sides, zsets_calls = [], []
    upsilon_module = importlib.import_module("upsilonkit.upsilon")
    level = upsilon_module._level

    def searching(search, t, side):
        if search is upsilon_module._gamma_search(C):
            sides.append(side)
        return level(search, t, side)

    def counting(*args):
        zsets_calls.append(args)
        return uk.z_sets(*args)

    C = uk.catalog("T(3,4)")  # a fresh complex: nothing memoized yet
    C.require_valid()  # validation runs the kernel at t = 0 and 2
    monkeypatch.setattr(upsilon_module, "_level", searching)
    # The package exports the function upsilon2 under the module's name.
    monkeypatch.setattr(importlib.import_module("upsilonkit.upsilon2"), "z_sets", counting)
    res = uk.upsilon2(C, F(2, 3))
    assert res.zsets.disjoint and res.upsilon2.is_finite
    assert sorted(sides) == [-1, 1]
    assert len(zsets_calls) == 1
    uk.pivot_points(C, F(2, 3))  # reads the same memoized searches
    assert sorted(sides) == [-1, 1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_upsilon2_work_grows_with_the_kinetic_events(monkeypatch, n):
    # gamma2 of nK(n) at t = 1 has two pieces, and its winner meets one
    # point with rows.  With the pivots memoized, the sweep searches at the
    # start, at that event and just left of each piece's right end, where
    # one search per crossing candidate and midpoint made 29, 45 and 61.
    C = uk.nk_complex(n)
    uk.pivot_points(C, 1)
    calls = count_thresholds(monkeypatch)
    assert len(uk.upsilon2(C, 1).gamma2.breakpoints) == 3
    assert len(calls) == 4


def test_upsilon2_searches_only_where_the_winner_changes(monkeypatch):
    # gamma2 of 3*hom-K at t = 1 has two pieces, but its winners meet points
    # with rows 25 times.  Only the meeting where the winner changes can
    # fail the certificate, and the sweep visits no other, so with the
    # pivots memoized it searches there, at the start and just left of each
    # piece's right end; a search at every meeting and midpoint made 52.
    C = uk.parse_and_build("3*hom-K")
    uk.pivot_points(C, 1)
    calls = count_thresholds(monkeypatch)
    assert len(uk.upsilon2(C, 1).gamma2.breakpoints) == 3
    assert len(calls) == 4


@pytest.mark.parametrize("name, additions", [("2*hom-K", 20), ("figure6", 2)])
def test_upsilon2_eliminates_its_base_columns_once(monkeypatch, name, additions):
    # Outside threshold, the search's preparation and z_sets, upsilon2 puts
    # each base column (v+- and the grading-1 columns inside the t
    # half-plane) into one Gf2Span, which the search is reduced by, and
    # nothing else: the witnesses are the certificates of the sweep's piece
    # checks, where
    # a solve per witness over its admitted items added 224 more for 2*hom-K
    # and 1 for figure6.  Preparing the search, once, adds no column to any
    # span or solver: threshold is the search's only elimination.  A solver
    # is a span of augmented columns, so Gf2Span.add counts the columns of
    # either.
    C = uk.parse_and_build(name)
    uk.upsilon2(C, 1)  # the pivots, the coset and validation are memoized now
    added, prepared, paused, entered = [], [], [], []
    def counting(self, v, original=Gf2Span.add):
        if not paused:
            added.append(v)
        elif paused[-1] == "prepare_search":
            prepared.append(v)
        return original(self, v)
    monkeypatch.setattr(Gf2Span, "add", counting)
    # The level search in upsilon calls threshold, upsilon2 prepares it, and
    # z_sets reads the memoized one-sided searches.
    for mod_name, attr in (("upsilon", "threshold"), ("upsilon2", "prepare_search"),
                           ("upsilon2", "z_sets")):
        module = importlib.import_module(f"upsilonkit.{mod_name}")
        def pausing(*args, attr=attr, original=getattr(module, attr)):
            paused.append(attr)
            entered.append(attr)
            try:
                return original(*args)
            finally:
                paused.pop()
        monkeypatch.setattr(module, attr, pausing)
    res = uk.upsilon2(C, 1)
    assert res.upsilon2.is_finite
    inside = [e for e in C.grading_slice(1) if uk.phi(1, e.point) <= res.gamma_t]
    assert len(added) == additions == len(res.zsets.v_minus + res.zsets.v_plus) + len(inside)
    assert entered.count("prepare_search") == 1 and not prepared


@pytest.mark.parametrize("name", ["2*hom-K", "T(3,4) # -T(2,5)"])
def test_solvers_get_only_vectors_reduced_modulo_their_base(monkeypatch, name):
    # Z+- and the witnesses are read off the searches the sweep runs: once
    # the pivots are memoized, z_sets and upsilon2 put no vector into any
    # Gf2Solver.  The only elimination upsilon2 feeds is threshold's, over
    # its gamma2 search, and that search holds residues: neither its target
    # nor an item has a bit at a leading bit of the echelon rows of the
    # base, v+- and the grading-1 columns inside the t half-plane.
    C = uk.parse_and_build(name)
    C.validate()  # the grading-0 elimination, which solves over raw columns, is memoized now
    fed, prepared = [], []
    original = Gf2Solver.add_column
    monkeypatch.setattr(Gf2Solver, "add_column", lambda self, v: fed.append(v) or original(self, v))
    module = importlib.import_module("upsilonkit.upsilon2")

    def recording(*args, original=module.prepare_search):
        prepared.append(original(*args))
        return prepared[-1]
    monkeypatch.setattr(module, "prepare_search", recording)

    def leading_bits(span):
        return sum(1 << (row.bit_length() - 1) for row in span.basis())

    slice1, columns = C.grading_slice(1), C.slice_boundary(1)
    witnesses = 0
    for t in sorted(set(interior_breakpoints(C)) | {F(1)}):
        uk.pivot_points(C, t)
        prepared.clear()
        zs = uk.z_sets(C, t)
        assert not fed, t
        res = uk.upsilon2(C, t)
        assert not fed, t
        inside = [columns[k] for k, e in enumerate(slice1) if uk.phi(t, e.point) <= res.gamma_t]
        base_pivots = leading_bits(Gf2Span(list(zs.v_minus + zs.v_plus) + inside))
        assert len(prepared) == zs.disjoint, t
        for target, points, n, _ in prepared:
            vectors = [target >> n, *(v >> n for _, item_vectors in points for v in item_vectors)]
            assert not any(v & base_pivots for v in vectors), t
        witnesses += len(res.witnesses)
    assert witnesses  # some witness was checked


@pytest.mark.parametrize("name", ["2*hom-K", "nK(3) # T(5,7)"])
def test_level_searches_build_no_solver(monkeypatch, name):
    # Once the complex's one elimination per column set is memoized, Upsilon,
    # the pivots, Z+- and Upsilon2 run every level search through threshold
    # alone: no Gf2Solver gets a column.
    C = uk.parse_and_build(name)
    C._elimination()
    fed = []
    original = Gf2Solver.add_column
    monkeypatch.setattr(Gf2Solver, "add_column", lambda self, v: fed.append(v) or original(self, v))
    uk.upsilon(C)
    for t in (F(2, 3), F(1)):
        uk.pivot_points(C, t)
        uk.z_sets(C, t)
        uk.upsilon2(C, t)
    assert not fed


def test_disjointness_theorem_scan():
    for name in CATALOG_SCAN:
        C = built(name)
        for t in interior_breakpoints(C):
            assert check_disjointness_theorem(C, t), (name, t)


# Mixed-sign sums of atoms.
SIGNED_SUMS = ["T(3,4) # -T(2,5)", "T(2,3) # -fig8", "hom-K # -T(2,3)", "stair[2,2] # -stair[1,1,1,1]"]


@pytest.mark.parametrize("name", [*CATALOG_SCAN, *(f"-{name}" for name in CATALOG_SCAN), *SIGNED_SUMS])
def test_gamma2_is_finite_exactly_when_the_z_sets_are_disjoint(name):
    # Disjoint Z sets never meet inside the t half-plane alone (the lemma
    # upsilon2 checks), so they are the only source of an infinite gamma2.
    C = uk.parse_and_build(name) if "#" in name else built(name)
    for t in {F(2, 3), F(1), *interior_breakpoints(C)}:
        res = uk.upsilon2(C, t)
        assert res.gamma2.is_finite == res.zsets.disjoint, (name, t)


def test_upsilon2_torus34():
    res = uk.upsilon2(built("T(3,4)"), F(2, 3))
    assert res.gamma_t == 1
    assert res.gamma2 == pl([(0, 1), (2, 3)])  # 1 + s
    assert res.gamma2.evaluate(F(8, 5)) == F(13, 5)
    assert res.upsilon2 == pl([(0, 0), (2, -4)])  # -2s
    assert not res.smooth_point
    assert res.witnesses == ((0, 2, ("b1",)),)


def test_upsilon2_torus57():
    C = built("T(5,7)")
    assert uk.upsilon2(C, F(2, 5)).upsilon2 == pl([(0, F(14, 5)), (2, -F(96, 5))])
    assert uk.upsilon2(C, F(4, 5)).upsilon2 == pl([(0, F(8, 5)), (1, -F(12, 5)), (2, -F(42, 5))])
    assert uk.upsilon2(C, 1).upsilon2 == pl([(0, -2), (1, -1), (2, -2)])


def test_upsilon2_infinite_for_mirror():
    res = uk.upsilon2(built("-T(3,4)"), F(2, 3))
    assert not res.zsets.disjoint
    assert res.gamma2 == uk.PLFunction(infinite=NEG_INF)
    assert res.upsilon2 == uk.PLFunction(infinite=POS_INF)
    assert res.witnesses == ()


def test_upsilon2_smooth_point():
    res = uk.upsilon2(built("hom-K"), 1)
    assert res.smooth_point
    assert res.upsilon2 == pl([(0, -4), (1, -2), (2, -4)])


def test_upsilon2_constant_case():
    res = uk.upsilon2(built("figure6"), 1)
    assert res.upsilon2 == uk.PLFunction.constant(-4)
    assert res.witnesses[0][2]  # a nonempty connecting chain outside the half-plane


def test_witnesses_cover_the_domain():
    res = uk.upsilon2(built("T(5,7)"), F(4, 5))
    spans = [(a, b) for a, b, _ in res.witnesses]
    assert spans[0][0] == 0 and spans[-1][1] == 2
    assert all(b0 == a1 for (_, b0), (a1, _) in zip(spans, spans[1:]))
    for _, _, chain in res.witnesses:
        assert chain


def test_upsilon2_scalar():
    assert uk.upsilon2_scalar(built("box(1)")) == -2
    assert uk.upsilon2_scalar(built("box(3)")) == -6
    assert uk.upsilon2_scalar(built("-box(1)")) == POS_INF
    assert uk.upsilon2_scalar(built("T(5,7)")) == -1


def test_subadditivity(monkeypatch):
    pairs = [
        ("T(2,3)", "T(2,5)"),
        ("hom-C1", "-hom-C2"),
        ("box(1)", "T(2,3)"),
        ("fig8", "box(1)"),
        ("figure6", "T(2,3)"),
        ("T(2,3)", "-T(2,3)"),
    ]
    for a, b in pairs:
        for t in (F(2, 3), F(1)):
            assert uk.check_subadditivity(built(a), built(b), t), (a, b, t)
    # t is checked by the factors' pivots, before the tensor product is built.
    monkeypatch.setattr(importlib.import_module("upsilonkit.upsilon2"), "tensor", None)
    for t in (0, 2):
        with pytest.raises(DomainError):
            uk.check_subadditivity(built("unknot"), built("unknot"), t)
