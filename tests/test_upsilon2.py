from fractions import Fraction as F

import pytest

import upsilonkit as uk
from upsilonkit import NEG_INF, POS_INF, DomainError
from helpers import CATALOG_SCAN, built, interior_breakpoints, pl


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
    boundary_span = Gf2Span(coset.boundaries)
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


def test_disjointness_theorem_scan():
    for name in CATALOG_SCAN:
        C = built(name)
        for t in interior_breakpoints(C):
            assert uk.check_disjointness_theorem(C, t), (name, t)


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


def test_subadditivity():
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
    with pytest.raises(DomainError):
        uk.check_subadditivity(built("unknot"), built("unknot"), 0)
