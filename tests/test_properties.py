"""Cross-cutting mathematical properties, checked exactly."""

from fractions import Fraction as F

import pytest

import upsilonkit as uk
from helpers import CATALOG_SCAN, built, interior_breakpoints
from oracles import brute_gamma, brute_gamma2, check_disjointness_theorem, gamma2_eligible, gamma_eligible

ADDITIVITY_PAIRS = [
    ("T(2,3)", "T(2,5)"),
    ("T(3,4)", "T(2,3)"),
    ("hom-C1", "-hom-C2"),
    ("box(1)", "T(2,3)"),
    ("fig8", "figure6"),
    ("T(2,5)", "-T(2,5)"),
]

ACYCLIC_TRIPLES = [
    ("T(3,4)", (0, 0), 1, F(2, 3)),
    ("hom-C1", (1, 1), 2, F(1)),
    ("hom-K", (-1, 0), 1, F(1)),
    ("box(1)", (2, 2), 1, F(1)),
]


@pytest.mark.parametrize("a,b", ADDITIVITY_PAIRS)
def test_upsilon_additivity_under_tensor(a, b):
    A, B = built(a), built(b)
    assert uk.upsilon(uk.tensor(A, B)) == uk.upsilon(A) + uk.upsilon(B)


@pytest.mark.parametrize("name", CATALOG_SCAN)
def test_upsilon_of_dual_is_negated(name):
    assert uk.upsilon(built("-" + name)) == -uk.upsilon(built(name))


@pytest.mark.parametrize("name,corner,size,t", ACYCLIC_TRIPLES)
def test_acyclic_summand_invariance(name, corner, size, t):
    C = built(name)
    D = uk.add_acyclic_box(C, corner, size)
    assert uk.upsilon(D) == uk.upsilon(C)
    assert uk.upsilon2(D, t).upsilon2 == uk.upsilon2(C, t).upsilon2


@pytest.mark.parametrize("name", CATALOG_SCAN)
def test_gamma_matches_brute_force(name):
    C = built(name)
    if not gamma_eligible(C):
        pytest.skip("coset dimension above the oracle limit")
    for t in (F(0), F(1, 3), F(2, 3), F(1), F(7, 5), F(2)):
        assert uk.gamma_at(C, t) == brute_gamma(C, t), (name, t)
    for t in interior_breakpoints(C):
        assert uk.gamma_at(C, t) == brute_gamma(C, t), (name, t)


@pytest.mark.parametrize("name", CATALOG_SCAN + ["-T(3,4)", "-box(1)"])
def test_gamma2_matches_brute_force(name):
    C = built(name)
    if not gamma2_eligible(C):
        pytest.skip("coset or chain-space dimension above the oracle limit")
    for t in (F(2, 3), F(1)):
        res = uk.upsilon2(C, t)
        for s in (F(1, 2), F(1), F(8, 5)):
            expected = brute_gamma2(C, t, s)
            if expected is None:
                assert not res.gamma2.is_finite, (name, t, s)
            else:
                assert res.gamma2.is_finite, (name, t, s)
                assert res.gamma2.evaluate(s) == expected, (name, t, s)


def test_gamma2_at_breakpoints_matches_brute_force():
    for name in ("T(3,4)", "T(5,7)", "figure6", "hom-K"):
        C = built(name)
        for t in interior_breakpoints(C):
            res = uk.upsilon2(C, t)
            for s in (F(1, 2), F(8, 5)):
                expected = brute_gamma2(C, t, s)
                if expected is None:
                    assert not res.gamma2.is_finite, (name, t, s)
                else:
                    assert res.gamma2.evaluate(s) == expected, (name, t, s)


def test_upsilon2_relation_to_gamma2():
    for name, t in (("T(3,4)", F(2, 3)), ("T(5,7)", F(4, 5)), ("hom-K", F(1))):
        res = uk.upsilon2(built(name), t)
        gamma_t = uk.gamma_at(built(name), t)
        for s in (F(1, 2), F(1), F(3, 2)):
            assert res.upsilon2.evaluate(s) == -2 * (res.gamma2.evaluate(s) - gamma_t)


@pytest.mark.parametrize("name", CATALOG_SCAN)
def test_disjointness_theorem(name):
    C = built(name)
    for t in interior_breakpoints(C):
        assert check_disjointness_theorem(C, t), (name, t)


@pytest.mark.parametrize("name", CATALOG_SCAN)
def test_gamma_endpoint_normalization(name):
    C = built(name)
    assert uk.gamma_at(C, 0) == 0
    assert uk.gamma_at(C, 2) == 0
