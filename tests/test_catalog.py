from math import gcd

import pytest

import upsilonkit as uk
from helpers import CATALOG_SCAN, built
from oracles import is_acyclic
from upsilonkit.catalog import torus_knot_generators


def test_unknot():
    C = uk.unknot()
    assert len(C) == 1 and C.validate().ok
    assert uk.upsilon(C) == uk.PLFunction.constant(0)


def test_stairway_structure():
    C = uk.stairway([2, 2])
    pts = {g.name: (g.grading, g.point) for g in C.generators}
    assert pts == {"a1": (0, (0, 2)), "b1": (1, (2, 2)), "a2": (0, (2, 0))}
    assert C.boundary["b1"] == frozenset({(0, "a1"), (0, "a2")})
    assert C.validate().ok


def test_stairway_errors():
    for bad in ([], [1], [1, 2, 3], [1, 0], [1, -2], [1, "x"]):
        with pytest.raises(ValueError):
            uk.stairway(bad)


def test_torus_knot_steps():
    assert uk.torus_knot_steps(2, 3) == [1, 1]
    assert uk.torus_knot_steps(2, 5) == [1, 1, 1, 1]
    assert uk.torus_knot_steps(3, 4) == [1, 2, 2, 1]
    assert uk.torus_knot_steps(5, 7) == [1, 4, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 4, 1]
    assert uk.torus_knot_steps(3, 4) == uk.torus_knot_steps(4, 3)


def test_torus_knot_steps_are_symmetric():
    for p, q in ((2, 7), (3, 5), (4, 5), (5, 7), (5, 8)):
        steps = uk.torus_knot_steps(p, q)
        assert steps == steps[::-1]
        assert sum(steps) == (p - 1) * (q - 1)  # degree of the gap polynomial
        assert uk.torus_knot_complex(p, q).validate().ok


def _times_cyclic(poly, n):
    """poly * (t^n - 1), polynomials as coefficient lists indexed by exponent."""
    return [a - b for a, b in zip([0] * n + poly, poly + [0] * n)]


def test_torus_knot_staircase_is_the_alexander_polynomial():
    # Coefficients +1, -1, +1, ... from the top at the staircase corners give
    # Delta(t) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), checked by multiplying.
    for p in range(2, 31):
        for q in range(2, 31):
            if p == q or gcd(p, q) != 1:
                continue
            steps = uk.torus_knot_steps(p, q)
            delta = [0] * (sum(steps) + 1)
            corner, sign = len(delta) - 1, 1
            delta[corner] = sign
            for step in steps:
                corner, sign = corner - step, -sign
                delta[corner] = sign
            assert corner == 0
            expected = _times_cyclic(_times_cyclic([1], p * q), 1)
            assert _times_cyclic(_times_cyclic(delta, p), q) == expected, (p, q)
            assert torus_knot_generators(p, q) == len(steps) + 1, (p, q)


def test_torus_knot_errors():
    with pytest.raises(ValueError):
        uk.torus_knot_steps(2, 4)
    with pytest.raises(ValueError):
        uk.torus_knot_steps(1, 5)


def test_box_complex():
    C = uk.box_complex(2)
    assert len(C) == 5 and C.validate().ok
    gens = {g.name: g for g in C.generators}
    assert gens["A"].point == (-2, 2)
    assert gens["X"].grading == 1
    assert uk.upsilon(C) == uk.PLFunction.constant(0)
    with pytest.raises(ValueError):
        uk.box_complex(0)


def test_special_complexes_validate():
    assert uk.figure6_complex().validate().ok
    assert uk.figure8_complex().validate().ok
    assert uk.upsilon(uk.figure8_complex()) == uk.PLFunction.constant(0)


def test_acyclic_box_and_sum():
    box = uk.acyclic_box((1, -1), 3)
    assert is_acyclic(box)
    C = uk.add_acyclic_box(built("T(2,3)"), (1, -1), 3)
    assert C.validate().ok and len(C) == 7
    with pytest.raises(ValueError):
        uk.acyclic_box((0, 0), 0)


def test_nk_complex():
    C = uk.nk_complex(1)
    assert len(C) == 3 * 5 and C.validate().ok
    assert len(uk.nk_complex(2)) == 5 * 9
    with pytest.raises(ValueError):
        uk.nk_complex(0)


def test_catalog_lookup():
    assert built("hom-C1").names == uk.stairway([2, 2]).names
    assert len(uk.catalog("T(3, 4)")) == 5  # whitespace tolerated
    assert len(uk.catalog("box(4)")) == 5  # parameters beyond the listed ones
    assert len(uk.catalog("nK(1)")) == 15
    with pytest.raises(KeyError, match="valid names"):
        uk.catalog("nonsense")
    # catalog reads one atom of the expression grammar, and builds it as the grammar does.
    for name in CATALOG_SCAN + [" T(3, 4) "]:
        assert uk.serialize_complex(uk.catalog(name)) == uk.serialize_complex(uk.parse_and_build(name))
    for malformed in ("box(" + "1" * 5000 + ")", "T(3,"):
        with pytest.raises(uk.ExprParseError):
            uk.catalog(malformed)
    for other in ("T(3,4) # T(2,3)", "-T(3,4)", "stair[2,2]", "@x.txt"):
        with pytest.raises(KeyError, match="valid names"):
            uk.catalog(other)
    with pytest.raises(ValueError):
        uk.catalog("T(2,4)")
    assert "unknot" in uk.CATALOG_NAMES and "T(p,q)" in uk.CATALOG_NAMES
