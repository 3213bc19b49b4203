import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import upsilonkit as uk
from oracles import merge_collinear, pl_value_and_slopes
from upsilonkit.exact import (
    NEG_INF,
    POS_INF,
    DomainError,
    PLFunction,
    as_rational,
    format_rational,
)


def test_as_rational():
    assert as_rational(3) == Fraction(3)
    assert as_rational("2/3") == Fraction(2, 3)
    assert as_rational(" -5/2 ") == Fraction(-5, 2)
    assert as_rational(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(ValueError):
        as_rational("x")
    with pytest.raises(ValueError, match="not a rational"):
        as_rational("1/0")


# Each value must be refused in under 1 s.  Fraction reads all three: the
# first takes it minutes, and the second fails on CPython's digit limit.
REFUSE_FAST = """
import sys, time
import upsilonkit as uk
C = uk.catalog("T(3,4)")
start = time.perf_counter()
try:
    uk.gamma_at(C, sys.argv[1])
except ValueError as exc:
    print(time.perf_counter() - start < 1, exc)
"""


@pytest.mark.parametrize("text", ["1e-100000000", "1e-5000", "0.5"])
def test_as_rational_refuses_other_forms_fast(text):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(uk.__file__))
    proc = subprocess.run([sys.executable, "-c", REFUSE_FAST, text], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.stdout == f"True not an integer or p/q: {text!r}\n", proc.stderr


def test_format_rational():
    assert format_rational(Fraction(2, 3)) == "2/3"
    assert format_rational(-2) == "-2/1"
    assert format_rational(POS_INF) == "+inf"
    assert format_rational(NEG_INF) == "-inf"


def test_construction_requires_full_domain():
    with pytest.raises(ValueError):
        PLFunction([(0, 0)])
    with pytest.raises(ValueError):
        PLFunction([(0, 0), (1, 1)])  # must end at 2
    with pytest.raises(ValueError):
        PLFunction([(Fraction(1, 2), 0), (2, 1)])  # must start at 0
    with pytest.raises(ValueError):
        PLFunction([(0, 0), (1, 1), (1, 2), (2, 0)])  # strictly increasing x


def test_collinear_breakpoints_are_merged():
    f = PLFunction([(0, 0), (1, 1), (2, 2)])
    assert f.breakpoints == ((0, 0), (2, 2))
    g = PLFunction([(0, 0), (1, 1), (Fraction(3, 2), 1), (2, 1)])
    assert g.breakpoints == ((0, 0), (1, 1), (2, 1))


def test_canonical_equality_and_hash():
    f = PLFunction([(0, 0), (1, 1), (2, 2)])
    g = PLFunction([(0, 0), (Fraction(1, 3), Fraction(1, 3)), (2, 2)])
    assert f == g and hash(f) == hash(g)
    assert f != PLFunction([(0, 0), (1, 1), (2, 0)])


def test_constant():
    f = PLFunction.constant(Fraction(-2))
    assert f.breakpoints == ((0, -2), (2, -2))
    assert PLFunction.constant(POS_INF).infinite_value == POS_INF
    assert PLFunction.constant(NEG_INF).infinite_value == NEG_INF


def test_evaluate_and_domain():
    f = PLFunction([(0, 0), (Fraction(2, 3), -2), (Fraction(4, 3), -2), (2, 0)])
    assert f.evaluate(Fraction(1, 3)) == -1
    assert f.evaluate("2/3") == -2
    assert f.evaluate(1) == -2
    assert f.evaluate(2) == 0
    with pytest.raises(DomainError):
        f.evaluate(Fraction(-1, 2))
    with pytest.raises(DomainError):
        f.evaluate(Fraction(5, 2))


def test_infinite_function():
    f = PLFunction(infinite=POS_INF)
    assert not f.is_finite
    assert f.evaluate(1) == POS_INF
    with pytest.raises(ValueError):
        PLFunction([(0, 0), (2, 0)], infinite=POS_INF)
    with pytest.raises(ValueError):
        PLFunction(infinite=7)
    with pytest.raises(DomainError):
        f.value_and_slopes(1)
    with pytest.raises(DomainError):
        f + PLFunction.constant(0)


def test_value_and_slopes():
    f = PLFunction([(0, 0), (1, -3), (2, 0)])
    assert f.value_and_slopes(1) == (-3, -3, 3)
    assert f.value_and_slopes(Fraction(1, 2)) == (Fraction(-3, 2), -3, -3)
    assert f.value_and_slopes(2) == (0, 3, None)
    assert f.value_and_slopes(0) == (0, None, -3)


def test_scale_and_neg():
    f = PLFunction([(0, 0), (1, 1), (2, 0)])
    assert f.scale(-2).breakpoints == ((0, 0), (1, -2), (2, 0))
    assert f.scale(2, 1).evaluate(1) == 3
    assert (-f) == f.scale(-1)
    inf = PLFunction(infinite=NEG_INF)
    assert inf.scale(-2).infinite_value == POS_INF
    with pytest.raises(DomainError):
        inf.scale(0)


def test_add():
    f = PLFunction([(0, 0), (1, 1), (2, 0)])
    g = PLFunction([(0, 0), (Fraction(1, 2), -1), (2, 2)])
    h = f + g
    for x in (0, Fraction(1, 2), 1, Fraction(3, 2), 2):
        assert h.evaluate(x) == f.evaluate(x) + g.evaluate(x)
    assert (f + f.scale(-1)) == PLFunction.constant(0)


def test_repr():
    assert repr(PLFunction([(0, 0), (1, Fraction(-1, 2)), (2, 0)])) == \
        "PLFunction([(0/1, 0/1), (1/1, -1/2), (2/1, 0/1)])"
    assert repr(PLFunction(infinite=POS_INF)) == "PLFunction(constant +inf)"
    assert repr(PLFunction.constant(NEG_INF)) == "PLFunction(constant -inf)"


rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(2), max_denominator=12
)


@given(st.lists(rationals, min_size=0, max_size=4), rationals)
def test_scale_matches_pointwise(xs, x):
    ys = {Fraction(0): Fraction(1), Fraction(2): Fraction(-1)}
    for k, xv in enumerate(sorted(set(xs))):
        ys.setdefault(xv, Fraction(k, 3))
    f = PLFunction(sorted(ys.items()))
    assert f.scale(-2, 5).evaluate(x) == -2 * f.evaluate(x) + 5


# Random breakpoints from 0 to 2, and the canonical PL functions the
# constructor merges them into.
POINT_LISTS = st.builds(
    lambda inner, ys: list(zip([Fraction(0), *sorted(set(inner)), Fraction(2)], ys)),
    st.lists(st.fractions(min_value=0, max_value=2, max_denominator=12).filter(lambda x: 0 < x < 2),
             max_size=6),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=8, max_size=8),
)
PL_FUNCTIONS = POINT_LISTS.map(PLFunction)
SCALARS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(PL_FUNCTIONS, SCALARS, SCALARS)
def test_scale_keeps_canonical_functions_canonical(f, a, b):
    # With a != 0, scale skips the constructor's checks and merge: the
    # result is the constructor's on the mapped breakpoints, and so is the
    # constant b for a = 0.
    g = f.scale(a, b)
    if a == 0:
        assert g == PLFunction.constant(b)
        return
    expected = PLFunction([(x, a * y + b) for x, y in f.breakpoints])
    assert g.breakpoints == expected.breakpoints
    assert [x for x, _ in g.breakpoints] == [x for x, _ in f.breakpoints]
    # scale maps each slope of f by a; they are not divided out again.
    for x, _ in f.breakpoints:
        assert g.value_and_slopes(x) == expected.value_and_slopes(x), x


@given(PL_FUNCTIONS, st.fractions(min_value=0, max_value=2, max_denominator=24))
def test_one_bisect_reads_match_a_scan_of_the_pieces(f, inner):
    # value_and_slopes and evaluate read a breakpoint off the function's
    # index and a point inside a piece by one bisect, and the slopes it
    # computed once; a linear scan of every piece gives the same value and
    # slopes at every breakpoint (0 and 2 among them) and inside pieces.
    for x in {inner, *(x for x, _ in f.breakpoints)}:
        expected = pl_value_and_slopes(f.breakpoints, x)
        assert f.value_and_slopes(x) == expected, x
        assert f.evaluate(x) == expected[0], x
    assert f.value_and_slopes(0)[1] is None and f.value_and_slopes(2)[2] is None
    for x in (Fraction(-1, 24), Fraction(49, 24)):
        with pytest.raises(DomainError, match="outside"):
            f.value_and_slopes(x)


def test_one_bisect_read_refuses_an_infinite_function():
    for sign in (POS_INF, NEG_INF):
        with pytest.raises(DomainError, match="slope of a constant-infinite function"):
            PLFunction(infinite=sign).value_and_slopes(1)


@example([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))], [False, True])
@given(POINT_LISTS, st.lists(st.booleans(), min_size=7, max_size=7))
def test_constructor_merges_by_the_slopes_it_divides_out(points, midpoints):
    # The constructor divides out each piece's slope once and drops each
    # breakpoint between two equal slopes: the stack merge by
    # cross-multiplied slopes keeps the same breakpoints, and a collinear
    # midpoint inserted in any piece changes nothing.
    inserted = points[:1]
    for (x0, y0), (x1, y1), mid in zip(points, points[1:], midpoints):
        inserted += [((x0 + x1) / 2, (y0 + y1) / 2)] * mid + [(x1, y1)]
    f = PLFunction(inserted)
    assert f == PLFunction(points)
    assert f.breakpoints == tuple(merge_collinear(inserted))
    bps = f.breakpoints
    assert f.slopes == tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(bps, bps[1:]))
    assert all(s0 != s1 for s0, s1 in zip(f.slopes, f.slopes[1:]))
    assert PLFunction(infinite=POS_INF).slopes == ()
