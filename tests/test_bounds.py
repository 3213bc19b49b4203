from fractions import Fraction as F

import pytest

import upsilonkit as uk
from upsilonkit import DomainError
from helpers import CATALOG_SCAN, built, pl


def test_gc_bound_from_pl_slopes():
    report = uk.gc_bound_from_pl(pl([(0, 0), (1, -3), (2, 0)]))
    assert report.slope_bound == 3
    assert report.breakpoint_bounds == ((1, 1),)  # odd 1/1 forces bound 1
    assert report.combined == 3


def test_gc_bound_breakpoint_denominators():
    # Odd numerator p/q forces q; even numerator forces ceil(q/2).
    report = uk.gc_bound_from_pl(pl([(0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)]))
    assert dict(report.breakpoint_bounds) == {F(2, 3): 2, F(4, 3): 2}
    assert report.slope_bound == 3
    assert report.combined == 3
    report = uk.gc_bound_from_pl(pl([(0, 0), (F(3, 5), -1), (2, F(-1, 2))]))
    assert dict(report.breakpoint_bounds) == {F(3, 5): 5}
    assert report.combined == 5


def test_gc_bound_constant():
    report = uk.gc_bound_from_pl(pl([(0, 0), (2, 0)]))
    assert report.slope_bound == 0 and report.combined == 0
    with pytest.raises(DomainError):
        uk.gc_bound_from_pl(uk.PLFunction(infinite=uk.POS_INF))


def test_diagonal_width():
    assert uk.diagonal_width(built("unknot")) == 0
    assert uk.diagonal_width(built("box(2)")) == 4
    assert uk.diagonal_width(built("T(3,4)")) == 3
    assert uk.diagonal_width(built("nK(2)")) == 8


@pytest.mark.parametrize("expr", CATALOG_SCAN)
def test_diagonal_width_is_the_widest_generator(expr):
    # diagonal_width reads the (i, j) columns, not the Generator records.
    C = built(expr)
    assert uk.diagonal_width(C) == max(abs(g.i - g.j) for g in C.generators)


def test_genus_report_torus57():
    report = uk.genus_report(built("T(5,7)"), [F(2, 5)])
    assert [r.source for r in report.reports] == ["upsilon", "upsilon2[t=2/5]"]
    by_source = {r.source: r for r in report.reports}
    assert by_source["upsilon"].slope_bound == 12
    assert by_source["upsilon2[t=2/5]"].slope_bound == 11
    assert report.combined == 12
    assert report.combined >= 11  # at least the secondary-slope bound
    assert report.combined <= 12  # never exceeds the genus of T(5,7)
    assert report.skipped == ()


def test_genus_report_skips_infinite():
    report = uk.genus_report(built("-box(1)"), [1])
    assert report.skipped == ("1",)
    assert report.combined == 0  # only the flat upsilon contributes


def test_genus_report_nk_family():
    for n in (1, 2):
        report = uk.genus_report(built(f"nK({n})"), [1])
        assert report.combined == 4 * n - 2


def test_genus_report_domain():
    with pytest.raises(DomainError):
        uk.genus_report(built("unknot"), [0])
    with pytest.raises(DomainError):
        uk.genus_report(built("unknot"), [F(5, 2)])
