"""Exact scalars and piecewise-linear functions on the interval [0, 2].

Scalars are fractions.Fraction throughout; the two infinities are
math.inf / -math.inf and occur only as the value of the two
constant-infinite functions, never as breakpoint coordinates.
PLFunction is canonical (no two consecutive pieces of equal slope), so
structural equality is function equality.  Each piece's slope is computed
once, at construction: the constructor divides them out and drops each
breakpoint between two equal slopes, and the kinetic sweep
(upsilon.level_pl) and scale give theirs, canonical by construction, to
one private constructor, which skips the coercion and the checks.  A
function reads its value and one-sided slopes at a breakpoint by lookup,
with no Fraction arithmetic; the engine's checks at a breakpoint compare
numerators and denominators as ints, and build a Fraction only for a result.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Union

POS_INF = math.inf
NEG_INF = -math.inf

RationalLike = Union[int, str, Fraction]


class DomainError(ValueError):
    """Argument outside the domain of an exact operation."""


# The string forms of a rational: an integer or p/q, with an optional sign and
# surrounding whitespace.  Fraction also reads decimals and exponents, and
# 1e-100000000 would take it minutes.
_RATIONAL_RE = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and integer or 'p/q' strings to an exact
    Fraction; any other string, a decimal included, is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"not an integer or p/q: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r} ({exc})") from None
    raise TypeError(f"not an exact rational: {value!r}")


# One Fraction per small integer value, as CPython keeps one int: the values
# of Upsilon and its slope jumps are mostly small integers, and a caller
# holding many results then holds each of them once.
_SMALL_INTS = {n: Fraction(n) for n in range(-256, 257)}


def shared(q: Fraction) -> Fraction:
    """q, or the shared equal Fraction if q is an integer in [-256, 256]."""
    return _SMALL_INTS.get(q.numerator, q) if q.denominator == 1 else q


def _in_domain(x: RationalLike) -> Fraction:
    """x as a Fraction, checked to lie in [0, 2] by its numerator and denominator."""
    x = as_rational(x)
    if not 0 <= x.numerator <= 2 * x.denominator:
        raise DomainError(f"x = {x} outside [0, 2]")
    return x


def format_rational(q) -> str:
    """Render as 'p/q' (denominator always present); infinities pass through."""
    if q == POS_INF:
        return "+inf"
    if q == NEG_INF:
        return "-inf"
    q = as_rational(q)
    return f"{q.numerator}/{q.denominator}"


class PLFunction:
    """Exact piecewise-linear function on [0, 2].

    Either finite, stored as strictly increasing breakpoints from x=0
    to x=2 and the slope of each piece, no two consecutive slopes equal,
    or one of the two constant-infinite functions (flag only, no
    breakpoints or slopes).  The slopes are computed at construction; the
    breakpoints are indexed by (numerator, denominator) the first time the
    function is read at a point.  Neither takes part in equality or hashing.
    """

    __slots__ = ("_points", "_infinite", "_slopes", "_index")

    def __init__(self, points: Iterable[tuple] = (), infinite=None):
        self._index = None
        if infinite is not None:
            if infinite not in (POS_INF, NEG_INF):
                raise ValueError("infinite flag must be +inf or -inf")
            pts = tuple(points)
            if pts:
                raise ValueError("constant-infinite function takes no breakpoints")
            self._points = self._slopes = ()
            self._infinite = infinite
            return
        self._infinite = None
        pts = [(shared(as_rational(x)), shared(as_rational(y))) for x, y in points]
        if len(pts) < 2:
            raise ValueError("need breakpoints at both endpoints 0 and 2")
        if pts[0][0] != 0 or pts[-1][0] != 2:
            raise ValueError("breakpoints must start at x=0 and end at x=2")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x0 >= x1:
                raise ValueError("breakpoint x-values must be strictly increasing")
        slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        keep = [0] + [k for k in range(1, len(slopes)) if slopes[k] != slopes[k - 1]]
        self._points = tuple(pts[k] for k in keep) + (pts[-1],)
        self._slopes = tuple(slopes[k] for k in keep)

    @classmethod
    def _canonical(cls, points: tuple, slopes: tuple) -> "PLFunction":
        """A finite function from breakpoints its caller knows to be
        canonical, with no coercion or checks, and the slope of each
        piece: the constructor of the sweep (upsilon.level_pl) and of scale,
        which give the reasons."""
        out = object.__new__(cls)
        out._infinite, out._points, out._slopes, out._index = None, points, slopes, None
        return out

    @classmethod
    def constant(cls, y) -> "PLFunction":
        if y == POS_INF or y == NEG_INF:
            return cls(infinite=y)
        return cls([(0, y), (2, y)])

    @property
    def is_finite(self) -> bool:
        return self._infinite is None

    @property
    def infinite_value(self):
        return self._infinite

    @property
    def breakpoints(self) -> tuple:
        return self._points

    @property
    def slopes(self) -> tuple:
        """The slope of each piece, from breakpoint k to k + 1; () if infinite."""
        return self._slopes

    def evaluate(self, x: RationalLike):
        x = _in_domain(x)
        if self._infinite is not None:
            return self._infinite
        k, hit = self._locate(x)
        if hit:
            return self._points[k][1]
        x0, y0 = self._points[k - 1]
        return y0 + self._slopes[k - 1] * (x - x0)

    def value_and_slopes(self, x: RationalLike) -> tuple:
        """(f(x), slope just left of x, slope just right of x); the left
        slope at 0 and the right slope at 2 are None.  At a breakpoint all
        three are lookups, in the breakpoint index and the slopes computed
        at construction; inside a piece one bisect finds it."""
        x = _in_domain(x)
        if self._infinite is not None:
            raise DomainError("slope of a constant-infinite function")
        slopes = self._slopes
        k, hit = self._locate(x)
        if hit:
            return self._points[k][1], slopes[k - 1] if k else None, slopes[k] if k < len(slopes) else None
        slope = slopes[k - 1]
        x0, y0 = self._points[k - 1]
        return y0 + slope * (x - x0), slope, slope

    def _locate(self, x: Fraction) -> tuple[int, bool]:
        """(k, True) if x in [0, 2] is breakpoint k, else (k, False) for x
        inside piece k - 1, from breakpoint k - 1 to breakpoint k: an index
        lookup, and a bisect only off the breakpoints."""
        if self._index is None:
            self._index = {(b.numerator, b.denominator): k for k, (b, _) in enumerate(self._points)}
        k = self._index.get((x.numerator, x.denominator))
        if k is not None:
            return k, True
        return bisect_left(self._points, (x,)), False

    def scale(self, a: RationalLike, b: RationalLike = 0) -> "PLFunction":
        """Pointwise a*f + b.  For a != 0 the map y -> a y + b keeps the
        breakpoints and their collinearity, so a canonical function maps to
        a canonical one with no checks, and each slope s to a s,
        in ints: one Fraction per coordinate and slope."""
        a = as_rational(a)
        b = as_rational(b)
        if self._infinite is not None:
            if a == 0:
                raise DomainError("0 * infinite function is undefined")
            return PLFunction(infinite=self._infinite if a > 0 else -self._infinite)
        if a == 0:
            return PLFunction.constant(b)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        points = tuple((x, shared(Fraction(an * bd * y.numerator + bn * ad * y.denominator,
                                           ad * bd * y.denominator)))
                       for x, y in self._points)
        slopes = tuple(Fraction(an * s.numerator, ad * s.denominator) for s in self._slopes)
        return PLFunction._canonical(points, slopes)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        if not isinstance(other, PLFunction):
            return NotImplemented
        if self._infinite is not None or other._infinite is not None:
            raise DomainError("sum involving a constant-infinite function")
        xs = sorted({x for x, _ in self._points} | {x for x, _ in other._points})
        return PLFunction([(x, self.evaluate(x) + other.evaluate(x)) for x in xs])

    def __neg__(self) -> "PLFunction":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self._infinite == other._infinite and self._points == other._points

    def __hash__(self):
        return hash((self._infinite, self._points))

    def __repr__(self):
        if self._infinite is not None:
            sign = "+inf" if self._infinite == POS_INF else "-inf"
            return f"PLFunction(constant {sign})"
        pieces = ", ".join(f"({format_rational(x)}, {format_rational(y)})" for x, y in self._points)
        return f"PLFunction([{pieces}])"

