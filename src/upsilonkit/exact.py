"""Exact scalars and piecewise-linear functions on the interval [0, 2].

Scalars are fractions.Fraction throughout; the two infinities are
math.inf / -math.inf and occur only as the value of the two
constant-infinite functions, never as breakpoint coordinates.
PLFunction is canonical (collinear breakpoints merged), so structural
equality is function equality.
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
    to x=2 with no three collinear, or one of the two constant-infinite
    functions (flag only, no breakpoints).
    """

    __slots__ = ("_points", "_infinite")

    def __init__(self, points: Iterable[tuple] = (), infinite=None):
        if infinite is not None:
            if infinite not in (POS_INF, NEG_INF):
                raise ValueError("infinite flag must be +inf or -inf")
            pts = tuple(points)
            if pts:
                raise ValueError("constant-infinite function takes no breakpoints")
            self._points = ()
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
        self._points = tuple(_merge_collinear(pts))

    @classmethod
    def constant(cls, y) -> "PLFunction":
        if y == POS_INF or y == NEG_INF:
            return cls(infinite=y)
        y = as_rational(y)
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

    def evaluate(self, x: RationalLike):
        x = as_rational(x)
        if x < 0 or x > 2:
            raise DomainError(f"x = {x} outside [0, 2]")
        if self._infinite is not None:
            return self._infinite
        k, hit = self._locate(x)
        if hit:
            return self._points[k][1]
        x0, y0 = self._points[k - 1]
        return y0 + self._slope(k) * (x - x0)

    def value_and_slopes(self, x: RationalLike) -> tuple:
        """(f(x), slope just left of x, slope just right of x) from one
        bisect; the left slope at 0 and the right slope at 2 are None."""
        x = as_rational(x)
        if x < 0 or x > 2:
            raise DomainError(f"x = {x} outside [0, 2]")
        if self._infinite is not None:
            raise DomainError("slope of a constant-infinite function")
        k, hit = self._locate(x)
        if hit:
            left, right = self._slope(k) if x > 0 else None, self._slope(k + 1) if x < 2 else None
            return self._points[k][1], left, right
        slope = self._slope(k)
        x0, y0 = self._points[k - 1]
        return y0 + slope * (x - x0), slope, slope

    def _locate(self, x: Fraction) -> tuple[int, bool]:
        """The one bisect of x in [0, 2] over a finite function's breakpoints:
        (k, True) if x is breakpoint k, else (k, False) for x inside piece k,
        the one from breakpoint k - 1 to breakpoint k."""
        k = bisect_left(self._points, (x,))
        return k, self._points[k][0] == x

    def _slope(self, k: int) -> Fraction:
        """Slope of piece k, from breakpoint k - 1 to breakpoint k."""
        (x0, y0), (x1, y1) = self._points[k - 1], self._points[k]
        return (y1 - y0) / (x1 - x0)

    def scale(self, a: RationalLike, b: RationalLike = 0) -> "PLFunction":
        """Pointwise a*f + b.  For a != 0 the map y -> a y + b keeps the
        breakpoints and their collinearity, so a canonical function maps to
        a canonical one with no checks or merge."""
        a = as_rational(a)
        b = as_rational(b)
        if self._infinite is not None:
            if a == 0:
                raise DomainError("0 * infinite function is undefined")
            return PLFunction(infinite=self._infinite if a > 0 else -self._infinite)
        if a == 0:
            return PLFunction([(x, b) for x, _ in self._points])
        out = object.__new__(PLFunction)
        out._infinite = None
        out._points = tuple((x, shared(a * y + b)) for x, y in self._points)
        return out

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


def _merge_collinear(pts):
    out = [pts[0]]
    for p in pts[1:]:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            x2, y2 = p
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(p)
    return out

