"""Ready-made model complexes: stairways, torus-knot staircases, box
complexes, and the small named catalog used by the CLI and the tests."""

from __future__ import annotations

import re
from math import gcd

from .complexes import (MAX_GENERATORS, Generator, LatticePoint, ModelComplex, _size_error,
                        direct_sum, dual, tensor)


def unknot() -> ModelComplex:
    return ModelComplex([Generator("a", 0, 0, 0)], {})


def stairway(steps) -> ModelComplex:
    """Staircase complex from alternating step lengths [a1, ..., a2m].

    The walk starts at (0, sum of even-indexed steps); odd steps move
    right, even steps move down.  Corners after even steps (and the
    start) are grading-0 generators a1, a2, ...; corners after odd
    steps are grading-1 generators b1, b2, ... with d(bk) = ak + a(k+1).
    """
    steps = list(steps)
    if not steps or len(steps) % 2 != 0:
        raise ValueError(f"step vector must have positive even length, got length {len(steps)}")
    for k, a in enumerate(steps, 1):
        if not isinstance(a, int) or a <= 0:
            raise ValueError(f"step lengths must be positive integers; step {k} of {len(steps)} is not")
    i, j = 0, sum(steps[1::2])
    gens = [Generator("a1", 0, i, j)]
    boundary = {}
    for k in range(0, len(steps), 2):
        i += steps[k]
        b = Generator(f"b{k // 2 + 1}", 1, i, j)
        j -= steps[k + 1]
        a = Generator(f"a{k // 2 + 2}", 0, i, j)
        boundary[b.name] = [(0, gens[-1].name), (0, a.name)]
        gens += [b, a]
    return ModelComplex(gens, boundary)


def torus_knot_steps(p: int, q: int) -> list[int]:
    """Step vector of the T(p, q) staircase: the lengths of the alternating
    runs of members and gaps of the semigroup <p, q> below its conductor
    (p - 1)(q - 1), starting with the run of members at 0."""
    _check_coprime(p, q)
    conductor = (p - 1) * (q - 1)
    member = bytearray(conductor)
    for b in range(0, conductor, q):  # each member below it is b + a*p, b a multiple of q
        member[b::p] = b"\x01" * len(range(b, conductor, p))
    return [len(run) for run in re.findall(rb"\x01+|\x00+", member)]


def torus_knot_generators(p: int, q: int) -> int:
    """Number of generators of the T(p, q) staircase, without building it.

    With u = q^-1 mod p, the members s of <p, q> with s + 1 a gap are
    a*p + b*q for 0 <= b < p - u and 0 <= a < (u*q - 1)/p; each ends a run
    of members, and the staircase has one generator per run end and one
    more."""
    _check_coprime(p, q)
    u = pow(q, -1, p)
    return 2 * (p - u) * (u * q - 1) // p + 1


def _check_coprime(p: int, q: int) -> None:
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise ValueError(f"need coprime p, q >= 2, got ({p}, {q})")


def torus_knot_complex(p: int, q: int) -> ModelComplex:
    n = torus_knot_generators(p, q)
    if n > MAX_GENERATORS:
        raise _size_error(f"T({p},{q})", str(n))
    return stairway(torus_knot_steps(p, q))


def box_complex(n: int) -> ModelComplex:
    """Square complex on a side-2n box with a central vertex; Upsilon
    vanishes but the secondary scalar is -2n."""
    if not isinstance(n, int) or n <= 0:
        raise ValueError(f"box complex needs n >= 1, got {n}")
    gens = [
        Generator("A", 0, -n, n),
        Generator("B", 0, 0, 0),
        Generator("C", 0, n, -n),
        Generator("X", 1, n, n),
        Generator("u", -1, -n, -n),
    ]
    boundary = {
        "X": [(0, "A"), (0, "C")],
        "A": [(0, "u")],
        "B": [(0, "u")],
        "C": [(0, "u")],
    }
    return ModelComplex(gens, boundary)


def figure6_complex() -> ModelComplex:
    """Seven-generator complex whose Upsilon derivative jumps by -4 at
    t = 1 while the secondary invariant there is the constant -4."""
    gens = [
        Generator("a", 0, -3, 1),
        Generator("b", 0, 0, -2),
        Generator("c", 0, -2, 0),
        Generator("d", 0, 1, -3),
        Generator("e", 1, 1, 1),
        Generator("u1", -1, -3, -2),
        Generator("u2", -1, -2, -3),
    ]
    boundary = {
        "e": [(0, "a"), (0, "b"), (0, "c"), (0, "d")],
        "a": [(0, "u1")],
        "b": [(0, "u1")],
        "c": [(0, "u2")],
        "d": [(0, "u2")],
    }
    return ModelComplex(gens, boundary)


def figure8_complex() -> ModelComplex:
    """Thin five-generator model: an isolated generator at the origin
    plus a unit box; Upsilon vanishes identically."""
    gens = [
        Generator("a", 0, 0, 0),
        Generator("tr", 1, 1, 1),
        Generator("tl", 0, 0, 1),
        Generator("br", 0, 1, 0),
        Generator("bl", -1, 0, 0),
    ]
    boundary = {
        "tr": [(0, "tl"), (0, "br")],
        "tl": [(0, "bl")],
        "br": [(0, "bl")],
    }
    return ModelComplex(gens, boundary)


def acyclic_box(corner: LatticePoint = (0, 0), size: int = 1) -> ModelComplex:
    """Four-generator square with zero graded homology; bottom-left
    corner at the given point."""
    if not isinstance(size, int) or size <= 0:
        raise ValueError(f"box size must be a positive integer, got {size}")
    x, y = corner
    gens = [
        Generator("qtr", 1, x + size, y + size),
        Generator("qtl", 0, x, y + size),
        Generator("qbr", 0, x + size, y),
        Generator("qbl", -1, x, y),
    ]
    boundary = {
        "qtr": [(0, "qtl"), (0, "qbr")],
        "qtl": [(0, "qbl")],
        "qbr": [(0, "qbl")],
    }
    return ModelComplex(gens, boundary)


def add_acyclic_box(C: ModelComplex, corner: LatticePoint, size: int) -> ModelComplex:
    return direct_sum(C, acyclic_box(corner, size))


def nk_complex(n: int) -> ModelComplex:
    """n-fold connected sum of the ladder-minus-staircase difference:
    stairway [2]*2n tensored with the dual of stairway [1]*4n."""
    if not isinstance(n, int) or n <= 0:
        raise ValueError(f"nK needs n >= 1, got {n}")
    if (2 * n + 1) * (4 * n + 1) > MAX_GENERATORS:
        raise _size_error(f"nK({n})", f"{2 * n + 1} x {4 * n + 1} = {(2 * n + 1) * (4 * n + 1)}")
    return tensor(stairway([2] * (2 * n)), dual(stairway([1] * (4 * n))))


_FIXED = {
    "unknot": unknot,
    "fig8": figure8_complex,
    "figure6": figure6_complex,
    "hom-C1": lambda: stairway([2, 2]),
    "hom-C2": lambda: stairway([1, 1, 1, 1]),
    "hom-K": lambda: nk_complex(1),
}

CATALOG_NAMES = sorted(_FIXED) + ["T(p,q)", "box(n)", "nK(n)"]


def fixed_complex(name: str) -> ModelComplex:
    """The complex of a catalog name other than T(p,q), box(n) and nK(n)."""
    if name not in _FIXED:
        raise KeyError(f"unknown catalog name {name!r}; valid names: {', '.join(CATALOG_NAMES)}")
    return _FIXED[name]()


def catalog(name: str) -> ModelComplex:
    """The complex of one catalog atom, read by the expression grammar: a
    fixed name, T(p,q) (coprime p, q >= 2), box(n) or nK(n) (n >= 1).  A
    malformed parameter raises ExprParseError; any other expression (a sum,
    a dual, stair[...], @file) and an unknown name raise KeyError."""
    from .expr import build, parse_expression  # deferred: expr builds on this module

    node = parse_expression(name)
    if node[0] in ("catalog", "torus", "box", "nk"):
        return build(node)
    return fixed_complex(name)  # raises: each fixed name is one atom
