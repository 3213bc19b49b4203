"""Bifiltered graded model complexes over F2[U, U^-1].

A ModelComplex records the finite model: generators with an integer
grading and a bifiltration point (i, j), plus a boundary map whose
terms are U^k multiples of other generators.  The full complex is the
model tensored with F2[U, U^-1]; the action of U drops the grading by
two and both filtration levels by one, so each grading slice of the
full complex is finite and can be handled with exact GF(2) linear
algebra.

Internally a complex is integer-indexed (see ModelComplex); generator
names matter only at the I/O edge.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from operator import xor
from typing import Iterable, Mapping, NamedTuple

from .gf2 import Gf2Solver, Gf2Span, support

LatticePoint = tuple[int, int]

# Most generators of a complex (the ModelComplex constructor, so stair[...] and
# @file; tensor, tensor_power, direct_sum, T(p,q), nK(n)), and the largest
# tensor power; 3*hom-K has 3375 generators, 4*hom-K 50625.
MAX_GENERATORS = 10_000
# Most characters of generator names tensor and tensor_power may build.  The
# names of a product pair up its factors' names as (a.b), so a power of a
# one-generator complex passes MAX_GENERATORS while its one name grows with
# every factor.  3*hom-K has 101 250 characters of names, 10000*unknot 39 997.
MAX_NAME_CHARS = 500_000
# U-powers are stored as signed 64-bit integers.
_MAX_U_POWER = 2**63 - 1


class InvalidComplexError(ValueError):
    """The complex violates a structural or homological axiom."""


def memoized(fn):
    """Cache fn(C, *args) on the immutable complex C, keyed by fn and
    args.  Callers share the result, so it must not be mutated."""

    @functools.wraps(fn)
    def wrapper(C, *args):
        key = (fn, *args)
        if key not in C._cache:
            C._cache[key] = fn(C, *args)
        return C._cache[key]

    return wrapper


class Generator(NamedTuple):
    name: str
    grading: int
    i: int
    j: int

    @property
    def point(self) -> LatticePoint:
        return (self.i, self.j)


class BoundaryTerm(NamedTuple):
    u_power: int
    target: str


class SliceElement(NamedTuple):
    name: str
    u_power: int
    point: LatticePoint


class CheckResult(NamedTuple):
    name: str
    passed: bool
    advisory: bool = False
    detail: str = ""

    def __str__(self):
        status = "pass" if self.passed else ("ADVISORY-FAIL" if self.advisory else "FAIL")
        tail = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{self.name}: {status}{tail}"


class ValidationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if not c.advisory)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed and not c.advisory)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


class CycleCoset(NamedTuple):
    """Affine set of grading-0 cycles representing the generator of H0.

    The coset is cycle + the span of the grading-1 boundary columns, as
    bit vectors over basis (the grading-0 slice in declaration order).
    """

    basis: tuple[SliceElement, ...]
    cycle: int


class ModelComplex:
    """Immutable finite model of a bifiltered complex over F2[U, U^-1].

    Generators are integer ids 0..n-1 in declaration order.  Names,
    gradings and filtration levels are parallel tuples indexed by id, and
    the boundary is one flat array of (U-power, target id) pairs: the
    terms of generator x fill positions offsets[x] to offsets[x + 1].
    The ids of one grading parity (_ids) index the GF(2) slice columns
    (_columns), which the d^2 = 0 check, the homology ranks and H0 read.
    Names appear only at the edges: generators, names, boundary and the
    grading slices are the views by name, built on demand.
    """

    def __init__(self, generators: Iterable[Generator], boundary: Mapping[str, Iterable]):
        gens = tuple(generators)
        if len(gens) > MAX_GENERATORS:
            raise _size_error("the complex", str(len(gens)))
        for g in gens:
            if not isinstance(g, Generator):
                raise ValueError(f"generator {g!r}: not a Generator")
            if not isinstance(g.name, str):
                raise ValueError(f"generator {g.name!r}: name must be a string")
            # type, not isinstance: a bool level would be written out as True or False.
            if type(g.grading) is not int or type(g.i) is not int or type(g.j) is not int:
                raise ValueError(f"generator {g.name}: grading, i and j must be integers")
        names = tuple(g.name for g in gens)
        ids = {name: x for x, name in enumerate(names)}
        term_lists = []
        for name in names:
            terms = {}  # a repeated term counts once
            given = boundary.get(name, ())
            if not isinstance(given, Iterable):
                raise ValueError(f"boundary of {name}: {given!r} is not a collection of terms")
            for term in given:
                try:
                    k, target = term
                    known = target in ids
                except (TypeError, ValueError):
                    raise ValueError(f"boundary of {name}: {term!r} is not a (U-power, target) pair") from None
                if not known:
                    raise ValueError(f"boundary of {name} hits unknown generator {target!r}")
                if type(k) is not int or k < 0:  # a bool is no U-power
                    raise ValueError(f"boundary of {name}: U-power must be a non-negative integer")
                if k > _MAX_U_POWER:
                    raise ValueError(f"boundary of {name}: U-power {k} does not fit in 64 bits")
                terms[k, ids[target]] = None
            term_lists.append(terms)
        extra = set(boundary) - ids.keys()
        if extra:
            raise ValueError(f"boundary given for unknown generators: {sorted(extra)}")
        self._store(names, tuple(g.grading for g in gens), tuple(g.i for g in gens),
                    tuple(g.j for g in gens), *_pack(term_lists))

    @classmethod
    def _from_arrays(cls, names, grading, i, j, offsets, terms) -> "ModelComplex":
        """A complex from storage that a construction derived from existing
        complexes, so without the checks on outside input; _store still
        refuses repeated names."""
        C = cls.__new__(cls)
        C._store(names, grading, i, j, offsets, terms)
        return C

    def _store(self, names, grading, i, j, offsets, terms) -> None:
        # One name cannot repeat, and hashing the long one of a power of a
        # one-generator complex would cost as much as building it.
        if len(names) > 1 and len(set(names)) != len(names):
            dup = sorted(n for n, count in Counter(names).items() if count > 1)
            raise ValueError(f"duplicate generator names: {dup}")
        self._names: tuple[str, ...] = names
        self._grading: tuple[int, ...] = grading
        self._i: tuple[int, ...] = i
        self._j: tuple[int, ...] = j
        self._offsets: array = offsets
        self._terms: array = terms
        self._cache: dict = {}

    # -- views by name -------------------------------------------------------

    @property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(map(Generator, self._names, self._grading, self._i, self._j))

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def boundary(self) -> dict:
        names, offsets, terms = self._names, self._offsets, self._terms
        return {name: frozenset(BoundaryTerm(terms[p], names[terms[p + 1]])
                                for p in range(offsets[x], offsets[x + 1], 2))
                for x, name in enumerate(names)}

    def __len__(self):
        return len(self._names)

    def __repr__(self):
        return f"ModelComplex({len(self._names)} generators)"

    # -- grading slices of the full complex ---------------------------------

    @memoized
    def grading_slice(self, g: int) -> tuple[SliceElement, ...]:
        """Basis of the degree-g part of the full complex: one U-translate
        of each generator of the grading parity of g, in declaration order."""
        out = []
        for x in self._ids(g % 2):
            k = (self._grading[x] - g) // 2
            out.append(SliceElement(self._names[x], k, (self._i[x] - k, self._j[x] - k)))
        return tuple(out)

    @memoized
    def _ids(self, parity: int) -> tuple[int, ...]:
        """Ids of the generators of grading parity 0 or 1, in declaration order."""
        return tuple(x for x, gr in enumerate(self._grading) if (gr - parity) % 2 == 0)

    def slice_boundary(self, g: int) -> tuple[int, ...]:
        """Columns of the boundary matrix from slice g to slice g-1.

        U shifts slice g onto slice g+2 element by element, so both have
        the same columns; they are built once per grading parity."""
        return self._columns(g % 2)

    @memoized
    def _columns(self, parity: int) -> tuple[int, ...]:
        offsets, terms = self._offsets, self._terms
        row = [-1] * len(self._grading)  # position in the slice below, for the other parity
        for r, x in enumerate(self._ids(1 - parity)):
            row[x] = r
        cols = []
        for x in self._ids(parity):
            v = 0
            for p in range(offsets[x] + 1, offsets[x + 1], 2):
                r = row[terms[p]]
                if r < 0:  # a target of the same parity is not in the slice below
                    raise InvalidComplexError(
                        f"d({self._names[x]}) term U^{terms[p - 1]}.{self._names[terms[p]]} "
                        "keeps the grading parity")
                v ^= 1 << r
            cols.append(v)
        return tuple(cols)

    @memoized
    def _elimination(self) -> tuple[int, Gf2Span, int | None]:
        """One elimination per column set: the grading-0 rank, the grading-1
        span (callers must not add to it), and the first grading-0 cycle of
        a kernel basis outside that span, or None.  With H0 of dimension 1
        every such cycle has the same residue modulo the span, so the
        searches do not depend on which one comes first."""
        cycles = Gf2Solver(self.slice_boundary(0))
        boundaries = Gf2Span(self.slice_boundary(1))
        z0 = next((z for z in cycles.kernel_basis() if z not in boundaries), None)
        return cycles.rank, boundaries, z0

    def homology_dimension(self, g: int) -> int:
        rank0, boundaries, _ = self._elimination()
        return len(self._ids(g % 2)) - rank0 - boundaries.rank

    @memoized
    def generator_coset(self) -> CycleCoset:
        """The affine set of grading-0 cycles carrying the H0 generator."""
        h0 = self.homology_dimension(0)
        if h0 != 1:
            raise InvalidComplexError(f"H0 has dimension {h0}, expected 1")
        return CycleCoset(self.grading_slice(0), self._elimination()[2])

    # -- validation ----------------------------------------------------------

    @memoized
    def validate(self) -> ValidationReport:
        return ValidationReport(tuple(self._checks()))

    def require_valid(self) -> "ModelComplex":
        report = self.validate()
        if not report.ok:
            lines = "; ".join(str(c) for c in report.failures)
            raise InvalidComplexError(f"not a valid K-complex: {lines}")
        return self

    def is_acyclic(self) -> bool:
        """Graded homology vanishes (slices repeat with period two)."""
        if not all(c.passed for c in self._structural_checks()):
            return False
        return self.homology_dimension(0) == 0 and self.homology_dimension(1) == 0

    def _structural_checks(self):
        names, grading, i, j = self._names, self._grading, self._i, self._j
        offsets, terms = self._offsets, self._terms
        drop_bad = []
        mono_bad = []
        for x in range(len(names)):
            for p in range(offsets[x], offsets[x + 1], 2):
                k, t = terms[p], terms[p + 1]
                if grading[t] - 2 * k != grading[x] - 1:
                    drop_bad.append(f"d({names[x]}) term U^{k}.{names[t]}")
                if i[t] - k > i[x] or j[t] - k > j[x]:
                    mono_bad.append(f"d({names[x]}) term U^{k}.{names[t]}")
        yield CheckResult("grading-drop", not drop_bad, detail="; ".join(drop_bad[:3]))
        yield CheckResult("filtration-monotone", not mono_bad, detail="; ".join(mono_bad[:3]))

        if drop_bad:  # the slice columns describe d only once every term drops one grading
            yield CheckResult("d-squared", False, detail="skipped: grading-drop failed")
            return
        # d(d(x)): row r of x's column is generator r of the other parity, column r of below.
        square_bad = []
        for parity in (0, 1):
            below = self.slice_boundary(parity - 1)
            for x, column in zip(self._ids(parity), self.slice_boundary(parity)):
                if functools.reduce(xor, (below[r] for r in support(column)), 0):
                    square_bad.append(x)
        square_bad = [names[x] for x in sorted(square_bad)[:3]]
        yield CheckResult("d-squared", not square_bad, detail=f"d(d(x)) != 0 for x in {square_bad}")

    def _checks(self):
        structural = list(self._structural_checks())
        yield from structural
        if not all(c.passed for c in structural):
            yield CheckResult("homology", False, detail="skipped: structure invalid")
            yield CheckResult("normalization", False, detail="skipped: structure invalid")
            yield CheckResult("symmetry-multiset", self._symmetry_ok(), advisory=True)
            return

        # Slices repeat with period two under U; checking -1..2 covers both
        # parities with one redundant sample each.
        dims = {g: self.homology_dimension(g) for g in (-1, 0, 1, 2)}
        hom_ok = dims[0] == 1 and dims[2] == 1 and dims[-1] == 0 and dims[1] == 0
        yield CheckResult("homology", hom_ok,
                          detail=f"dim H(g) for g=-1..2: {[dims[g] for g in (-1, 0, 1, 2)]}")

        if hom_ok:
            from .upsilon import _one_sided  # deferred: upsilon builds on this module

            # gamma(0) off the search just right of 0, which gamma_pl's sweep
            # starts from, and gamma(2) off the one just left of 2.
            g0, g2 = _one_sided(self, 0, 1)[0], _one_sided(self, 2, -1)[0]
            yield CheckResult("normalization", g0 == 0 and g2 == 0,
                              detail=f"gamma(0) = {g0}, gamma(2) = {g2}")
        else:
            yield CheckResult("normalization", False, detail="skipped: H0 not one-dimensional")

        yield CheckResult("symmetry-multiset", self._symmetry_ok(), advisory=True,
                          detail="bifiltration multiset not invariant under (i,j) -> (j,i)")

    def _symmetry_ok(self) -> bool:
        levels = sorted(zip(self._grading, self._i, self._j))
        swapped = sorted(zip(self._grading, self._j, self._i))
        return levels == swapped


def _pack(term_lists) -> tuple[array, array]:
    """Offsets and the flat (U-power, target id) array of per-generator terms."""
    offsets, flat = array("q", [0]), array("q")
    for terms in term_lists:
        for k, t in terms:
            flat.append(k)
            flat.append(t)
        offsets.append(len(flat))
    return offsets, flat


def _term_lists(C: ModelComplex) -> list[list[tuple[int, int]]]:
    """The (U-power, target id) terms of each generator of C."""
    o, t = C._offsets, C._terms
    return [list(zip(t[a:b:2], t[a + 1:b:2])) for a, b in zip(o, o[1:])]


def _size_error(what: str, count: str) -> ValueError:
    return ValueError(f"{what} would have {count} generators, more than the limit of "
                      f"{MAX_GENERATORS}")


def _check_name_chars(what: str, chars: int) -> None:
    if chars > MAX_NAME_CHARS:
        raise ValueError(f"{what} would have {chars} characters of generator names, more than "
                         f"the limit of {MAX_NAME_CHARS}")


def _name_chars(C: ModelComplex) -> int:
    return sum(map(len, C._names))


# -- constructions ------------------------------------------------------------


def dual(C: ModelComplex) -> ModelComplex:
    """Mirror complex: gradings and filtrations negated, boundary transposed."""
    incoming: list[list] = [[] for _ in range(len(C))]
    for x, terms in enumerate(_term_lists(C)):
        for k, t in terms:
            incoming[t].append((k, x))
    return ModelComplex._from_arrays(
        tuple(name + "*" for name in C._names), tuple(-g for g in C._grading),
        tuple(-i for i in C._i), tuple(-j for j in C._j), *_pack(incoming),
    )


def tensor(C1: ModelComplex, C2: ModelComplex) -> ModelComplex:
    """Tensor product over F2[U, U^-1]; models a connected sum.

    Generator (x.y) has id x * len(C2) + y."""
    n1, n2 = len(C1), len(C2)
    if n1 * n2 > MAX_GENERATORS:
        raise _size_error("tensor product", f"{n1} x {n2} = {n1 * n2}")
    _check_name_chars("tensor product", n2 * _name_chars(C1) + n1 * _name_chars(C2) + 3 * n1 * n2)
    left, right = _term_lists(C1), _term_lists(C2)
    offsets, flat = array("q", [0]), array("q")
    append = flat.append
    for x, dx in enumerate(left):
        shifted = [(k, xt * n2) for k, xt in dx]
        row = x * n2
        for y, dy in enumerate(right):
            # d(x.y) = dx.y + x.dy
            for k, base in shifted:
                append(k)
                append(base + y)
            for k, yt in dy:
                # U^k x in dx and U^k y in dy both give U^k (x.y), which counts once.
                if yt != y or (k, x) not in dx:
                    append(k)
                    append(row + yt)
            offsets.append(len(flat))
    return ModelComplex._from_arrays(
        tuple(f"({a}.{b})" for a in C1._names for b in C2._names),
        tuple(a + b for a in C1._grading for b in C2._grading),
        tuple(a + b for a in C1._i for b in C2._i),
        tuple(a + b for a in C1._j for b in C2._j),
        offsets, flat,
    )


def tensor_power(C: ModelComplex, n: int) -> ModelComplex:
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    # Each factor costs a tensor product even when C has at most one generator.
    if n > MAX_GENERATORS:
        raise ValueError(f"tensor power {n} is more than the limit of {MAX_GENERATORS}")
    m = len(C)
    if n > 1:
        if m ** n > MAX_GENERATORS:
            raise _size_error("tensor power", f"{m}^{n}")
        # The m^n names ((x1.x2).x3)... each hold n names of C and 3 (n - 1)
        # more characters; each name of C is in n m^(n - 1) of them.
        chars = n * m ** (n - 1) * _name_chars(C) + 3 * (n - 1) * m ** n
        _check_name_chars(f"tensor power {n}", chars)
    out = C
    for _ in range(n - 1):
        out = tensor(out, C)
    return out


def direct_sum(C1: ModelComplex, C2: ModelComplex) -> ModelComplex:
    """Disjoint union; right-hand names pick up ~ suffixes on collision."""
    n1, n2 = len(C1), len(C2)
    if n1 + n2 > MAX_GENERATORS:
        raise _size_error("direct sum", f"{n1} + {n2} = {n1 + n2}")
    taken = set(C1._names)
    renamed = []
    for name in C2._names:
        new = name
        while new in taken:
            new += "~"
        renamed.append(new)
        taken.add(new)
    terms2 = array("q", C2._terms)
    terms2[1::2] = array("q", [t + n1 for t in C2._terms[1::2]])
    start = len(C1._terms)
    return ModelComplex._from_arrays(
        C1._names + tuple(renamed), C1._grading + C2._grading, C1._i + C2._i, C1._j + C2._j,
        C1._offsets + array("q", [o + start for o in C2._offsets[1:]]), C1._terms + terms2,
    )
