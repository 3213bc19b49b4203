"""Bifiltered graded model complexes over F2[U, U^-1].

A ModelComplex records the finite model: generators with an integer
grading and a bifiltration point (i, j), plus a boundary map whose
terms are U^k multiples of other generators.  The full complex is the
model tensored with F2[U, U^-1]; the action of U drops the grading by
two and both filtration levels by one, so each grading slice of the
full complex is finite and can be handled with exact GF(2) linear
algebra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .gf2 import Gf2Solver, Gf2Span

LatticePoint = tuple[int, int]


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


@dataclass(frozen=True)
class Generator:
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    advisory: bool = False
    detail: str = ""

    def __str__(self):
        status = "pass" if self.passed else ("ADVISORY-FAIL" if self.advisory else "FAIL")
        tail = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{self.name}: {status}{tail}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if not c.advisory)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed and not c.advisory)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


@dataclass(frozen=True)
class CycleCoset:
    """Affine set of grading-0 cycles representing the generator of H0.

    The coset is cycle + span(boundaries), as bit vectors over basis
    (the grading-0 slice in declaration order).
    """

    basis: tuple[SliceElement, ...]
    cycle: int
    boundaries: tuple[int, ...]


class ModelComplex:
    """Immutable finite model of a bifiltered complex over F2[U, U^-1]."""

    def __init__(self, generators: Iterable[Generator], boundary: Mapping[str, Iterable]):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate generator names: {dup}")
        known = set(names)
        bmap = {}
        for name in names:
            terms = set()
            for term in boundary.get(name, ()):
                k, target = term
                if target not in known:
                    raise ValueError(f"boundary of {name} hits unknown generator {target!r}")
                if not isinstance(k, int) or k < 0:
                    raise ValueError(f"boundary of {name}: U-power must be a non-negative integer")
                terms.add(BoundaryTerm(k, target))
            bmap[name] = frozenset(terms)
        extra = set(boundary) - known
        if extra:
            raise ValueError(f"boundary given for unknown generators: {sorted(extra)}")
        self._generators = gens
        self._boundary = bmap
        self._by_name = {g.name: g for g in gens}
        self._cache: dict = {}

    @property
    def generators(self) -> tuple[Generator, ...]:
        return self._generators

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self._generators)

    def generator(self, name: str) -> Generator:
        return self._by_name[name]

    def boundary_of(self, name: str) -> frozenset:
        return self._boundary[name]

    @property
    def boundary(self) -> dict:
        return dict(self._boundary)

    def __len__(self):
        return len(self._generators)

    def __repr__(self):
        return f"ModelComplex({len(self._generators)} generators)"

    # -- grading slices of the full complex ---------------------------------

    @memoized
    def grading_slice(self, g: int) -> tuple[SliceElement, ...]:
        """Basis of the degree-g part of the full complex.

        Each generator with matching grading parity contributes exactly
        one U-translate; order follows generator declaration.
        """
        out = []
        for gen in self._generators:
            if (gen.grading - g) % 2 == 0:
                k = (gen.grading - g) // 2
                out.append(SliceElement(gen.name, k, (gen.i - k, gen.j - k)))
        return tuple(out)

    @memoized
    def slice_boundary(self, g: int) -> tuple[int, ...]:
        """Columns of the boundary matrix from slice g to slice g-1."""
        codomain = self.grading_slice(g - 1)
        index = {e.name: idx for idx, e in enumerate(codomain)}
        cols = []
        for elem in self.grading_slice(g):
            v = 0
            for _, target in self._boundary[elem.name]:
                v ^= 1 << index[target]
            cols.append(v)
        return tuple(cols)

    def homology_dimension(self, g: int) -> int:
        dim = len(self.grading_slice(g))
        rank_out = Gf2Solver(self.slice_boundary(g)).rank
        rank_in = Gf2Solver(self.slice_boundary(g + 1)).rank
        return dim - rank_out - rank_in

    @memoized
    def generator_coset(self) -> CycleCoset:
        """The affine set of grading-0 cycles carrying the H0 generator."""
        basis = self.grading_slice(0)
        out = Gf2Solver(self.slice_boundary(0))
        cycles = out.kernel_basis()
        b0 = Gf2Span(self.slice_boundary(1))
        h0 = len(cycles) - b0.rank
        if h0 != 1:
            raise InvalidComplexError(f"H0 has dimension {h0}, expected 1")
        z0 = next((z for z in cycles if z not in b0), None)
        if z0 is None:
            raise InvalidComplexError("no cycle outside the boundary span")
        return CycleCoset(basis, z0, tuple(b0.basis()))

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
        if not self._structural_ok():
            return False
        return self.homology_dimension(0) == 0 and self.homology_dimension(1) == 0

    def _structural_ok(self) -> bool:
        return all(c.passed for c in self._structural_checks())

    def _structural_checks(self):
        drop_bad = []
        mono_bad = []
        for gen in self._generators:
            for k, target in self._boundary[gen.name]:
                tg = self._by_name[target]
                if tg.grading - 2 * k != gen.grading - 1:
                    drop_bad.append(f"d({gen.name}) term U^{k}.{target}")
                if tg.i - k > gen.i or tg.j - k > gen.j:
                    mono_bad.append(f"d({gen.name}) term U^{k}.{target}")
        yield CheckResult("grading-drop", not drop_bad, detail="; ".join(drop_bad[:3]))
        yield CheckResult("filtration-monotone", not mono_bad, detail="; ".join(mono_bad[:3]))

        square_bad = []
        for gen in self._generators:
            counts: dict[tuple[int, str], int] = {}
            for k1, mid in self._boundary[gen.name]:
                for k2, target in self._boundary[mid]:
                    key = (k1 + k2, target)
                    counts[key] = counts.get(key, 0) ^ 1
            if any(counts.values()):
                square_bad.append(gen.name)
        yield CheckResult("d-squared", not square_bad,
                          detail=f"d(d(x)) != 0 for x in {square_bad[:3]}")

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
            from .upsilon import _gamma  # deferred: upsilon builds on this module

            g0, _ = _gamma(self, 0)
            g2, _ = _gamma(self, 2)
            yield CheckResult("normalization", g0 == 0 and g2 == 0,
                              detail=f"gamma(0) = {g0}, gamma(2) = {g2}")
        else:
            yield CheckResult("normalization", False, detail="skipped: H0 not one-dimensional")

        yield CheckResult("symmetry-multiset", self._symmetry_ok(), advisory=True,
                          detail="bifiltration multiset not invariant under (i,j) -> (j,i)")

    def _symmetry_ok(self) -> bool:
        levels = sorted((g.grading, g.i, g.j) for g in self._generators)
        swapped = sorted((g.grading, g.j, g.i) for g in self._generators)
        return levels == swapped


# -- constructions ------------------------------------------------------------


def dual(C: ModelComplex) -> ModelComplex:
    """Mirror complex: gradings and filtrations negated, boundary transposed."""
    gens = [Generator(g.name + "*", -g.grading, -g.i, -g.j) for g in C.generators]
    boundary: dict[str, list] = {g.name: [] for g in gens}
    for g in C.generators:
        for k, target in C.boundary_of(g.name):
            boundary[target + "*"].append((k, g.name + "*"))
    return ModelComplex(gens, boundary)


def tensor(C1: ModelComplex, C2: ModelComplex) -> ModelComplex:
    """Tensor product over F2[U, U^-1]; models a connected sum."""
    gens = []
    pair = {}
    for x in C1.generators:
        for y in C2.generators:
            name = f"({x.name}.{y.name})"
            pair[(x.name, y.name)] = name
            gens.append(Generator(name, x.grading + y.grading, x.i + y.i, x.j + y.j))
    boundary = {}
    for x in C1.generators:
        for y in C2.generators:
            terms = []
            for k, xt in C1.boundary_of(x.name):
                terms.append((k, pair[(xt, y.name)]))
            for k, yt in C2.boundary_of(y.name):
                terms.append((k, pair[(x.name, yt)]))
            boundary[pair[(x.name, y.name)]] = terms
    return ModelComplex(gens, boundary)


def tensor_power(C: ModelComplex, n: int) -> ModelComplex:
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    out = C
    for _ in range(n - 1):
        out = tensor(out, C)
    return out


def direct_sum(C1: ModelComplex, C2: ModelComplex) -> ModelComplex:
    """Disjoint union; right-hand names pick up ~ suffixes on collision."""
    taken = set(C1.names)
    rename = {}
    for name in C2.names:
        new = name
        while new in taken:
            new += "~"
        rename[name] = new
        taken.add(new)
    gens = list(C1.generators)
    gens += [Generator(rename[g.name], g.grading, g.i, g.j) for g in C2.generators]
    boundary: dict[str, list] = {g.name: list(C1.boundary_of(g.name)) for g in C1.generators}
    for g in C2.generators:
        boundary[rename[g.name]] = [(k, rename[t]) for k, t in C2.boundary_of(g.name)]
    return ModelComplex(gens, boundary)
