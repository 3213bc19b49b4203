"""Bit-packed linear algebra over the two-element field.

Vectors are plain Python ints: bit ``i`` is the coefficient of basis
element ``i`` and addition is XOR, so everything is exact for any
dimension.  Pivoting always uses the highest set bit, which keeps
echelon bases, solutions, and kernel bases deterministic.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional


def support(v: int) -> tuple[int, ...]:
    """Indices of the set bits of v, ascending."""
    out = []
    while v:
        low = v & -v  # one step per set bit, lowest first
        out.append(low.bit_length() - 1)
        v ^= low
    return tuple(out)


def functional(rows: Iterable[int], v: int) -> int:
    """A functional f, read as w -> parity of f & w, that is 0 on the rows
    and 1 on v, for rows and v with distinct leading bits: one pass in
    ascending leading bit, each vector setting f at its own leading bit,
    which no earlier vector has."""
    f = 0
    for w in sorted([*rows, v]):  # distinct leading bits: ascending as ints
        if (f & w).bit_count() & 1 != (w == v):
            f ^= 1 << (w.bit_length() - 1)
    return f


class Gf2Span:
    """Growable span of bit vectors kept in row-echelon form."""

    __slots__ = ("_rows",)

    def __init__(self, vectors: Iterable[int] = ()):
        self._rows: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """Residue of v modulo the span; 0 iff v is a member."""
        rows = self._rows
        while v:
            row = rows.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row
        return v

    def add(self, v: int) -> int:
        """Add v to the span; returns the new echelon row, or 0 if the span
        did not grow."""
        v = self.reduce(v)
        if v:
            self._rows[v.bit_length() - 1] = v
        return v

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> list[int]:
        return [self._rows[p] for p in sorted(self._rows)]

    def residues(self, vectors: Iterable[int]) -> list[int]:
        """Canonical residues of the vectors modulo the span: every pivot bit
        cleared by the rows in reduced echelon form.  Linear, and 0 exactly
        on the span."""
        reduced: dict[int, int] = {}  # pivot -> row with no other pivot bit
        mask, out = 0, []  # mask: the pivots of reduced
        for v in chain((self._rows[p] for p in sorted(self._rows)), vectors):
            while hit := v & mask:
                v ^= reduced[hit.bit_length() - 1]
            if len(reduced) < len(self._rows):  # a row, reduced by the lower rows
                reduced[v.bit_length() - 1] = v
                mask |= 1 << (v.bit_length() - 1)
            else:
                out.append(v)
        return out


class Gf2Solver:
    """Echelon form of a column set, tracking column combinations.

    Supports particular solutions of ``M x = b`` (as a bitmask over the
    columns added so far) and a basis for the kernel of M.
    """

    __slots__ = ("_rows", "_kernel", "_ncols")

    def __init__(self, columns: Iterable[int] = ()):
        self._rows: dict[int, tuple[int, int]] = {}
        self._kernel: list[int] = []
        self._ncols = 0
        for c in columns:
            self.add_column(c)

    def _reduce(self, v: int, combo: int) -> tuple[int, int]:
        rows = self._rows
        while v:
            rc = rows.get(v.bit_length() - 1)
            if rc is None:
                break
            v ^= rc[0]
            combo ^= rc[1]
        return v, combo

    def add_column(self, v: int) -> None:
        combo = 1 << self._ncols
        self._ncols += 1
        v, combo = self._reduce(v, combo)
        if v:
            self._rows[v.bit_length() - 1] = (v, combo)
        else:
            self._kernel.append(combo)

    def solve(self, target: int) -> Optional[int]:
        """Bitmask x with (columns selected by x) XOR-summing to target."""
        v, combo = self._reduce(target, 0)
        return combo if v == 0 else None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def kernel_basis(self) -> list[int]:
        return list(self._kernel)
