"""Bit-packed linear algebra over the two-element field.

Vectors are plain Python ints: bit ``i`` is the coefficient of basis
element ``i`` and addition is XOR, so everything is exact for any
dimension.  A span keeps one echelon row per pivot, its leading bit, and
has one reduction: clear every pivot bit.  The result is the canonical
residue, the least member of the vector's coset, so it does not depend
on the rows a span happens to hold.  A solver is a span of augmented
columns, whose low bits record which columns sum to each row.
"""

from __future__ import annotations

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

    __slots__ = ("_rows", "_mask")

    def __init__(self, vectors: Iterable[int] = ()):
        self._rows: dict[int, int] = {}  # pivot -> the row it leads
        self._mask = 0  # the pivots
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """Canonical residue of v modulo the span: every pivot bit cleared,
        highest first.  Linear, 0 exactly on the span, and the least member
        of v's coset."""
        rows, mask = self._rows, self._mask
        while hit := v & mask:
            v ^= rows[hit.bit_length() - 1]
        return v

    def add(self, v: int) -> int:
        """Add v to the span; returns the new echelon row, or 0 if the span
        did not grow."""
        v = self.reduce(v)
        if v:
            lead = v.bit_length() - 1
            self._rows[lead] = v
            self._mask |= 1 << lead
        return v

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> list[int]:
        return [self._rows[p] for p in sorted(self._rows)]


class Gf2Solver(Gf2Span):
    """The span of n columns, column k added as (column << n) | 1 << k.

    The low n bits of a row name the columns whose sum is its high bits.
    Rows led at bit n or above give the rank; the others, with no high
    bits, are a kernel basis.  Supports particular solutions of ``M x = b``
    as a bitmask over the columns.
    """

    __slots__ = ("_n", "_added")

    def __init__(self, columns: Iterable[int]):
        super().__init__()
        columns = tuple(columns)
        self._n, self._added = len(columns), 0
        for c in columns:
            self.add_column(c)

    def add_column(self, v: int) -> None:
        if self._added == self._n:
            raise ValueError(f"a solver over {self._n} columns takes no more")
        self.add(v << self._n | 1 << self._added)
        self._added += 1

    def solve(self, target: int) -> Optional[int]:
        """Bitmask x with (columns selected by x) XOR-summing to target."""
        x = self.reduce(target << self._n)
        return x if x >> self._n == 0 else None

    @property
    def rank(self) -> int:
        return sum(p >= self._n for p in self._rows)

    def kernel_basis(self) -> list[int]:
        return [row for p, row in self._rows.items() if p < self._n]
