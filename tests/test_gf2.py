import pytest
from hypothesis import given
from hypothesis import strategies as st

from upsilonkit.gf2 import (
    Gf2Solver,
    Gf2Span,
    functional,
    support,
)
from helpers import combine

vectors = st.integers(min_value=0, max_value=(1 << 12) - 1)


def test_support_round_trip():
    assert support(0) == ()
    assert support(0b1011) == (0, 1, 3)
    assert support((1 << 100_000) | 1) == (0, 100_000)


@given(vectors)
def test_support_from_support_inverse(v):
    assert sum(1 << i for i in support(v)) == v


def test_combine():
    vs = [0b001, 0b010, 0b100]
    assert combine(vs, 0b000) == 0
    assert combine(vs, 0b101) == 0b101
    assert combine([3, 3], 0b11) == 0


def test_span_membership_and_rank():
    span = Gf2Span([0b110, 0b011])
    assert 0b101 in span  # the sum
    assert 0b100 not in span
    assert span.rank == 2
    assert not span.add(0b101)  # dependent, span unchanged
    assert span.add(0b100) == 0b001  # the new echelon row
    assert span.rank == 3


def test_span_reduce_residue():
    span = Gf2Span([0b110])
    assert span.reduce(0b110) == 0
    assert span.reduce(0b111) == 0b001  # the pivot bit cleared


def test_solver_solution_and_kernel():
    cols = [0b011, 0b110, 0b101]  # third = sum of first two
    solver = Gf2Solver(cols)
    assert solver.rank == 2
    kernel = solver.kernel_basis()
    assert len(kernel) == 1
    assert combine(cols, kernel[0]) == 0
    x = solver.solve(0b110)
    assert x is not None and combine(cols, x) == 0b110
    assert solver.solve(0b100) is None


def test_solve_membership_and_rank():
    cols = [0b011, 0b110]
    x = Gf2Solver(cols).solve(0b101)
    assert x is not None and combine(cols, x) == 0b101
    assert Gf2Solver(cols).solve(0b100) is None
    assert 0b101 in Gf2Span(cols)
    assert 0b001 not in Gf2Span(cols)
    assert Gf2Span([0b1, 0b10, 0b11]).rank == 2


@given(st.lists(vectors, max_size=8), vectors)
def test_solver_agrees_with_span(cols, target):
    solver = Gf2Solver(cols)
    x = solver.solve(target)
    if x is None:
        assert target not in Gf2Span(cols)
    else:
        assert combine(cols, x) == target
    for k in solver.kernel_basis():
        assert k != 0 and combine(cols, k) == 0
    assert solver.rank + len(solver.kernel_basis()) == len(cols)


def test_solver_takes_only_its_columns():
    solver = Gf2Solver([0b01, 0b10])
    with pytest.raises(ValueError):
        solver.add_column(0b11)
    assert solver.rank == 2 and solver.kernel_basis() == []


@given(st.lists(vectors, max_size=8), vectors)
def test_gf2_against_every_subset_sum(cols, v):
    # A reference with no echelon form: the span is every subset sum of
    # the columns, enumerated.
    sums = {combine(cols, mask) for mask in range(1 << len(cols))}
    span, solver = Gf2Span(cols), Gf2Solver(cols)
    assert span.reduce(v) == min(v ^ s for s in sums)  # the least member of v's coset
    assert 1 << span.rank == 1 << solver.rank == len(sums)
    kernel = solver.kernel_basis()
    assert len(kernel) == len(cols) - solver.rank
    assert all(k and not combine(cols, k) for k in kernel)
    assert len({combine(kernel, mask) for mask in range(1 << len(kernel))}) == 1 << len(kernel)
    x = solver.solve(v)
    assert (x is not None) == (v in sums)
    assert x is None or combine(cols, x) == v


@given(st.lists(vectors, max_size=8))
def test_span_basis_spans_inputs(vs):
    span = Gf2Span(vs)
    basis = span.basis()
    assert len(basis) == span.rank == Gf2Span(basis).rank
    for v in vs:
        assert v in Gf2Span(basis)


@given(st.lists(vectors, max_size=8), vectors, vectors)
def test_residues_are_linear(rows, a, b):
    span = Gf2Span(rows)
    assert span.reduce(a ^ b) == span.reduce(a) ^ span.reduce(b)


@given(st.lists(vectors, max_size=8), vectors)
def test_residue_is_zero_exactly_on_the_span(rows, v):
    span = Gf2Span(rows)
    r = span.reduce(v)
    assert (r == 0) == (v in span)
    assert v ^ r in span  # v and its residue differ by a member


@given(st.lists(vectors, max_size=8), st.lists(vectors, max_size=8))
def test_residues_clear_every_pivot_bit(rows, vs):
    span = Gf2Span(rows)
    pivots = sum(1 << (row.bit_length() - 1) for row in span.basis())
    residues = [span.reduce(v) for v in vs]
    assert all(r & pivots == 0 for r in residues)
    assert [Gf2Span(rows[::-1]).reduce(v) for v in vs] == residues  # canonical: the same for any rows


def parity(f: int, v: int) -> int:
    return (f & v).bit_count() & 1


@given(st.lists(vectors, max_size=8), vectors)
def test_functional_separates_a_vector_from_a_span(vs, v):
    # Over the echelon rows of vs and the residue of v, whose leading bits
    # differ: 0 on every input and 1 on the residue, so on v.
    span = Gf2Span(vs)
    residue = span.reduce(v)
    if residue:
        f = functional(span.basis()[::-1], residue)
        assert parity(f, residue) == parity(f, v) == 1
        assert not any(parity(f, w) for w in vs)
