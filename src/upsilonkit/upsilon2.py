"""Secondary invariants: one-sided minimizing cycle sets and Upsilon^2.

For t in (0, 2), Z- and Z+ are the sets of grading-0 cycles carrying
the H0 generator inside the minimal weight half-plane just left and
just right of t.  When they are disjoint, gamma2(s) is the least extra
level r at which some member of Z- becomes homologous to some member
of Z+ inside the union of the t half-plane at gamma(t) and the s
half-plane at r; Upsilon2(s) = -2 (gamma2(s) - gamma(t)).  When they
intersect, gamma2 is identically -inf and Upsilon2 identically +inf.
Lemma (checked): if Z- and Z+ are disjoint, z- + z+ is no boundary inside
the t half-plane.  A chain's boundary lies at or below it in both
filtrations; off the line strictly between the pivots it lies in V- or V+,
and the middle chains' part bounds below the line, in V-, so Z+- would meet.

_z_sets is the one path to Z- and Z+; it reads them, with no elimination
and no margin around t, off the certificates of the memoized one-sided
gamma searches that upsilon._pivots returns with the pivots.  z_sets and
upsilon2 each call _pivots once and hand its value to _z_sets, so
upsilon2 searches once per side of t.  Both split a slice at the t
half-plane by _pivots' support line: the key (a, b) and its level.
gamma2(s) is one upsilon._level search, as gamma(t) is: the
(column, point) items of the grading-1 slice outside the t half-plane
join the base (v-, v+ and the columns inside) in phi_s order until it
holds z- + z+, prepared once modulo that base: z- + z+ is homologous
inside the t half-plane iff its residue is 0.
upsilon.level_pl sweeps that search over s, as it sweeps gamma's over t;
each piece's witness is the x of the left-hand search at its right end
s1, which checks the piece: a chain inside the s half-plane at gamma2(s)
for s at s1 and just left of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .complexes import ModelComplex, SliceElement, tensor
from .exact import NEG_INF, POS_INF, PLFunction
from .gf2 import Gf2Span, support
from .upsilon import ConsistencyError, _level, _pivots, level_pl, prepare_search


class ZSets(NamedTuple):
    """Affine descriptions of the one-sided minimizing cycle sets at t.

    Members of Z- are z_minus + sums of v_minus vectors, as bit vectors
    over basis (the grading-0 slice); same on the plus side.
    """

    t: Fraction
    basis: tuple[SliceElement, ...]
    z_minus: int
    z_plus: int
    v_minus: tuple[int, ...]
    v_plus: tuple[int, ...]
    disjoint: bool


def z_sets(C: ModelComplex, t) -> ZSets:
    """Z- and Z+ at t: a representative and a direction basis for the cycles
    supported on the slice points no later than the pivot in the phi order
    just left (right) of t, the minimal half-plane on that side.  They are
    the x and the kernel of the one-sided gamma search, whose items are the
    slice's unit vectors."""
    return _z_sets(C, _pivots(C, t))


def _z_sets(C: ModelComplex, pivots) -> ZSets:
    """z_sets off what _pivots returned at t, which upsilon2 reads too."""
    t, (_, _, minus), (_, _, plus), (a, b), level = pivots
    zm, vm, zp, vp = minus.x, minus.kernel, plus.x, plus.kernel
    basis = C.generator_coset().basis

    # Every member must already sit inside the weight-gamma(t) half-plane.
    outside = sum(1 << idx for idx, e in enumerate(basis) if a * e.point[0] + b * e.point[1] > level)
    if any(vec & outside for vec in (zm, zp) + vm + vp):
        raise ConsistencyError(f"one-sided cycle leaves the t half-plane at t = {t}")

    disjoint = (zm ^ zp) not in Gf2Span(vm + vp)
    return ZSets(t, basis, zm, zp, vm, vp, disjoint)


class Upsilon2Result(NamedTuple):
    t: Fraction
    gamma_t: Fraction
    zsets: ZSets
    smooth_point: bool  # the two pivot points coincide at t
    gamma2: PLFunction  # function of s; constant -inf when Z sets meet
    upsilon2: PLFunction  # -2 (gamma2 - gamma(t)); constant +inf when infinite
    witnesses: tuple  # (s0, s1, names of connecting-chain elements outside the t half-plane, at s1)


def upsilon2(C: ModelComplex, t) -> Upsilon2Result:
    """gamma2 and Upsilon2 at t as exact PL functions of s on [0, 2], with
    a witness per piece (s0, s1): the grading-1 elements outside the t
    half-plane, inside the s half-plane at gamma2(s1), whose boundaries join
    z- to z+, read off the left-hand gamma2 search at s1."""
    pivots = _pivots(C, t)
    t, (gamma_t, p_minus, _), (_, p_plus, _), (a, b), level = pivots
    zs = _z_sets(C, pivots)
    smooth = p_minus == p_plus
    if not zs.disjoint:
        return Upsilon2Result(t, gamma_t, zs, smooth, PLFunction(infinite=NEG_INF),
                              PLFunction(infinite=POS_INF), ())

    target = zs.z_minus ^ zs.z_plus
    slice1, columns = C.grading_slice(1), C.slice_boundary(1)
    inside = [idx for idx, e in enumerate(slice1) if a * e.point[0] + b * e.point[1] <= level]
    outside = [idx for idx, e in enumerate(slice1) if a * e.point[0] + b * e.point[1] > level]
    items = [(columns[idx], slice1[idx].point) for idx in outside]

    base = Gf2Span(list(zs.v_minus + zs.v_plus) + [columns[idx] for idx in inside])
    search = prepare_search(base, target, items)
    if not search[0]:
        raise ConsistencyError(f"disjoint Z sets meet inside the t half-plane at t = {t}")

    g2, xs = level_pl(search, "gamma2", partial(_level, search))
    u2 = g2.scale(-2, 2 * gamma_t)

    bps = [s for s, _ in g2.breakpoints]
    witnesses = tuple((s0, s1, tuple(slice1[outside[k]].name for k in support(x)))
                      for s0, s1, x in zip(bps[:-1], bps[1:], xs, strict=True))
    return Upsilon2Result(t, gamma_t, zs, smooth, g2, u2, witnesses)


def upsilon2_scalar(C: ModelComplex):
    """Upsilon2 at t = 1 evaluated at s = 1 (+inf propagates)."""
    return upsilon2(C, 1).upsilon2.evaluate(1)


def check_subadditivity(C1: ModelComplex, C2: ModelComplex, t) -> bool:
    """Upsilon2 of a tensor product at s = t dominates the worse factor."""
    rhs = min(upsilon2(C1, t).upsilon2.evaluate(t), upsilon2(C2, t).upsilon2.evaluate(t))
    return upsilon2(tensor(C1, C2), t).upsilon2.evaluate(t) >= rhs
