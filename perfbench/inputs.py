"""Seeded input generation shared by the workloads.

An Input carries the expression string the library or the CLI sees,
and the term list the closed-form reference needs (see closedform.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Ladder atoms whose per-layer breakdown the traced run prints.
LADDER = ("T(5,7)", "T(13,17)", "nK(4)", "box(1) # box(2) # box(3)", "3*hom-K")

# Named catalog complexes in closed-form terms.
HOM_C1 = ("stair", (2, 2))
HOM_C2 = ("stair", (1, 1, 1, 1))
HOM_K = ((1, HOM_C1), (-1, HOM_C2))


@dataclass
class Input:
    expr: str
    terms: tuple | None  # closed-form term list, None when there is none
    kind: str
    extra: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.expr if self.expr in LADDER and "box" not in self.extra else ""


def atom_expr(atom) -> str:
    if atom[0] == "stair":
        return "stair[" + ",".join(map(str, atom[1])) + "]"
    if atom[0] == "torus":
        return f"T({atom[1]},{atom[2]})"
    return f"box({atom[1]})"


def random_stair(rng, m_low: int, m_high: int, top: int):
    m = rng.randint(m_low, m_high)
    return ("stair", tuple(rng.randint(1, top) for _ in range(2 * m)))


def scaled(terms, k: int):
    return tuple((k * c, a) for c, a in terms)


def nk_terms(n: int):
    return ((1, ("stair", (2,) * (2 * n))), (-1, ("stair", (1,) * (4 * n))))
