"""Line-oriented text format for model complexes.

    gen NAME GRADING I J
    d NAME = 0
    d NAME = [U^K] NAME (+ [U^K] NAME)*

'#' starts a comment; blank lines are ignored.  A generator without a
d-line has zero boundary.  A name is one or more characters other than
whitespace, '=', '+' and '#', and is not 0, which would read as the zero
boundary; serialize_complex refuses a complex with any other name.
"""

from __future__ import annotations

import re

from .complexes import _MAX_U_POWER, Generator, ModelComplex

_NAME_RE = re.compile(r"(?!0$)[^\s=+#]+")  # with fullmatch: the whole name rule
_UPOW_RE = re.compile(r"U\^(\d{1,19})$")  # digits enough for any 64-bit U-power


class ComplexParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_complex(text: str) -> ModelComplex:
    gens: list[Generator] = []
    seen: dict[str, int] = {}
    d_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        head, rest = fields[0], fields[1] if len(fields) > 1 else ""
        if head == "gen":
            parts = rest.split()
            if len(parts) != 4:
                raise ComplexParseError(lineno, f"expected 'gen NAME GRADING I J', got {raw.strip()!r}")
            name, *nums = parts
            if not _NAME_RE.fullmatch(name):
                raise ComplexParseError(lineno, f"bad generator name {name!r}")
            if name in seen:
                raise ComplexParseError(lineno, f"duplicate gen line for {name!r} (first at line {seen[name]})")
            try:
                grading, i, j = (int(x) for x in nums)
            except ValueError:
                raise ComplexParseError(lineno, f"grading and filtrations must be integers, got {nums}") from None
            seen[name] = lineno
            gens.append(Generator(name, grading, i, j))
        elif head == "d":
            if "=" not in rest:
                raise ComplexParseError(lineno, "d line needs '='")
            name, rhs = (part.strip() for part in rest.split("=", 1))
            d_lines.append((lineno, name, rhs))
        else:
            raise ComplexParseError(lineno, f"unknown statement {head!r} (expected 'gen' or 'd')")

    boundary: dict[str, list] = {}
    for lineno, name, rhs in d_lines:
        if name not in seen:
            raise ComplexParseError(lineno, f"d line for unknown generator {name!r}")
        if name in boundary:
            raise ComplexParseError(lineno, f"duplicate d line for {name!r}")
        if rhs == "0":
            boundary[name] = []
            continue
        terms = []
        for part in rhs.split("+"):
            tokens = part.split()
            if len(tokens) == 1:
                k, target = 0, tokens[0]
            elif len(tokens) == 2:
                m = _UPOW_RE.match(tokens[0])
                k, target = int(m.group(1)) if m else 0, tokens[1]
                if not 1 <= k <= _MAX_U_POWER:
                    raise ComplexParseError(
                        lineno, f"malformed term {part.strip()!r} (expected 'U^K NAME', 1 <= K < 2^63)")
            else:
                raise ComplexParseError(lineno, f"malformed term {part.strip()!r}")
            if target not in seen:
                raise ComplexParseError(lineno, f"boundary term hits unknown generator {target!r}")
            terms.append((k, target))
        boundary[name] = terms
    return ModelComplex(gens, boundary)


def serialize_complex(C: ModelComplex) -> str:
    lines = []
    for g in C.generators:
        if not _NAME_RE.fullmatch(g.name):
            raise ValueError(f"generator name {g.name!r} cannot be written: a name is one or more "
                             "characters other than whitespace, '=', '+' and '#', and is not 0")
        lines.append(f"gen {g.name} {g.grading} {g.i} {g.j}")
    boundary = C.boundary
    for g in C.generators:
        terms = sorted(boundary[g.name], key=lambda t: (t[1], t[0]))
        if not terms:
            lines.append(f"d {g.name} = 0")
        else:
            rhs = " + ".join(f"U^{k} {name}" if k else name for k, name in terms)
            lines.append(f"d {g.name} = {rhs}")
    return "\n".join(lines) + "\n"
