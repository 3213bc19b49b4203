"""Expression language for building complexes on the command line.

    atom   := catalog name | T(p,q) | stair[a1,...] | box(n) | nK(n)
            | @path | '(' expr ')'
    unary  := '-' unary | atom            (dual)
    power  := INT '*' power | unary       (tensor power)
    tensor := power ('#' power)*          (connected sum)
    sum    := tensor ('+' tensor)*        (direct sum)

Precedence: '-' over '*' over '#' over '+'.

A parsed tree is a tuple led by its kind, so equal trees have equal kinds:
an atom is (kind, payload), kind one of "catalog", "torus", "stair", "box",
"nk" and "file"; operators are ("-", x), ("*", n, x), ("#", l, r), ("+", l, r).
"""

from __future__ import annotations

import os
import re

from .catalog import box_complex, fixed_complex, nk_complex, stairway, torus_knot_complex
from .complexes import ModelComplex, direct_sum, dual, tensor, tensor_power
from .textio import parse_complex


class ExprParseError(ValueError):
    def __init__(self, message: str, offset: int, expected=()):
        detail = f" at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(message + detail)
        self.offset = offset
        self.expected = tuple(sorted(expected))


# build() recurses once per tree level, so no tree may be taller than this and
# no more brackets may be open at once: well under the interpreter's default
# recursion limit of 1000.  The parser itself does not recurse.
MAX_DEPTH = 400
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"
# How tightly each operator binds; the prefixes '*' and '-' bind tightest.
_BINDING = {"+": 1, "#": 2, "*": 3, "-": 3}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_-]*)|(?P<int>\d+)|(?P<file>@[^\s()#+*]+)"
    r"|(?P<punct>[()\[\],#+*-]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExprParseError(f"unexpected character {text[pos:].lstrip()[0]!r}",
                                 len(text) - len(text[pos:].lstrip()))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.peek()
        if val != value:
            raise ExprParseError(f"unexpected token {val or 'end of input'!r}", off, {repr(value)})
        return self.next()

    def parse(self) -> tuple:
        """Operator-precedence parse over explicit stacks, so nesting costs
        no interpreter frames.  operands holds (node, tree height) pairs,
        operators pending (symbol, power, offset); '(' marks a bracket."""
        operands, operators, brackets = [], [], 0
        while True:
            # An operand: tensor powers, then duals, then a bracket or an atom.
            while self.peek()[0] == "int":
                off = self.peek()[2]
                n = self.integer()
                if n <= 0:
                    raise ExprParseError(f"tensor power must be positive, got {n}", off)
                self.expect("*")
                operators.append(("*", n, off))
            while self.peek()[1] == "-":
                operators.append(("-", 0, self.next()[2]))
            kind, val, off = self.next()
            if val == "(":
                if brackets == MAX_DEPTH:
                    raise ExprParseError(_TOO_DEEP, off)
                brackets += 1
                operators.append(("(", 0, off))
                continue
            operands.append((self.atom(kind, val, off), 0))
            # Then any closing brackets, and a binary operator or the end.
            kind, val, off = self.peek()
            while brackets and val == ")":
                self.next()
                _reduce(operands, operators, 0)
                operators.pop()
                brackets -= 1
                kind, val, off = self.peek()
            if val in ("#", "+"):
                _reduce(operands, operators, _BINDING[val])
                operators.append((val, 0, self.next()[2]))
            elif brackets:
                self.expect(")")  # raises: a bracket is left open
            elif kind != "end":
                raise ExprParseError(f"trailing input {val!r}", off, {"'#'", "'+'", "end of input"})
            else:
                _reduce(operands, operators, 0)
                return operands[0][0]

    def atom(self, kind: str, val: str, off: int) -> tuple:
        if kind == "file":
            return ("file", val[1:])
        if kind == "name":
            if val == "T":
                return ("torus", tuple(self.int_args(2)))
            if val == "stair":
                return ("stair", tuple(self.int_list()))
            if val == "box":
                return ("box", self.int_args(1)[0])
            if val == "nK":
                return ("nk", self.int_args(1)[0])
            return ("catalog", val)
        raise ExprParseError(
            f"unexpected token {val or 'end of input'!r}", off,
            {"a name", "'('", "'-'", "'@file'", "an integer"},
        )

    def int_args(self, count: int):
        self.expect("(")
        out = [self.integer()]
        while len(out) < count:
            self.expect(",")
            out.append(self.integer())
        self.expect(")")
        return out

    def int_list(self):
        self.expect("[")
        out = [self.integer()]
        while self.peek()[1] == ",":
            self.next()
            out.append(self.integer())
        self.expect("]")
        return out

    def integer(self) -> int:
        kind, val, off = self.next()
        if kind != "int":
            raise ExprParseError(f"unexpected token {val or 'end of input'!r}", off, {"an integer"})
        try:
            return int(val)
        except ValueError:  # past the interpreter's limit on digits
            raise ExprParseError(f"integer of {len(val)} digits is too long", off) from None


def _reduce(operands: list, operators: list, binding: int) -> None:
    """Apply the pending operators, back to the innermost open bracket,
    that bind at least as tightly as binding."""
    while operators and operators[-1][0] != "(" and _BINDING[operators[-1][0]] >= binding:
        symbol, n, off = operators.pop()
        right, height = operands.pop()
        if symbol in ("#", "+"):
            left, left_height = operands.pop()
            node, height = (symbol, left, right), max(height, left_height)
        else:
            node = (symbol, right) if symbol == "-" else (symbol, n, right)
        if height == MAX_DEPTH:
            raise ExprParseError(_TOO_DEEP, off)
        operands.append((node, height + 1))


def parse_expression(text: str) -> tuple:
    return _Parser(text).parse()


def build(node: tuple, base_dir: str = ".") -> ModelComplex:
    """Evaluate a parsed expression to a model complex."""
    kind = node[0] if isinstance(node, tuple) and node else None
    if kind == "catalog":
        return fixed_complex(node[1])
    if kind == "torus":
        return torus_knot_complex(*node[1])
    if kind == "stair":
        return stairway(list(node[1]))
    if kind == "box":
        return box_complex(node[1])
    if kind == "nk":
        return nk_complex(node[1])
    if kind == "file":
        with open(os.path.join(base_dir, node[1]), encoding="utf-8") as fh:
            return parse_complex(fh.read())
    if kind == "-":
        return dual(build(node[1], base_dir))
    if kind == "*":
        return tensor_power(build(node[2], base_dir), node[1])
    if kind == "#":
        return tensor(build(node[1], base_dir), build(node[2], base_dir))
    if kind == "+":
        return direct_sum(build(node[1], base_dir), build(node[2], base_dir))
    raise TypeError(f"not an expression node: {node!r}")


def parse_and_build(text: str, base_dir: str = ".") -> ModelComplex:
    return build(parse_expression(text), base_dir)
