"""Only exact.py reads the private names of PLFunction.

A PL function's breakpoints, slopes and index have one owner; every other
library module reads them through breakpoints, slopes, evaluate and
value_and_slopes.  The one exception is PLFunction._canonical, the trusted
constructor of the kinetic sweep, read in upsilon.level_pl.  Read with the
stdlib ast module alone: an attribute whose name is a non-dunder private
name of PLFunction, from its class namespace or its __slots__, is a read.
"""

import ast
from pathlib import Path

import pytest

from upsilonkit.exact import PLFunction

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "upsilonkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "exact.py")
PRIVATE = {name for name in [*vars(PLFunction), *PLFunction.__slots__]
           if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
ALLOWED = {("upsilon.py", "_canonical")}


def private_reads(module: str, source: str) -> list[str]:
    """The reads of PLFunction's private names in source, but the allowed ones."""
    return [f"{node.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE
            and (module, node.attr) not in ALLOWED]


def test_the_check_finds_a_private_read():
    source = "def f(g):\n    return g._slopes, g.slopes, g.__class__, g._canonical\n"
    assert private_reads("bounds.py", source) == ["_slopes (line 2)", "_canonical (line 2)"]
    assert private_reads("upsilon.py", source) == ["_slopes (line 2)"]
    assert {"_points", "_slopes", "_index", "_locate", "_canonical"} <= PRIVATE
    assert "upsilon.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_only_exact_reads_plfunction_privates(module):
    assert private_reads(module, (PACKAGE / module).read_text(encoding="utf-8")) == []
