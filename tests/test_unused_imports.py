"""No library module imports a name it never uses.

Read with the stdlib ast module alone: a name bound by an import must
appear as a Name somewhere else in the module, annotations included.
__init__.py is the package's export list and is not checked; neither are
__future__ imports, which bind no name a module reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "upsilonkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nx: b = os\n"
    assert unused_imports(source) == ["d (line 3)"]
    assert "upsilon.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
