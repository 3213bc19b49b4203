"""The benchmark under perfbench/ reaches the library only by public names;
each must exist, or every run of a workload that uses it fails."""

import ast
import importlib
import re
from functools import reduce
from pathlib import Path

import upsilonkit as uk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def table(name):
    """The literal value of a top-level assignment in tracer.py."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in tracer.py")


def test_traced_names_resolve():
    # tracer._patch reads a method as cls.__dict__[name], so a dotted name
    # must be defined on its class itself: an inherited one resolves by
    # getattr but fails every traced run with a KeyError.
    for mod_name, attrs in [*table("SPANNED").items(), *table("COUNTED").items()]:
        module = importlib.import_module(f"upsilonkit.{mod_name}")
        for attr in attrs:
            *owner, name = attr.split(".")
            cls = reduce(getattr, owner, module)
            assert callable(getattr(cls, name)), (mod_name, attr)
            assert not owner or name in vars(cls), (mod_name, attr)


def test_uk_names_exist():
    used = {name for path in PERFBENCH.glob("*.py")
            for name in re.findall(r"\buk\.([A-Za-z_]\w*)", path.read_text())}
    assert "breakpoint_candidates" in used  # complex_sizes calls it outside an op's try
    assert [name for name in sorted(used) if not hasattr(uk, name)] == []
