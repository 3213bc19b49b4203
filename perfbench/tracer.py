"""Spans and counters recorded from outside the library.

install() replaces each listed public function of upsilonkit, under
every name any upsilonkit module holds it as, with a wrapper that
records a span (name, start, end, parent, op id), so that a
cross-module call such as upsilon2 -> pivot_points -> gamma_at nests
as child spans.  The GF(2) methods are too hot to span and only count
calls.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANNED = {
    "expr": ["parse_expression", "build"],
    "catalog": ["catalog", "stairway", "torus_knot_complex", "box_complex", "nk_complex",
                "acyclic_box", "add_acyclic_box"],
    "complexes": ["dual", "tensor", "tensor_power", "direct_sum", "ModelComplex.grading_slice",
                  "ModelComplex.slice_boundary", "ModelComplex.generator_coset",
                  "ModelComplex.validate"],
    "upsilon": ["breakpoint_candidates", "gamma_at", "gamma_pl", "upsilon", "pivot_points",
                "delta_upsilon_prime"],
    "upsilon2": ["z_sets", "upsilon2", "upsilon2_scalar"],
    "bounds": ["genus_report", "gc_bound_from_pl", "diagonal_width"],
    "textio": ["parse_complex", "serialize_complex"],
    "cli": ["main"],
}
COUNTED = {
    "gf2": {"Gf2Span.add": "gf2.span_adds", "Gf2Solver.add_column": "gf2.solver_columns",
            "Gf2Solver.solve": "gf2.solves"},
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._seen: set = set()
        self._undo: list = []

    def reset(self) -> None:
        self.spans, self.counts, self._seen = [], Counter(), set()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _once_per_complex(self, key: str, size):
        """Count size(result) once per complex per op."""

        def hook(args, result):
            tag = (key, self.op, id(args[0]))
            if tag not in self._seen:
                self._seen.add(tag)
                self.counts[key] += size(result)

        return hook

    def _upsilon2_hook(self, args, result):
        self.counts["upsilon2.calls"] += 1
        self.counts["upsilon2.infinite"] += not result.upsilon2.is_finite

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "upsilon.breakpoint_candidates": self._once_per_complex("upsilon.candidates", len),
            "upsilon.gamma_pl": self._once_per_complex("upsilon.breakpoints",
                                                       lambda f: len(f.breakpoints)),
            "upsilon2.upsilon2": self._upsilon2_hook,
        }
        for mod_name, attrs in SPANNED.items():
            for attr in attrs:
                name = f"{mod_name}.{attr.split('.')[-1]}"
                self._patch(mod_name, attr, lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        for mod_name, attrs in COUNTED.items():
            for attr, key in attrs.items():
                self._patch(mod_name, attr, lambda fn, k=key: self._counter(k, fn))

    def _patch(self, mod_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"upsilonkit.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == "upsilonkit" or name.startswith("upsilonkit."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []


# -- aggregation ----------------------------------------------------------------


def span_times(spans):
    """Per span name: self time, and inclusive time of the outermost spans
    (a span nested inside one of the same name is not counted twice)."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time, outer_time = defaultdict(float), defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        self_time[name] += end - start - child[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            outer_time[name] += end - start
    return self_time, outer_time


def layer_metrics(spans, counts) -> dict:
    """Per-layer numbers of one pass, by the names BENCHMARK.json lists."""
    own, outer = span_times(spans)
    gamma_evals = sum(1 for s in spans if s[0] == "upsilon.gamma_at")
    calls = counts["upsilon2.calls"]
    return {
        "expr.parse_s": outer["expr.parse_expression"],
        "expr.build_s": outer["expr.build"],
        "complexes.slice_s": own["complexes.grading_slice"] + own["complexes.slice_boundary"],
        "complexes.coset_s": own["complexes.generator_coset"],
        "complexes.validate_s": own["complexes.validate"],
        "gf2.span_adds": counts["gf2.span_adds"],
        "gf2.solver_columns": counts["gf2.solver_columns"],
        "gf2.solves": counts["gf2.solves"],
        "upsilon.candidates_s": own["upsilon.breakpoint_candidates"],
        "upsilon.gamma_at_s": own["upsilon.gamma_at"],
        "upsilon.pl_s": own["upsilon.gamma_pl"] + own["upsilon.upsilon"],
        "upsilon.pivots_s": own["upsilon.pivot_points"] + own["upsilon.delta_upsilon_prime"],
        "upsilon.candidates": counts["upsilon.candidates"],
        "upsilon.breakpoints": counts["upsilon.breakpoints"],
        "upsilon.gamma_evals": gamma_evals,
        "upsilon.breakpoint_yield": (counts["upsilon.breakpoints"] / counts["upsilon.candidates"]
                                     if counts["upsilon.candidates"] else 0.0),
        "upsilon2.zsets_s": own["upsilon2.z_sets"],
        "upsilon2.sweep_s": own["upsilon2.upsilon2"],
        "upsilon2.infinite_ratio": counts["upsilon2.infinite"] / calls if calls else 0.0,
        "bounds.report_s": (own["bounds.genus_report"] + own["bounds.gc_bound_from_pl"]
                            + own["bounds.diagonal_width"]),
        "textio.serialize_s": outer["textio.serialize_complex"],
        "textio.parse_s": outer["textio.parse_complex"],
    }


def op_breakdown(spans, op) -> dict:
    """Self time per span name within one op, largest first."""
    own, _ = span_times(_reindex(spans, op))
    return dict(sorted(own.items(), key=lambda kv: -kv[1]))


def _reindex(spans, op):
    """The spans of one op with parent indices renumbered."""
    keep = [i for i, s in enumerate(spans) if s[4] == op]
    new = {old: k for k, old in enumerate(keep)}
    return [(n, a, b, new.get(p, -1), o) for n, a, b, p, o in (spans[i] for i in keep)]
