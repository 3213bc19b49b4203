"""The cli-mixed workload: one `python -m upsilonkit.cli ...` subprocess
per op, run with sys.executable and PYTHONPATH set to the checkout's
src/, so that the commit under test is measured, not an installed copy.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import upsilonkit as uk

import closedform as cf
from inputs import HOM_C1, HOM_C2, HOM_K, Input, atom_expr, nk_terms, random_stair
from library_workloads import T_BOUNDS, complex_sizes, decode_reports, expected_reports

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().with_name("traced_cli.py")
CHILD_TIMEOUT_S = 120

CATALOG = ["fig8", "figure6", "hom-C1", "hom-C2", "hom-K", "unknot", "T(p,q)", "box(n)", "nK(n)"]
SMALL_TORUS = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7), (5, 6)]
NOT_COPRIME = ["T(4,6)", "T(6,9)", "T(4,10)", "T(6,8)"]
SYNTAX_ERRORS = ["T(3,", "stair[1,,2]", "box(2", "T(3,4) #", "(T(2,3)", "stair[]",
                 "T(3,4) + + T(2,3)", "nK(0"]

F = Fraction
NAMED_TERMS = {
    "T(3,4)": ((1, ("torus", 3, 4)),), "T(5,7)": ((1, ("torus", 5, 7)),),
    "hom-C1": ((1, HOM_C1),), "hom-C2": ((1, HOM_C2),), "hom-K": HOM_K,
    "nK(2)": nk_terms(2), "nK(3)": nk_terms(3), "figure6": None,
}
# Published Upsilon2 values (as in tests/test_acceptance.py): (expr, t) -> breakpoints.
PUBLISHED_UPSILON2 = {
    ("T(3,4)", "2/3"): [(0, 0), (2, -4)],
    ("T(5,7)", "2/5"): [(0, F(14, 5)), (2, F(-96, 5))],
    ("T(5,7)", "4/5"): [(0, F(8, 5)), (1, F(-12, 5)), (2, F(-42, 5))],
    ("T(5,7)", "1"): [(0, -2), (1, -1), (2, -2)],
    ("hom-C1", "1"): [(0, -2), (2, -2)],
    ("hom-C2", "1"): [(0, -2), (1, -1), (2, -2)],
    ("hom-K", "1"): [(0, -4), (1, -2), (2, -4)],
    ("figure6", "1"): [(0, -4), (2, -4)],
    ("nK(2)", "1"): [(0, -8), (1, -2), (2, -8)],
    ("nK(3)", "1"): [(0, -12), (1, -2), (2, -12)],
}
# Published scalar secondary invariants upsilon2 = Upsilon2_{K,1}(1).
PUBLISHED_V2 = {"box(1)": F(-2), "box(2)": F(-4), "box(3)": F(-6),
                "box(1) # box(2) # box(3)": F(-6), "-box(1)": uk.POS_INF}
PUBLISHED_V2.update({e: cf.pl_value([(F(x), F(y)) for x, y in pts], F(1))
                     for (e, t), pts in PUBLISHED_UPSILON2.items() if t == "1"})


def run_child(argv, cwd, stdout=subprocess.DEVNULL, stderr=None):
    """Run a child process to its end with PYTHONPATH set to the checkout's
    src/; returns its exit code and resource usage.  The wait blocks
    (subprocess polls when given a timeout, which would quantise the
    time); a timer kills a child that hangs."""
    proc = subprocess.Popen(argv, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def small_expr(rng):
    """A small closed-form expression: torus knot, staircase, or a sum."""
    def atom(largest: int):
        if rng.random() < 0.5:
            return ("torus", *rng.choice(SMALL_TORUS[:largest]))
        return random_stair(rng, 1, largest // 2, 3)

    if rng.random() < 0.3:
        a, b = atom(5), atom(5)
        return f"{atom_expr(a)} # -{atom_expr(b)}", ((1, a), (-1, b))
    a = atom(len(SMALL_TORUS))
    sign = rng.choice((1, -1))
    return ("-" if sign < 0 else "") + atom_expr(a), ((sign, a),)


def _pl_points(data) -> list:
    return [(F(p["x"]), F(p["y"])) for p in data["breakpoints"]]


def _format(value) -> str:
    return "+inf" if value == uk.POS_INF else f"{value.numerator}/{value.denominator}"


def _text_formula(text: str):
    """(slope, intercept) of a pl_to_text piece such as '-3*t + 1/2'."""
    if "*" not in text:
        return F(0), F(text)
    slope, _, rest = text.partition("*")
    rest = rest[1:].strip()
    if not rest:
        return F(slope), F(0)
    sign, num = rest.split()
    return F(slope), F(num) * (1 if sign == "+" else -1)


class CliMixed:
    """Every subcommand on small inputs, @file atoms, and error paths."""

    name = "cli-mixed"
    in_process = False

    def __init__(self):
        self.workdir: Path | None = None
        self.tracer = None
        self.max_child_rss_kb = 0
        self.file_text: dict[str, str] = {}

    # -- inputs -----------------------------------------------------------------

    def make_inputs(self, seed: int, workdir: Path) -> list[Input]:
        rng = random.Random(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for k, atom in enumerate([("torus", *rng.choice(SMALL_TORUS)), random_stair(rng, 2, 4, 3)]):
            name = f"atom{k + 1}.txt"
            text = uk.serialize_complex(uk.parse_and_build(atom_expr(atom)))
            (workdir / name).write_text(text)
            files[name] = atom
            self.file_text[name] = text

        def call(kind, args, expr=None, terms=None, code=0, **extra):
            argv = args + ["--", expr] if expr is not None else args
            return Input(expr, terms, kind, {"argv": argv, "code": code, **extra})

        items = [call("catalog_text", ["catalog"]), call("catalog_json", ["catalog", "--json"])]
        e, terms = small_expr(rng)
        items.append(call("validate_text", ["validate"], e, terms))
        e, terms = small_expr(rng)
        items.append(call("validate_json", ["validate", "--json"], e, terms))
        items.append(call("error", ["validate"], rng.choice(NOT_COPRIME), code=1))
        items.append(call("error", ["upsilon"], "no-such-knot", code=1))
        for bad in rng.sample(SYNTAX_ERRORS, 2):
            items.append(call("error", ["upsilon"], bad, code=2))
        e, terms = small_expr(rng)
        items.append(call("upsilon_text", ["upsilon"], e, terms))
        for _ in range(2):
            e, terms = small_expr(rng)
            items.append(call("upsilon_json", ["upsilon", "--json"], e, terms))
        e, terms = small_expr(rng)
        samples = rng.randint(5, 41)
        items.append(call("upsilon_csv", ["upsilon", "--csv", "samples.csv", "--samples", str(samples),
                                          "--quiet"], e, terms, samples=samples))
        for name, atom in files.items():
            items.append(call("upsilon_json", ["upsilon", "--json"], f"@{name}", ((1, atom),)))
        name, atom = rng.choice(sorted(files.items()))
        e = f"@{name} # -T(3,4)"
        items.append(call("upsilon_json", ["upsilon", "--json"], e,
                          ((1, atom), (-1, ("torus", 3, 4)))))
        name = rng.choice(sorted(files))
        items.append(call("show", ["show"], atom_expr(files[name]), ((1, files[name]),),
                          file=name))
        # The costliest calls (upsilon2 and bounds on nK(3), bounds on nK(2), v2 on
        # the box sum) are fixed, so that op_p90_ms does not depend on the seed.
        items.append(call("upsilon2_json", ["upsilon2", "--t", "1", "--json"], "nK(3)",
                          NAMED_TERMS["nK(3)"], t="1"))
        for e, t in rng.sample(sorted(k for k in PUBLISHED_UPSILON2 if k[0] != "nK(3)"), 2):
            items.append(call("upsilon2_json", ["upsilon2", "--t", t, "--json"], e,
                              NAMED_TERMS[e], t=t))
        items.append(call("upsilon2_inf", ["upsilon2", "--t", "1"], "-box(1)",
                          ((-1, ("box", 1)),)))
        items.append(call("pivots_json", ["pivots", "--t", "2/3", "--json"], "T(3,4)",
                          NAMED_TERMS["T(3,4)"], published=True))
        while True:
            e, terms = small_expr(rng)
            inner = cf.ExpectedUpsilon(terms).points()[1:-1]
            if inner:
                t = rng.choice(inner)[0]
                items.append(call("pivots_json", ["pivots", "--t", str(t), "--json"], e, terms))
                break
        box123 = "box(1) # box(2) # box(3)"
        for e in [box123, rng.choice(sorted(set(PUBLISHED_V2) - {box123}))]:
            items.append(call("v2_json", ["v2", "--json"], e))
        items.append(call("v2_text", ["v2"], "-box(1)"))
        t_args = [a for t in T_BOUNDS for a in ("--t", str(t))]
        for kind, flags, e in (("bounds_json", ["--json"], "nK(3)"), ("bounds_text", [], "nK(2)")):
            items.append(call(kind, ["bounds", *t_args, *flags], e, NAMED_TERMS[e]))
        rng.shuffle(items)
        return items

    # -- ops ---------------------------------------------------------------------

    def run_op(self, inp: Input):
        args = inp.extra["argv"]
        spans_path = None
        if self.tracer is not None:
            spans_path = self.workdir / "spans.json"
            argv = [sys.executable, str(TRACED_CLI), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "upsilonkit.cli", *args]
        code, out, err, rss_kb = self._run_child(argv)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        csv = None
        if inp.kind == "upsilon_csv":
            csv_path = self.workdir / "samples.csv"
            csv = csv_path.read_text()
            csv_path.unlink()
        if spans_path is not None:
            self._merge_spans(json.loads(spans_path.read_text()))
        return (code, out, err, csv), None

    def _run_child(self, argv):
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, usage = run_child(argv, self.workdir, out, err)
        return code, out_path.read_text(), err_path.read_text(), usage.ru_maxrss

    def _merge_spans(self, data) -> None:
        tracer = self.tracer
        base = len(tracer.spans)
        for name, start, end, parent, _ in data["spans"]:
            tracer.spans.append((name, start, end, parent + base if parent >= 0 else -1, tracer.op))
        tracer.counts.update(data["counts"])

    def sizes(self, inp: Input, C) -> dict:
        if inp.expr is None or inp.extra["code"] != 0:
            return {"generators": 0, "slice0": 0, "slice1": 0, "candidates": 0}
        return complex_sizes(uk.parse_and_build(inp.expr, base_dir=str(self.workdir)))

    # -- correctness -----------------------------------------------------------------

    def check(self, inp: Input, out) -> str | None:
        code, stdout, stderr, csv = out
        if code != inp.extra["code"]:
            return f"exit code {code}, expected {inp.extra['code']}: {stderr.strip()[-300:]}"
        return getattr(self, "_check_" + inp.kind)(inp, stdout, stderr, csv)

    def _check_error(self, inp, stdout, stderr, csv):
        prefix = "parse error:" if inp.extra["code"] == 2 else "error:"
        return None if stderr.startswith(prefix) else f"stderr does not start with {prefix!r}"

    def _check_catalog_text(self, inp, stdout, stderr, csv):
        return None if stdout.splitlines() == CATALOG else f"catalog printed {stdout!r}"

    def _check_catalog_json(self, inp, stdout, stderr, csv):
        return None if json.loads(stdout) == {"names": CATALOG} else f"catalog printed {stdout!r}"

    def _check_validate_text(self, inp, stdout, stderr, csv):
        status = dict(line.split(": ", 1) for line in stdout.splitlines())
        required = ("grading-drop", "filtration-monotone", "d-squared", "homology", "normalization")
        bad = [name for name in required if status.get(name) != "pass"]
        return f"checks not passed: {bad}" if bad else None

    def _check_validate_json(self, inp, stdout, stderr, csv):
        data = json.loads(stdout)
        bad = [c["name"] for c in data["checks"] if not c["passed"] and not c["advisory"]]
        return None if data["ok"] and not bad and len(data["checks"]) == 6 else f"validate: {stdout}"

    def _check_upsilon_json(self, inp, stdout, stderr, csv):
        data = json.loads(stdout)["upsilon"]
        if data["infinite"] != "none":
            return f"Upsilon reported infinite: {data}"
        return cf.upsilon_mismatch(_pl_points(data), cf.ExpectedUpsilon(inp.terms))

    def _check_upsilon_text(self, inp, stdout, stderr, csv):
        lines = stdout.splitlines()
        if lines[0] != "Upsilon(t):":
            return f"unexpected header {lines[0]!r}"
        expected = cf.ExpectedUpsilon(inp.terms)
        pieces = []
        for line in lines[1:]:
            interval, formula = line.strip().removeprefix("on ").split(": ")
            x0, x1 = (F(x) for x in interval.strip("[]").split(", "))
            pieces.append((x0, x1, *_text_formula(formula)))
        if pieces[0][0] != 0 or pieces[-1][1] != 2 or any(
                a[1] != b[0] for a, b in zip(pieces, pieces[1:])):
            return f"pieces do not tile [0, 2]: {pieces}"
        for x0, x1, slope, intercept in pieces:
            for x in {x0, x1} | {c for c in expected.candidates if x0 < c < x1}:
                if slope * x + intercept != expected.value(x):
                    return f"Upsilon({x}) = {slope * x + intercept}, closed form {expected.value(x)}"
        return None

    def _check_upsilon_csv(self, inp, stdout, stderr, csv):
        expected = cf.ExpectedUpsilon(inp.terms)
        n = inp.extra["samples"]
        want = ["x,y"] + [f"{float(F(2 * k, n - 1))},{float(expected.value(F(2 * k, n - 1)))}"
                          for k in range(n)]
        return None if csv.splitlines() == want else "CSV samples differ from the closed form"

    def _check_show(self, inp, stdout, stderr, csv):
        if stdout != self.file_text[inp.extra["file"]]:
            return "show output differs from the text written for the @file atom"
        gens = sum(line.startswith("gen ") for line in stdout.splitlines())
        want = cf.generator_count(inp.terms)
        return None if gens == want else f"show printed {gens} generators, expected {want}"

    def _check_upsilon2_json(self, inp, stdout, stderr, csv):
        data = json.loads(stdout)
        want = [(F(x), F(y)) for x, y in PUBLISHED_UPSILON2[(inp.expr, inp.extra["t"])]]
        got = data["upsilon2"]
        if got["infinite"] != "none" or _pl_points(got) != cf.merge_collinear(want):
            return f"Upsilon2 {got}, published {want}"
        return None

    def _check_upsilon2_inf(self, inp, stdout, stderr, csv):
        lines = stdout.splitlines()
        ok = len(lines) >= 3 and lines[1] == "+inf everywhere" and lines[2].startswith("note: ")
        return None if ok else f"expected +inf with a note, got {stdout!r}"

    def _check_pivots_json(self, inp, stdout, stderr, csv):
        data = json.loads(stdout)
        expected = cf.ExpectedUpsilon(inp.terms)
        t = F(data["t"])
        gamma = -expected.value(t) / 2
        jump = expected.slope(t, "right") - expected.slope(t, "left")
        pm, pp = data["p_minus"], data["p_plus"]

        def phi(point):
            return t / 2 * point[1] + (1 - t / 2) * point[0]

        if F(data["gamma_t"]) != gamma or phi(pm) != gamma or phi(pp) != gamma:
            return f"pivots off the support line gamma = {gamma}: {data}"
        if F(data["derivative_jump"]) != jump or jump != 2 / t * (pp[0] - pm[0]):
            return f"slope jump {data['derivative_jump']}, closed form {jump}"
        if inp.extra.get("published") and (pm, pp, data["on_line"]) != (
                [0, 3], [1, 1], [[0, 3], [1, 1]]):
            return f"T(3,4) pivots at 2/3 differ from the published ones: {data}"
        return None

    def _check_v2_json(self, inp, stdout, stderr, csv):
        got = json.loads(stdout)["v2"]
        want = _format(PUBLISHED_V2[inp.expr])
        return None if got == want else f"v2 = {got}, published {want}"

    def _check_v2_text(self, inp, stdout, stderr, csv):
        first = stdout.splitlines()[0]
        want = "+inf" if PUBLISHED_V2[inp.expr] == uk.POS_INF else str(PUBLISHED_V2[inp.expr])
        return None if first == want else f"v2 printed {first!r}, published {want}"

    def _expected_bounds(self, inp):
        up = ("upsilon",) + cf.gc_bound(cf.ExpectedUpsilon(inp.terms).points())
        rest, skipped = decode_reports(expected_reports()[inp.expr])
        reports = (up,) + rest
        return reports, skipped, max(r[3] for r in reports), cf.diagonal_width(inp.terms)

    def _check_bounds_json(self, inp, stdout, stderr, csv):
        data = json.loads(stdout)
        reports = tuple((r["source"], r["slope_bound"],
                         tuple((F(b["location"]), b["bound"]) for b in r["breakpoint_bounds"]),
                         r["combined"]) for r in data["reports"])
        got = (reports, tuple(data["skipped_infinite"]), data["combined"], data["diagonal_width"])
        want = self._expected_bounds(inp)
        return None if got == want else f"bounds {got}, expected {want}"

    def _check_bounds_text(self, inp, stdout, stderr, csv):
        _, skipped, combined, width = self._expected_bounds(inp)
        lines = stdout.splitlines()
        need = [f"upsilon2[t={t}]: infinite, skipped" for t in skipped]
        need += [f"combined concordance-genus lower bound: {combined}",
                 f"diagonal width of the model: {width}"]
        missing = [line for line in need if line not in lines]
        return f"missing lines {missing}" if missing else None
