"""Print the engine's outputs on a fixed set of inputs, to diff two checkouts.

For each input it prints the show text and the validation report, Upsilon
and its candidate count, the pivots and the slope jump at each interior
breakpoint, Upsilon2 at t = 2/3 and 1 (with gamma2, witnesses and Z sets),
v2, the genus report and the diagonal width, and for the inputs in
ZSETS_AT_BREAKS the Z sets at each interior breakpoint of Upsilon.  Z sets
print as sets, not as the member and basis the engine chose.  Then it
runs CLI commands (every subcommand, --json, exit codes 1 and 2, hostile
inputs, file errors, --csv of a +inf result, --samples over its limit, a
product of @file atoms whose names would repeat, trees of every operator
whose generator names spell out their shape, nesting at and one past the
depth limit by duals, brackets and a '+' chain, and refusals that echo a
100 000-character input) and prints their exit codes
and output, or that one gave no result in CLI_TIMEOUT seconds; an argument
over 80 characters shows as its head and length.  Last it prints what
catalog() builds, or raises, for each of CATALOG_INPUTS, and what
serialize_complex does with a name the text format cannot carry.  The output
does not depend on PYTHONHASHSEED.

    python3 tools/fingerprint.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is the directory whose
src/ is imported and run, so one copy of the script fingerprints any
checkout:

    python3 tools/fingerprint.py > new.txt
    python3 tools/fingerprint.py ../other-checkout > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import upsilonkit as uk  # noqa: E402

CATALOG_SCAN = ["unknot", "fig8", "figure6", "hom-C1", "hom-C2", "hom-K",
                "T(2,3)", "T(3,4)", "T(2,5)", "box(1)", "box(2)", "nK(1)", "nK(2)"]
EXPRESSIONS = CATALOG_SCAN + [f"-{name}" for name in CATALOG_SCAN] + [
    "T(5,7)", "T(8,11)", "T(13,17)", "T(3,4) # -T(2,5)", "T(2,3) # T(2,3) # -T(2,5)",
    "2*hom-K", "box(1) # box(2) # box(3)", "stair[2,2] # -stair[1,1,1,1]", "T(2,3) + -fig8",
    # The benchmark's costliest inputs: many crossing candidates, and large
    # slices for the gamma2 sweep.
    "T(17,19)", "nK(3)", "3*hom-K", "2*hom-K # T(3,4)",
    # Several slice elements at one point: the witnesses are one chain of many.
    "box(1) # hom-K",
]
# Inputs whose one-sided cycle sets are printed at every interior breakpoint:
# mixed-sign sums, and cosets past the brute-force oracle's reach.
ZSETS_AT_BREAKS = {"figure6", "hom-K", "nK(3)", "T(3,4) # -T(2,5)", "2*hom-K # T(3,4)"}
INVALID_TEXTS = {
    "d-squared": "gen a 0 0 0\ngen b 1 1 1\ngen c 2 2 2\nd c = b\nd b = a\n",
    "two-generators-of-homology": "gen a 0 0 0\ngen b 0 1 1\n",
    "filtration-increasing": "gen a 0 0 0\ngen b 1 0 0\ngen c 0 1 1\nd b = a + c\n",
    "unknown-target": "gen a 0 0 0\nd a = z\n",
    "bad-grading": "gen a x 0 0\n",
    # Terms that keep the grading parity: d-squared is skipped, not read off the columns.
    "even-to-even": "gen a 0 0 0\ngen b 2 1 1\nd b = a\n",
    "self-term": "gen a 0 0 0\nd a = a\n",
    # Structurally invalid and asymmetric: the symmetry check still reports its detail.
    "asymmetric": "gen a 0 0 0\ngen b 1 0 2\ngen c 0 1 1\nd b = a + c\n",
}
# Atoms for the CLI only: their product would name two generators (p.q.r).
DOTTED_TEXTS = {
    "dots-l": "gen p 0 0 0\ngen p.q 2 1 1\n",
    "dots-r": "gen r 0 0 0\ngen q.r 2 1 1\n",
}
# An atom for the CLI only: its refusal echoes a gen line with a 100 000-character field.
LONG = "x" * 100_000
LONG_TEXTS = {"long-name": f"gen a 0 0 0 {LONG}\n"}
TS = [Fraction(2, 3), Fraction(1)]
# Seconds a CLI command may take; a checkout without the input limits hangs on
# some of the hostile commands below.
CLI_TIMEOUT = 20
CLI_COMMANDS = [
    ["catalog"], ["catalog", "--json"],
    ["validate", "T(3,4)"], ["validate", "--json", "T(3,4)"], ["validate", "@d-squared.txt"],
    ["upsilon", "T(5,7)"], ["upsilon", "--json", "T(5,7)"],
    ["upsilon", "T(3,4)", "--csv", "out.csv", "--samples", "5", "--quiet"],
    ["upsilon2", "T(3,4)", "--t", "2/3"], ["upsilon2", "--json", "hom-K", "--t", "1"],
    ["upsilon2", "--", "-T(3,4)", "--t", "2/3"],
    ["pivots", "T(3,4)", "--t", "2/3"], ["pivots", "--json", "T(5,7)", "--t", "1/2"],
    ["v2", "box(2)"], ["v2", "--json", "--", "-box(1)"],
    ["bounds", "nK(2)", "--t", "1", "--t", "2/3"], ["bounds", "--json", "T(5,7)", "--t", "1"],
    ["show", "stair[2,2] # -stair[1,1,1,1]"],
    ["upsilon", "T(2,4)"], ["show", "4*hom-K"],
    ["upsilon", "@no-such-file.txt"], ["upsilon", "T(3,"], ["upsilon2", "T(3,4)"],
    ["show", "3000*(3000*unknot)"], ["upsilon2", "T(3,4)", "--t", "1e-100000000"],
    ["bounds", "--t", "1e-5000", "T(3,4)"], ["pivots", "T(3,4)", "--t", "0.5"],
    ["show", "1" * 5000 + "*unknot"], ["upsilon", "stair[" + ",".join(["1"] * 24000) + "]"],
    ["show", "@."], ["upsilon", "T(3,4)", "--csv", "no-such-dir/out.csv"],
    # A +inf result still writes its CSV; an over-limit --samples is refused
    # before the file is opened (a checkout without the limit fails on the path).
    ["upsilon2", "--t", "1", "--csv", "inf.csv", "--samples", "5", "fig8"],
    ["upsilon", "T(5,7)", "--csv", "no-such-dir/big.csv", "--samples", "1000000000"],
    ["show", "--", "@dots-l.txt # @dots-r.txt"],
    # Generator names spell out the tree, e.g. (a1*.(A.A)).
    ["show", "--", "-T(2,3) # 2*box(1) + unknot"], ["show", "--", "unknot # (fig8 # figure6)"],
    # Nesting at the depth limit builds; one level past it is refused.
    ["show", "--", "-" * 400 + "unknot"], ["show", "--", "-" * 401 + "unknot"],
    ["show", "--", "(" * 401 + "unknot" + ")" * 401], ["show", "--", " + ".join(["unknot"] * 402)],
    # Refusals that echo a 100 000-character input print its head and tail.
    ["show", LONG], ["upsilon2", "--t", "1" * 100_000, "T(3,4)"], ["show", "@long-name.txt"],
    # So do argparse's own usage errors: an extra argument and an unknown subcommand.
    ["upsilon", "T(3,4)", LONG], [LONG, "T(3,4)"],
]
# Inputs of catalog(): every name of the scan, spaces between tokens, a bracketed
# atom, malformed parameters, and expressions that are not one catalog atom.
CATALOG_INPUTS = CATALOG_SCAN + [" T(3, 4) ", "(T(3,4))", "box(" + "1" * 5000 + ")", "T(3,",
                                 "T(3,4) # T(2,3)", "-T(3,4)", "--T(3,4)", "2*T(3,4)", "stair[2,2]",
                                 "@x.txt"]


def attempt(label, fn):
    try:
        value = fn()
    except Exception as exc:  # the failure is part of the fingerprint
        value = f"{type(exc).__name__}: {exc}"
    print(f"{label}: {value}")


def fingerprint(label, build):
    print(f"=== {label}")
    try:
        C = build()
    except Exception as exc:
        print(f"build: {type(exc).__name__}: {exc}")
        return
    print(uk.serialize_complex(C), end="")
    print(C.validate())
    attempt("upsilon", lambda: uk.upsilon(C))
    attempt("candidates", lambda: len(uk.breakpoint_candidates(C)))
    try:
        interior = [x for x, _ in uk.upsilon(C).breakpoints[1:-1]]
    except Exception:
        interior = []
    for x in interior:
        attempt(f"pivots at {x}", lambda: _pivots(uk.pivot_points(C, x)))
        attempt(f"slope jump at {x}", lambda: uk.delta_upsilon_prime(C, x))
        if label in ZSETS_AT_BREAKS:
            attempt(f"zsets at {x}", lambda: _zsets(uk.z_sets(C, x)))
    for t in TS:
        attempt(f"upsilon2 at {t}", lambda: _upsilon2(uk.upsilon2(C, t)))
    attempt("v2", lambda: uk.upsilon2_scalar(C))
    attempt("genus report", lambda: uk.genus_report(C, TS))
    attempt("diagonal width", lambda: uk.diagonal_width(C))


def _pivots(pd):
    return f"gamma {pd.gamma_t}, on line {sorted(pd.on_line)}, p- {pd.p_minus}, p+ {pd.p_plus}"


def _affine_set(z, directions):
    """z + span(directions) as a set: z with every pivot bit cleared, and
    the span's reduced echelon rows, each with one pivot bit, by ascending
    pivot; neither depends on the member or the basis an engine picked.
    Reduced here rather than by the engine, so that this script reads
    every checkout the same way."""
    rows: dict[int, int] = {}  # pivot -> the one member with it and no other pivot bit

    def clear(v):
        for p, row in rows.items():
            if v >> p & 1:
                v ^= row
        return v

    for v in directions:
        if v := clear(v):
            lead = v.bit_length() - 1
            for p, row in rows.items():
                if row >> lead & 1:
                    rows[p] = row ^ v
            rows[lead] = v
    return clear(z), tuple(rows[p] for p in sorted(rows))


def _zsets(zs):
    (zm, vm), (zp, vp) = _affine_set(zs.z_minus, zs.v_minus), _affine_set(zs.z_plus, zs.v_plus)
    return f"t {zs.t}, disjoint {zs.disjoint}, z- {zm}, z+ {zp}, v- {vm}, v+ {vp}"


def _upsilon2(res):
    return (f"gamma {res.gamma_t}, smooth {res.smooth_point}\n  upsilon2 {res.upsilon2}\n"
            f"  gamma2 {res.gamma2}\n  witnesses {res.witnesses}\n  zsets {_zsets(res.zsets)}")


def _shown(argv):
    """argv with each argument of over 80 characters cut to its head and length."""
    return [arg if len(arg) <= 80 else f"{arg[:20]}... ({len(arg)} characters)" for arg in argv]


def run_cli(workdir):
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv in CLI_COMMANDS:
        shown = _shown(argv)
        try:
            proc = subprocess.run([sys.executable, "-m", "upsilonkit.cli", *argv], cwd=workdir,
                                  env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"=== cli {shown}: no result in {CLI_TIMEOUT} s")
            continue
        print(f"=== cli {shown}: exit {proc.returncode}")
        print(proc.stdout, end="")
        print(proc.stderr, end="")
        csv = os.path.join(workdir, argv[argv.index("--csv") + 1]) if "--csv" in argv else None
        if csv and os.path.exists(csv):
            with open(csv, encoding="utf-8") as fh:
                print(fh.read(), end="")


def main():
    for expr in EXPRESSIONS:
        fingerprint(expr, lambda: uk.parse_and_build(expr))
    fingerprint("T(3,4) + acyclic box at (1,-1) of size 2",
                lambda: uk.add_acyclic_box(uk.torus_knot_complex(3, 4), (1, -1), 2))
    for name, text in INVALID_TEXTS.items():
        fingerprint(f"invalid text complex {name}", lambda: uk.parse_complex(text))
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in {**INVALID_TEXTS, **DOTTED_TEXTS, **LONG_TEXTS}.items():
            with open(os.path.join(workdir, f"{name}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.flush()
        run_cli(workdir)
    print("=== catalog()")
    for name in CATALOG_INPUTS:
        attempt(_shown([name])[0], lambda: uk.serialize_complex(uk.catalog(name)).rstrip("\n"))
    attempt("=== serialize a generator named 'a b'",
            lambda: uk.serialize_complex(uk.ModelComplex([uk.Generator("a b", 0, 0, 0)], {})))


if __name__ == "__main__":
    main()
