"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (invalid complex, failed
validation, a complex over complexes.MAX_GENERATORS) or a file error (with
the OS message), 2 on usage or parse errors, 3 when an internal cross-check
fails (an engine bug); the last prints a reproducer: the command line and
the complex in the text format.
A closed output pipe ends the run quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bounds import diagonal_width, genus_report
from .catalog import CATALOG_NAMES
from .exact import POS_INF, DomainError, PLFunction, as_rational, format_rational
from .expr import ExprParseError, parse_and_build
from .textio import ComplexParseError, serialize_complex
from .upsilon import ConsistencyError, delta_upsilon_prime, pivot_points, upsilon
from .upsilon2 import upsilon2, upsilon2_scalar

MIRROR_NOTE = (
    "the one-sided minimizing cycle sets intersect, so the secondary invariant "
    "is +inf under the strict minimum-over-disjoint-pairs convention; treatments "
    "that assign such mirrors the value 0 would report 0 here"
)


def pl_to_json(f: PLFunction) -> dict:
    if not f.is_finite:
        return {"breakpoints": [], "infinite": "+inf" if f.infinite_value == POS_INF else "-inf"}
    return {
        "breakpoints": [{"x": format_rational(x), "y": format_rational(y)} for x, y in f.breakpoints],
        "infinite": "none",
    }


def pl_to_text(f: PLFunction, var: str = "t") -> str:
    if not f.is_finite:
        return "+inf everywhere" if f.infinite_value == POS_INF else "-inf everywhere"
    lines = []
    pts = f.breakpoints
    for (x0, y0), (x1, _), slope in zip(pts, pts[1:], f.slopes):
        intercept = y0 - slope * x0
        if slope == 0:
            formula = f"{y0}"
        elif intercept == 0:
            formula = f"{slope}*{var}"
        else:
            formula = f"{slope}*{var} {'+' if intercept > 0 else '-'} {abs(intercept)}"
        lines.append(f"  on [{x0}, {x1}]: {formula}")
    return "\n".join(lines)


# Most characters of a refusal main prints or of a usage error the parser prints.
MAX_MESSAGE_CHARS = 200


def _bounded(message) -> str:
    """str(message), or past MAX_MESSAGE_CHARS its head, its tail and how many characters it left out."""
    text, half = str(message), MAX_MESSAGE_CHARS // 2
    cut = len(text) - 2 * half
    return text if cut <= 0 else f"{text[:half]} ... ({cut} characters left out) ... {text[-half:]}"


# Most samples --samples accepts: each is one exact evaluation and one CSV row, so the
# limit keeps a run to seconds and the file to a few MB.
MAX_SAMPLES = 100_000


def write_csv(f: PLFunction, path: str, samples: int) -> None:
    if samples < 2:
        raise DomainError("need at least 2 samples")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for k in range(samples):
            x = Fraction(2 * k, samples - 1)
            y = f.evaluate(x)
            fh.write(f"{float(x)},{float(y)}\n")


def _rational_arg(text: str) -> Fraction:
    """--t: the forms as_rational reads, an integer or p/q."""
    try:
        return as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _samples_arg(text: str) -> int:
    """--samples: an integer from 2 to MAX_SAMPLES."""
    try:
        samples = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 2 <= samples <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"{samples} is not from 2 to {MAX_SAMPLES}")
    return samples


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, an argument's type error among
    them, are cut by _bounded; its subparsers are of this class too."""

    def error(self, message):
        super().error(_bounded(message))


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="upsilonkit",
        description="Exact Upsilon and secondary Upsilon invariants of formal knot Floer complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_t=False, t_list=False, pl_output=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("expr", help="complex expression, e.g. 'T(3,4)' or 'stair[2,2] # -stair[1,1,1,1]'")
        if needs_t:
            p.add_argument("--t", type=_rational_arg, required=True, metavar="P/Q")
        if t_list:
            p.add_argument("--t", type=_rational_arg, action="append", default=[], metavar="P/Q")
        p.add_argument("--json", action="store_true", help="exact machine-readable output")
        p.add_argument("--quiet", action="store_true", help="suppress informational notes")
        if pl_output:
            p.add_argument("--csv", metavar="PATH", help="write decimal samples for plotting")
            p.add_argument("--samples", type=_samples_arg, default=101,
                           help=f"number of CSV samples, 2 to {MAX_SAMPLES}")
        return p

    add("validate", "check the K-complex axioms")
    add("upsilon", "the Upsilon invariant as an exact PL function of t", pl_output=True)
    add("upsilon2", "the secondary invariant at a given t, as a function of s", needs_t=True, pl_output=True)
    add("pivots", "support-line points and one-sided pivots at t", needs_t=True)
    add("v2", "the scalar secondary invariant (t = 1 evaluated at s = 1)")
    add("bounds", "concordance-genus lower bounds", t_list=True)
    add("show", "print the complex in the text format")
    cat_p = sub.add_parser("catalog", help="list the built-in complex names")
    cat_p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # exit cannot fail again (the recipe in the signal module's docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ExprParseError, ComplexParseError) as exc:
        print(f"parse error: {_bounded(exc)}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError quotes it; an OSError's args[0] is only the errno.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {_bounded(message)}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        print(_reproducer(args), file=sys.stderr, end="")
        return 3


def _reproducer(args) -> str:
    """The failing command line and the complex it built, in the text format."""
    import shlex  # deferred: only this error path needs it

    ts = getattr(args, "t", [])  # one value, a list (bounds) or none
    ts = ts if isinstance(ts, list) else [ts]
    argv = [args.command] + [arg for t in ts for arg in ("--t", str(t))] + ["--", args.expr]
    text = serialize_complex(parse_and_build(args.expr))
    return f"reproducer: upsilonkit {shlex.join(argv)}\ncomplex:\n{text}"


def _emit(args, data, lines, notes=()) -> None:
    """Print data as JSON under --json; otherwise the text lines, then the
    note lines unless --quiet, and nothing when no line is left."""
    if args.json:
        print(json.dumps(data))
        return
    lines = list(lines) + ([] if args.quiet else list(notes))
    if lines:
        print("\n".join(lines))


def _dispatch(args) -> int:
    if args.command == "catalog":
        print(json.dumps({"names": CATALOG_NAMES}) if args.json else "\n".join(CATALOG_NAMES))
        return 0

    C = parse_and_build(args.expr)

    if args.command == "validate":
        report = C.validate()
        checks = [c._asdict() for c in report.checks]
        _emit(args, {"ok": report.ok, "checks": checks}, [str(report)])
        return 0 if report.ok else 1

    if args.command == "show":
        print(serialize_complex(C), end="")
        return 0

    if args.command == "upsilon":
        f = upsilon(C)
        if args.csv:
            write_csv(f, args.csv, args.samples)
        lines = [] if args.quiet and args.csv else ["Upsilon(t):", pl_to_text(f, "t")]
        _emit(args, {"upsilon": pl_to_json(f)}, lines)
        return 0

    if args.command == "upsilon2":
        res = upsilon2(C, args.t)
        notes = []
        if not res.upsilon2.is_finite:
            notes.append(MIRROR_NOTE)
        if res.smooth_point:
            notes.append("smooth point: Upsilon has equal one-sided pivots at this t")
        if args.csv:
            write_csv(res.upsilon2, args.csv, args.samples)
        data = {
            "t": format_rational(res.t),
            "gamma_t": format_rational(res.gamma_t),
            "upsilon2": pl_to_json(res.upsilon2),
            "gamma2": pl_to_json(res.gamma2),
            "disjoint": res.zsets.disjoint,
            "notes": notes,
            "witnesses": [
                {"from": format_rational(a), "to": format_rational(b), "chain": list(names)}
                for a, b, names in res.witnesses
            ],
        }
        lines = [f"Upsilon2 at t = {res.t} (as a function of s):", pl_to_text(res.upsilon2, "s")]
        _emit(args, data, lines, [f"note: {note}" for note in notes])
        return 0

    if args.command == "pivots":
        pd = pivot_points(C, args.t)
        jump = delta_upsilon_prime(C, args.t)
        data = {
            "t": format_rational(pd.t),
            "gamma_t": format_rational(pd.gamma_t),
            "on_line": sorted(list(p) for p in pd.on_line),
            "p_minus": list(pd.p_minus),
            "p_plus": list(pd.p_plus),
            "derivative_jump": format_rational(jump),
        }
        _emit(args, data, [
            f"t = {pd.t}: gamma = {pd.gamma_t}, support-line points {sorted(pd.on_line)}",
            f"p- = {pd.p_minus}, p+ = {pd.p_plus}",
            f"derivative jump of Upsilon: {jump}",
        ])
        return 0

    if args.command == "v2":
        value = upsilon2_scalar(C)
        notes = [MIRROR_NOTE] if value == POS_INF else []
        _emit(args, {"v2": format_rational(value), "notes": notes},
              ["+inf" if value == POS_INF else str(value)], [f"note: {note}" for note in notes])
        return 0

    if args.command == "bounds":
        report = genus_report(C, args.t)
        width = diagonal_width(C)
        reports, lines = [], []
        for r in report.reports:
            bps = [{"location": format_rational(x), "bound": b} for x, b in r.breakpoint_bounds]
            reports.append({"source": r.source, "slope_bound": r.slope_bound,
                            "breakpoint_bounds": bps, "combined": r.combined})
            text = ", ".join(f"{x} -> {b}" for x, b in r.breakpoint_bounds) or "none"
            lines.append(f"{r.source}: slope bound {r.slope_bound}, breakpoint bounds {text}")
        lines += [f"upsilon2[t={t}]: infinite, skipped" for t in report.skipped]
        lines.append(f"combined concordance-genus lower bound: {report.combined}")
        _emit(args, {"combined": report.combined, "diagonal_width": width,
                     "skipped_infinite": list(report.skipped), "reports": reports},
              lines, [f"diagonal width of the model: {width}"])
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
