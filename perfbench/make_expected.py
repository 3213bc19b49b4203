"""Regenerate expected.json, the stored Upsilon2 reports of every
bounds-tensor input the generator can draw.

    python3 perfbench/make_expected.py

Run it only when the engine's exact output is meant to change; the
benchmark's correctness gate compares against this file.  The Upsilon
part of each report is not stored: the gate derives it from the closed
form in closedform.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import upsilonkit as uk  # noqa: E402

import closedform as cf  # noqa: E402
from library_workloads import (  # noqa: E402
    BOX_SUMS, EXPECTED_PATH, NK_NAMES, PAIRS, POWER_PAIRS, T_BOUNDS, encode_reports,
    nk_upsilon2, pair_expr, report_tuple,
)


def keys():
    yield from ["3*hom-K", "2*hom-K", *NK_NAMES]
    for ns in BOX_SUMS:
        yield " # ".join(f"box({n})" for n in ns)
    for s1, s2 in PAIRS:
        yield pair_expr(s1, s2)
    for s1, s2 in POWER_PAIRS:
        yield f"2*({pair_expr(s1, s2)})"


def main() -> None:
    table = {}
    for key in keys():
        reports, skipped, _ = report_tuple(uk.genus_report(uk.parse_and_build(key), T_BOUNDS))
        if key in NK_NAMES:
            published = ("upsilon2[t=1]",) + cf.gc_bound(nk_upsilon2(NK_NAMES[key]))
            if published not in reports:
                raise SystemExit(f"{key}: engine report disagrees with the published Upsilon2")
        table[key] = encode_reports(reports[1:], skipped)
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
    EXPECTED_PATH.write_text('{"bounds-tensor": {\n' + lines + "\n}}\n")
    print(f"wrote {len(table)} entries to {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
