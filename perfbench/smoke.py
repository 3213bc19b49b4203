"""Smoke test of the benchmark: one short run of every workload, untraced
and traced, printing every metric by name with its unit and asserting
that each metric BENCHMARK.json names is present with that unit and
that no op failed.

    python3 perfbench/smoke.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(spec, workload, args.seed, trace)
            metrics = result["metrics"]
            ratio = result["failed"] / result["attempted"]
            print(f"{workload} trace {trace}: fail_ratio {ratio} over {result['attempted']} ops")
            for name, m in metrics.items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got} != declared {want}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed ops")
    for p in problems:
        print("PROBLEM", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
