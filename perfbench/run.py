"""The upsilonkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the checkout it sits in (src/ next to
this directory), never an installed copy.

Workloads (BENCHMARK.json says why each is there):
  upsilon-staircase  build -> validate -> upsilon -> delta_upsilon_prime at
                     every interior breakpoint, on torus knots up to T(17,19),
                     mirrors, random staircases and sums S1 # -S2.
  bounds-tensor      build -> validate -> genus_report(C, [2/3, 1]) ->
                     diagonal_width, on tensor powers of hom-K, nK(n), box
                     sums, staircase pairs, their squares, and inputs with
                     an acyclic box as a direct summand.
  cli-mixed          one `python -m upsilonkit.cli` subprocess per op: every
                     subcommand, @file atoms, and exit codes 1 and 2.

Load: one process without worker threads, a closed loop with one client;
the next op starts when the previous one ends, and cli-mixed runs one
subprocess at a time.  Each op builds its complex fresh.  A pass runs
every generated input once, in a seeded order; passes repeat while the
next one would end no more than half a pass after --seconds.

--trace 0 reports the end-to-end metrics.  Their times are wall times
scaled to a reference host speed: a fixed kernel is timed between the ops
and around each set-up, and each time is multiplied by the kernel's
reference time over its time there, to a power that falls from 1 for short
ops to 0 for ops of 10 s (calibrate.py), so that the drift of a shared
host's speed during and between runs cancels.  The raw wall time of each
pass is printed beside its scaled one.
  setup_s      median over child processes, started between the passes, of
               interpreter start, import upsilonkit and input generation
               (with the @file writing)
  wall_s       time to solution of the batch: each input's median op
               latency over the passes, summed
  op_p50_ms    median op latency over all ops of the run
  op_p90_ms    90th-percentile op latency over all ops of the run
  peak_rss_mb  peak resident memory of the process running the ops; on
               cli-mixed, of the largest CLI child
The failure ratio is `failed` / `attempted` in the result line.

--trace 1 runs one untraced reference pass, then traced passes (see
tracer.py), and reports the per-layer metrics of BENCHMARK.json as
medians over the traced passes, plus trace.overhead_s (traced wall time
of the batch minus that of the untraced pass, both at the reference
speed).  The other per-layer times are raw wall times, like the spans.
Every traced output must equal the untraced one.  On the in-process
workloads each traced pass ends with a small fixed coverage probe, and
the cli.* metrics come from one probe call per subcommand, so that no
layer reads zero; on cli-mixed the CLI children run under traced_cli.py
and cli.<command>_ms are the medians of the reference pass.

Correctness is checked after the timed passes: see closedform.py and
the check methods of each workload.  Every op that raises, exits with
the wrong code or gives a wrong output counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Input manifests (with sizes)
and traces go to .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import kernel_time, scaled, speed_factor

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 7
INTERPRETER_RUNS = 5

CLI_PROBES = {
    "validate": ["validate", "T(3,4)"],
    "upsilon": ["upsilon", "T(3,4)"],
    "upsilon2": ["upsilon2", "--t", "2/3", "T(3,4)"],
    "pivots": ["pivots", "--t", "2/3", "T(3,4)"],
    "v2": ["v2", "box(1)"],
    "bounds": ["bounds", "--t", "1", "hom-K"],
    "show": ["show", "T(3,4)"],
    "catalog": ["catalog"],
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB"}


def timed_child(argv) -> float:
    """Wall time of one child process, which must exit with 0."""
    from cli_workload import run_child

    start = perf_counter()
    code, _ = run_child(argv, ROOT)
    elapsed = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def setup_time(workload: str, seed: int) -> float:
    """Wall time of one set-up in a child process (setup_probe.py), at the
    reference speed of the kernel timed around it."""
    probe = Path(__file__).resolve().with_name("setup_probe.py")
    workdir = OUT_DIR / f"setup-{os.getpid()}"
    around = [kernel_time() for _ in range(3)]
    try:
        elapsed = timed_child([sys.executable, str(probe), workload, str(seed), str(workdir)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    around += [kernel_time() for _ in range(3)]
    return elapsed * speed_factor(around)


class Pass:
    def __init__(self):
        self.raw: list[float] = []  # wall time per op
        self.kernel: list[float] = [kernel_time()]  # before the first op and after each
        self.outputs: list = []  # (output, error message or None) per input

    @property
    def latencies(self) -> list[float]:
        """Op times at the reference speed (see calibrate.py)."""
        return scaled(self.raw, self.kernel)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(workload, inputs, tracer=None, sizes=None) -> Pass:
    result = Pass()
    for k, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = k
        start = perf_counter()
        try:
            out, C = workload.run_op(inp)
            err = None
        except Exception as exc:  # an op that raises is a failed op; keep going
            out, C, err = None, None, f"{type(exc).__name__}: {exc}"
        result.raw.append(perf_counter() - start)
        result.kernel.append(kernel_time())
        result.outputs.append((out, err))
        if sizes is not None and err is None:
            sizes[k] = workload.sizes(inp, C)
        del C
    return result


def run_passes(workload, inputs, seconds, start, passes, tracer=None, after_pass=None):
    """Append passes while one would end less than half a pass after
    `seconds` from `start`; at least one pass in all."""
    while not passes or perf_counter() - start + sum(passes[-1].raw) / 2 < seconds:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(workload, inputs, tracer))
        if after_pass is not None:
            after_pass(passes[-1])


def verdicts(workload, inputs, reference: Pass) -> list:
    """Per input: None if the reference output is correct, else why not."""
    out = []
    for inp, (output, err) in zip(inputs, reference.outputs):
        if err is None:
            try:
                err = workload.check(inp, output)
            except Exception as exc:  # a malformed output is a failed op
                err = f"check raised {type(exc).__name__}: {exc}"
        out.append(err)
    return out


def count_failures(inputs, reference: Pass, verdict, passes, failures) -> tuple[int, int]:
    """(attempted, failed) over the given passes; an op fails if its input's
    reference output is wrong, it raised, or its output differs from the
    reference output."""
    attempted = failed = 0
    for p in passes:
        for k, (output, err) in enumerate(p.outputs):
            attempted += 1
            why = err or verdict[k]
            if why is None and output != reference.outputs[k][0]:
                why = "output differs from the reference pass"
            if why is not None:
                failed += 1
                failures.append(f"op {k} {inputs[k].expr or inputs[k].extra.get('argv')}: {why}")
    return attempted, failed


def batch_wall(passes) -> float:
    """Time to solution of the batch: each input's median latency over the
    passes, summed, which a slow spell during one pass does not move."""
    return sum(statistics.median(lat) for lat in zip(*(p.latencies for p in passes)))


def percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def write_manifest(workload, inputs, sizes, seed) -> list[str]:
    rows = []
    for k, inp in enumerate(inputs):
        row = {"expr": inp.expr, "kind": inp.kind, **sizes.get(k, {})}
        if "argv" in inp.extra:
            row["argv"] = inp.extra["argv"]
        rows.append(row)
    path = OUT_DIR / f"inputs-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
    cands = [r.get("candidates", 0) for r in rows]
    gens = [r.get("generators", 0) for r in rows]
    return [
        f"inputs: {len(rows)} (manifest {path.relative_to(ROOT)})",
        f"  generators: total {sum(gens)}, largest {max(gens)}; Upsilon candidates: total "
        f"{sum(cands)}, inputs with >= 100: {sum(c >= 100 for c in cands)}/{len(rows)}",
    ]


def plain_run(workload, inputs, args, lines, failures):
    # Set-up is timed between passes too, so that its samples spread over
    # the run like the ops do.
    setups = [setup_time(workload.name, args.seed) for _ in range(SETUP_RUNS // 2)]
    sizes: dict = {}
    start = perf_counter()
    reference = run_pass(workload, inputs, sizes=sizes)
    passes = [reference]
    run_passes(workload, inputs, args.seconds, start, passes,
               after_pass=lambda _: setups.append(setup_time(workload.name, args.seed)))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_time(workload.name, args.seed))
    verdict = verdicts(workload, inputs, reference)
    attempted, failed = count_failures(inputs, reference, verdict, passes, failures)
    lines += write_manifest(workload, inputs, sizes, args.seed)
    latencies = [x for p in passes for x in p.latencies]
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = workload.max_child_rss_kb
    p90 = percentile(latencies, 90)
    lines.append(f"passes: {len(passes)}, ops: {len(latencies)}, beyond p90: "
                 f"{sum(x > p90 for x in latencies)}, fail_ratio: {failed / attempted:.4g}")
    lines.append("wall time of each pass (s): " + ", ".join(f"{sum(p.raw):.4f}" for p in passes)
                 + "; at the reference speed: " + ", ".join(f"{p.wall:.4f}" for p in passes))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": batch_wall(passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * p90,
        "peak_rss_mb": rss_kb / 1024,
    }
    return attempted, failed, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def coverage_probe(uk, tracer) -> None:
    """A few small calls that reach every in-process layer once."""
    from library_workloads import T_BOUNDS
    tracer.op = "probe"
    C = uk.parse_and_build("T(3,4)")
    uk.parse_complex(uk.serialize_complex(C))
    uk.genus_report(uk.parse_and_build("hom-K"), T_BOUNDS)


def cli_metrics(workload, inputs, reference: Pass) -> dict:
    interp = statistics.median(timed_child([sys.executable, "-c", "pass"])
                               for _ in range(INTERPRETER_RUNS))
    imp = statistics.median(timed_child([sys.executable, "-c", "import upsilonkit"])
                            for _ in range(INTERPRETER_RUNS))
    out = {"cli.interpreter_ms": 1000 * interp, "cli.import_ms": 1000 * (imp - interp)}
    if workload.in_process:
        for cmd, argv in CLI_PROBES.items():
            out[f"cli.{cmd}_ms"] = 1000 * timed_child([sys.executable, "-m", "upsilonkit.cli", *argv])
        return out
    for cmd in CLI_PROBES:
        lat = [x for inp, x in zip(inputs, reference.raw)
               if inp.extra["argv"][0] == cmd and inp.extra["code"] == 0]
        out[f"cli.{cmd}_ms"] = 1000 * statistics.median(lat)
    return out


def traced_run(workload, inputs, args, lines, failures):
    import upsilonkit as uk
    from tracer import Tracer, layer_metrics, op_breakdown

    start = perf_counter()
    sizes: dict = {}
    reference = run_pass(workload, inputs, sizes=sizes)
    tracer = Tracer()
    per_pass: list[dict] = []

    def after_pass(_: Pass) -> None:
        if workload.in_process:
            coverage_probe(uk, tracer)
        per_pass.append(layer_metrics(tracer.spans, tracer.counts))

    passes: list[Pass] = []
    tracer.install()
    workload.tracer = tracer
    try:
        run_passes(workload, inputs, args.seconds, start, passes, tracer, after_pass)
    finally:
        tracer.uninstall()
        workload.tracer = None
    verdict = verdicts(workload, inputs, reference)
    attempted, failed = count_failures(inputs, reference, verdict, [reference] + passes, failures)
    lines += write_manifest(workload, inputs, sizes, args.seed)

    layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    for key, size in (("complexes.generators", "generators"), ("complexes.slice0_size", "slice0"),
                      ("complexes.slice1_size", "slice1")):
        layers[key] = sum(s.get(size, 0) for s in sizes.values())
    traced_wall = batch_wall(passes)
    layers["trace.overhead_s"] = traced_wall - reference.wall
    layers.update(cli_metrics(workload, inputs, reference))
    lines.append(f"traced passes: {len(passes)}; untraced wall {reference.wall:.4f} s, traced "
                 f"{traced_wall:.4f} s; outputs identical to the untraced pass: "
                 f"{all(p.outputs == reference.outputs for p in passes)}")

    ladder = {}
    last = tracer.spans
    for k, inp in enumerate(inputs):
        if workload.in_process and inp.label and inp.label not in ladder:
            ladder[inp.label] = {"op_s": passes[-1].raw[k], **op_breakdown(last, k)}
    for label, parts in ladder.items():
        top = ", ".join(f"{n} {v:.4f}" for n, v in list(parts.items())[:7])
        lines.append(f"ladder {label}: self time (s) {top}")
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"per_layer": layers, "ladder": ladder, "spans": last}))
    lines.append(f"spans of the last traced pass: {trace_path.relative_to(ROOT)}")
    return attempted, failed, {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "upsilonkit" / "__init__.py").is_file():
        print(f"no upsilonkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import upsilonkit

    if Path(upsilonkit.__file__).resolve().parent != SRC / "upsilonkit":
        print(f"imported upsilonkit from {upsilonkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workdir = OUT_DIR / f"{workload.name}-{os.getpid()}"
    lines = [f"workload {workload.name}, seed {args.seed}, trace {args.trace}"]
    failures: list[str] = []
    try:
        inputs = workload.make_inputs(args.seed, workdir)
        run = traced_run if args.trace else plain_run
        attempted, failed, metrics = run(workload, inputs, args, lines, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines += [f"FAILED {f}" for f in failures[:20]]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
