"""Run the upsilonkit CLI with the benchmark's spans installed and write
the spans and counters to a JSON file; the exit code is the CLI's.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...
"""

import json
import sys
from pathlib import Path

import upsilonkit.cli

from tracer import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        return upsilonkit.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        out.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


if __name__ == "__main__":
    sys.exit(main())
