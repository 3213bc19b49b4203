"""One benchmark set-up, timed from the parent process: start the
interpreter, import upsilonkit and generate the workload's inputs
(writing any @file inputs into DIR).

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED DIR
"""

import sys
from pathlib import Path

import upsilonkit  # noqa: F401  (the import is part of what is timed)

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:4]
    WORKLOADS[name]().make_inputs(int(seed), Path(workdir))
