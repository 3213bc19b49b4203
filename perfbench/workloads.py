"""The benchmark's workloads by name."""

from cli_workload import CliMixed
from library_workloads import BoundsTensor, UpsilonStaircase

WORKLOADS = {w.name: w for w in (UpsilonStaircase, BoundsTensor, CliMixed)}
