"""The desk-scale benchmark must keep running against the library."""

import importlib
import subprocess
import sys
from pathlib import Path

from dictolearn import desk

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run():
    # Runs every workload for one tiny op, traced and untraced, in fresh
    # processes, and checks that every declared metric is reported.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_benchmark_desk_copy_matches_desk(monkeypatch):
    # perfbench keeps its own copy of the desk scale until it imports
    # dictolearn.desk; this pins the copy to it. run.py puts perfbench/ on
    # the path and imports workloads as a top-level module.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    pairs = {"N": desk.N, "SPACING": desk.SPACING, "ATTENUATION_SCALE": desk.ATTENUATION_SCALE,
             "PHOTONS": desk.PHOTONS, "GEOM": desk.GEOM, "CONV_CFG": desk.CONV,
             "PATCH_CFG": desk.PATCH, "HUBER_CFG": desk.HUBER}
    differ = [name for name, value in pairs.items() if getattr(workloads, name) != value]
    assert not differ, f"perfbench/workloads.py differs from dictolearn.desk in {differ}"
