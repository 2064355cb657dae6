"""Peak memory of a command is the solved slice plus what its report keeps.

tracemalloc sees numpy's array buffers as well as Python objects.  The
in-process bounds hold about twice the peak of the sliced code; solving
the whole cloud at once peaked at 43 MB for verify_theorem and 84 MB for
cmd_sample.

What grows with the cloud is the (N, 4) cloud and one float64 per lane
per check, in one buffer per check: 14 lanes per point for verify on
shock_n3 (18 float64 values, 144 bytes, with the cloud) and 7 for balance
(88 bytes).  Each cold child is reaped with os.wait4 for its own peak
RSS; the growth per point between two cloud sizes leaves out the
interpreter, numpy and one slice.
"""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import heavenly
from heavenly.cliapp import cmd_sample, load_scenario
from heavenly.implicitsolve import enumerate_roots
from heavenly.superpose import verify_theorem

ROOT = Path(__file__).resolve().parent.parent
MB = 1e6


def _peak(fn) -> float:
    """Peak bytes traced while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_theorem_peak():
    sc = load_scenario(ROOT / "scenarios" / "shock_n3.json")
    family = sc.build_family()
    points = sc.points(count=60_000, seed=0)
    peak = _peak(lambda: verify_theorem(family, sc.coefficients, points,
                                        policy=sc.policy))
    assert peak < 20 * MB


def test_enumerate_roots_peak_past_one_slice():
    # the scan descends every row it is given at once; on 20 000 rows,
    # about five CLOUD_CHUNK slices, the peak (5.7 MB) is set by Newton's
    # arrays per bracket, and the scan's own peak is 2.8 MB
    sc = load_scenario(ROOT / "scenarios" / "shock_n3.json")
    rel = sc.build_family().relation(0)
    points = sc.points(count=20_000, seed=0)
    with np.errstate(all="ignore"):
        peak = _peak(lambda: enumerate_roots(rel, points, sc.policy))
    assert peak < 8 * MB


def _sample_peak(tmp_path, count) -> float:
    sc = load_scenario(ROOT / "scenarios" / "shock_n3.json")
    args = SimpleNamespace(out=str(tmp_path / "shock_n3.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        return _peak(lambda: cmd_sample(
            sc, sc.build_family(), sc.points(count=count, seed=0),
            sc.tolerances, args))


def test_sample_formats_rows_in_blocks(tmp_path):
    # a whole 4 096-row slice as Python floats peaked at 14 MB; three whole
    # slices and a one-row fourth still show a peak that grows with them
    assert _sample_peak(tmp_path, 12_289) < 9 * MB


# Linux carries a spawning process's peak RSS into the child it spawns,
# so a lean interpreter, not this one, spawns each command and reaps it
_REAP = ("import os, subprocess, sys\n"
         "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
         "_pid, status, usage = os.wait4(proc.pid, 0)\n"
         "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def _cold_peak_rss(command, points, tmp_path) -> int:
    """Peak RSS in bytes of one cold `ghe` child on shock_n3."""
    src = str(Path(heavenly.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _REAP, sys.executable, "-m", "heavenly.cliapp",
         command, str(ROOT / "scenarios" / "shock_n3.json"),
         "--points", str(points),
         "--report", str(tmp_path / f"{command}.{points}.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True).stdout
    code, maxrss_kib = map(int, out.split())
    assert code == 0
    return maxrss_kib * 1024


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("command, bound", [("verify", 170),
                                            ("balance", 105)])
def test_cold_rss_growth_per_point(command, bound, tmp_path):
    # bytes per point: about 220 for verify and 120-130 for balance when
    # each check was kept as a list of slice arrays and concatenated at
    # the end
    small, large = 20_000, 200_000
    growth = (_cold_peak_rss(command, large, tmp_path)
              - _cold_peak_rss(command, small, tmp_path)) / (large - small)
    assert growth < bound
