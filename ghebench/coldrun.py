"""Untraced end-to-end run: one cold `ghe` child at a time.

Each child is a fresh interpreter running `python -m heavenly.cliapp`, timed
from spawn to exit and reaped with os.wait4 for its peak RSS.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from measure import median, point_seeds
from workloads import (Invocation, RepeatGate, check_outcome,
                       invocation_size, scenario_info)

CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 3       # at least; one is taken before each pass
MIN_PASSES = 2          # the repeat gate needs a second pass
LOOP_ITERATIONS = 40000
# Median of loop_seconds() while a child runs, on the machine the baseline
# was measured on (2-vCPU x86-64 VM, Python 3.11.7): scaled times are in
# that machine's seconds.
REF_LOOP_S = 0.0082
GAUGE_PERIOD_S = 0.2

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_SETUP_SNIPPET = """\
import sys
import heavenly.cliapp as cli
sc = cli.load_scenario(sys.argv[1])
family = sc.build_family()
count = None if sys.argv[2] == "-" else int(sys.argv[2])
points = sc.points(count=count, seed=int(sys.argv[3]))
print(family.size, len(points))
"""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv, env, workdir: Path, tag: str) -> ChildResult:
    """Spawn, wait and reap one child; the time runs from spawn to exit."""
    out_path = workdir / f"{tag}.stdout"
    err_path = workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=workdir, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(exit_code=proc.returncode, wall_s=wall,
                       maxrss_mb=usage.ru_maxrss / 1024.0,
                       stdout=out_path.read_text(errors="replace"),
                       stderr=err_path.read_text(errors="replace"))


class SetupProbe:
    """Times a fresh interpreter up to a built family and point cloud.

    The samples are spread over the run, one before each pass, so that the
    median does not rest on a single moment of the machine's load.
    """

    def __init__(self, root: Path, inv: Invocation, seed: int, env,
                 workdir: Path, gauge: SpeedGauge):
        info = scenario_info(root, inv.scenario)
        self.expected = [str(n) for n in reversed(invocation_size(inv, info))]
        self.argv = [sys.executable, "-c", _SETUP_SNIPPET,
                     str(root / "scenarios" / f"{inv.scenario}.json"),
                     "-" if inv.points is None else str(inv.points),
                     str(seed)]
        self.env = env
        self.workdir = workdir
        self.gauge = gauge
        self.walls, self.rss, self.problems = [], [], []

    def sample(self) -> None:
        i = len(self.walls)
        res, scale = self.gauge.run(lambda: run_child(
            self.argv, self.env, self.workdir, f"setup{i}"))
        self.walls.append(res.wall_s * scale)
        self.rss.append(res.maxrss_mb)
        if res.exit_code != 0 or res.stdout.split() != self.expected:
            self.problems.append(
                f"setup child {i}: exit {res.exit_code}, stdout "
                f"{res.stdout.strip()!r}, "
                f"stderr {res.stderr.strip()[-300:]!r}")


def loop_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(LOOP_ITERATIONS):
            acc += (i * 7 % 13) * 0.5
            table[i & 255] = acc
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedGauge:
    """Scales child wall times to the reference speed of the machine.

    On a shared host the CPU speed drifts by tens of percent over minutes,
    and a child's CPU time moves with it, so raw wall times of identical
    runs spread too widely to compare commits.  A fixed loop is timed in
    this process just before a child, every GAUGE_PERIOD_S while it runs
    (on a thread, about a tenth of one CPU; the same on every commit), and
    just after it.  The child's wall time is multiplied by REF_LOOP_S over
    the mean of those timings.
    """

    def __init__(self):
        self.loops = [loop_seconds()]

    def run(self, child):
        """(child(), scale factor) for a callable that runs one child."""
        samples = [self.loops[-1]]
        stop = threading.Event()

        def sample_while_running():
            while not stop.wait(GAUGE_PERIOD_S):
                samples.append(loop_seconds())

        sampler = threading.Thread(target=sample_while_running, daemon=True)
        sampler.start()
        try:
            result = child()
        finally:
            stop.set()
            sampler.join()
        samples.append(loop_seconds())
        self.loops.extend(samples[1:])
        return result, REF_LOOP_S * len(samples) / sum(samples)


def run_cold(root: Path, invocations, seed: int, seconds: float,
             workdir: Path, log):
    """Whole passes until `seconds` would be overrun, with set-up samples.

    On fdcheck the work counted is certified samples, elsewhere point-seeds.
    """
    env = child_env(root)
    infos = {inv.scenario: scenario_info(root, inv.scenario)
             for inv in invocations}
    gauge = SpeedGauge()
    setup = SetupProbe(root, invocations[0], seed, env, workdir, gauge)
    gate = RepeatGate()
    pass_walls, inv_walls, raw_pass_walls = [], [], []
    walls_by_key = {}
    attempted = failed = 0
    work_units = 0
    peak_rss = 0.0
    start = time.perf_counter()
    while len(pass_walls) < MIN_PASSES or (
            time.perf_counter() - start + median(raw_pass_walls) <= seconds):
        setup.sample()
        pass_wall = raw_pass_wall = 0.0
        for inv in invocations:
            for leftover in workdir.glob(f"{inv.key}.*"):
                leftover.unlink()
            argv = [sys.executable, "-m", "heavenly.cliapp",
                    *inv.argv(root, seed, workdir)]
            res, scale = gauge.run(
                lambda: run_child(argv, env, workdir, inv.key))
            inv_walls.append(res.wall_s * scale)
            walls_by_key.setdefault(inv.key, []).append(inv_walls[-1])
            pass_wall += inv_walls[-1]
            raw_pass_wall += res.wall_s
            peak_rss = max(peak_rss, res.maxrss_mb)
            info = infos[inv.scenario]
            outcome = check_outcome(inv, info, res.exit_code, res.stdout,
                                    workdir)
            gate.check(inv, outcome)
            attempted += 1
            if outcome.problems:
                failed += 1
                log(f"FAILED {inv.key}: {'; '.join(outcome.problems)}; "
                    f"stderr {res.stderr.strip()[-300:]!r}")
            if inv.command == "fdcheck":
                work_units += outcome.certified
            else:
                work_units += point_seeds([invocation_size(inv, info)])
        pass_walls.append(pass_wall)
        raw_pass_walls.append(raw_pass_wall)
    while len(setup.walls) < SETUP_SAMPLES:
        setup.sample()
    for p in setup.problems:
        log(f"FAILED {p}")

    return {
        "setup_s": median(setup.walls),
        "pass_walls": pass_walls,
        "inv_walls": inv_walls,
        # The invocations differ in size: take each one's median over its
        # repeats, then the median invocation.
        "verdict_s": median(median(w) for w in walls_by_key.values()),
        "raw_pass_walls": raw_pass_walls,
        "loops": gauge.loops,
        "point_seeds_per_s": work_units / sum(pass_walls),
        "peak_rss_mb": max(peak_rss, *setup.rss),
        "attempted": attempted + len(setup.walls),
        "failed": failed + len(setup.problems),
    }
