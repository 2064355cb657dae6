"""Workload definitions and the per-invocation correctness gate.

A workload is an ordered list of `ghe` invocations; one pass runs the list
once.  Every invocation gets the benchmark's `--seed`, so repeats inside a
run must produce byte-identical reports and CSV files.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

SHIPPED = ("shock_n2", "shock_n3", "general_balanced", "general_unbalanced",
           "trivial_overlap")


@dataclass(frozen=True)
class Invocation:
    command: str            # verify | balance | sample | fdcheck
    scenario: str           # file stem under scenarios/
    points: int | None      # None: the scenario's shipped sampling count

    @property
    def key(self) -> str:
        size = "shipped" if self.points is None else str(self.points)
        return f"{self.command}-{self.scenario}-{size}"

    def argv(self, root: Path, seed: int, workdir: Path) -> list:
        args = [self.command,
                str(root / "scenarios" / f"{self.scenario}.json"),
                "--seed", str(seed),
                "--report", str(workdir / f"{self.key}.report.json")]
        if self.points is not None:
            args += ["--points", str(self.points)]
        if self.command == "sample":
            args += ["--out", str(workdir / f"{self.key}.csv")]
        return args


WORKLOADS = {
    # Per-point engine dominates: scan, Newton, derivatives, residuals and
    # superposition are > 90% of the time, import < 10%.
    "cloud_large": [Invocation("verify", "shock_n3", 20000),
                    Invocation("verify", "general_balanced", 20000)],
    # Cold start dominates: ~1.0 s of each ~1.4 s invocation is import and
    # set-up.  Covers the violate control, trivial_overlap and the CSV writer.
    "cli_session": [Invocation(cmd, sc, None) for sc in SHIPPED
                    for cmd in ("verify", "balance", "sample")],
    # The FD oracle and its on-sheet Newton continuation dominate; the scan
    # is ~15%, so a scan-only change should leave this workload unchanged.
    "fd_audit": [Invocation("fdcheck", "shock_n3", 2000),
                 Invocation("fdcheck", "general_balanced", 2000)],
}


@dataclass(frozen=True)
class ScenarioInfo:
    name: str
    seeds: int
    count: int
    expect: str


def scenario_info(root: Path, stem: str) -> ScenarioInfo:
    raw = json.loads((root / "scenarios" / f"{stem}.json").read_text())
    return ScenarioInfo(name=raw.get("name", stem), seeds=len(raw["seeds"]),
                        count=int(raw["sampling"]["count"]),
                        expect=raw.get("expect", "satisfy"))


def invocation_size(inv: Invocation, info: ScenarioInfo) -> tuple[int, int]:
    """(points, seeds) that the invocation solves."""
    points = info.count if inv.points is None else inv.points
    return points, info.seeds


@dataclass
class Outcome:
    """What one finished invocation produced, and what was wrong with it."""

    problems: list
    digest: str = ""
    certified: int = 0


def _verdict(stdout: str):
    m = re.search(r"^verdict: (PASS|FAIL.*)$", stdout, re.M)
    return m.group(1) if m else None


def check_outcome(inv: Invocation, info: ScenarioInfo, exit_code,
                  stdout: str, workdir: Path) -> Outcome:
    """Gate one invocation on exit code, verdict, report fields and CSV.

    Every shipped scenario is built to meet its `expect`: a satisfy
    scenario passes its checks and a violate control observes its
    violation, so the right outcome is always exit 0 with passed=true.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    report_path = workdir / f"{inv.key}.report.json"
    try:
        report_bytes = report_path.read_bytes()
        report = json.loads(report_bytes)
    except (OSError, ValueError) as exc:
        return Outcome(problems + [f"no readable report: {exc}"])
    blobs = [report_bytes]
    points, _seeds = invocation_size(inv, info)

    if report.get("passed") is not True:
        problems.append(f"passed={report.get('passed')!r} "
                        f"failures={report.get('failures')!r}")
    if report.get("command") != inv.command:
        problems.append(f"report command {report.get('command')!r}")
    if report.get("scenario") != info.name:
        problems.append(f"report scenario {report.get('scenario')!r}")
    if "expect" in report and report["expect"] != info.expect:
        problems.append(f"report expect {report['expect']!r}")

    certified = 0
    if inv.command == "sample":
        csv_path = workdir / f"{inv.key}.csv"
        try:
            csv_bytes = csv_path.read_bytes()
        except OSError as exc:
            return Outcome(problems + [f"no CSV: {exc}"])
        blobs.append(csv_bytes)
        if csv_bytes.count(b"\n") != points + 1:
            problems.append("CSV row count differs from the point count")
        if report.get("points") != points:
            problems.append(f"sample points {report.get('points')!r}")
    else:
        verdict = _verdict(stdout)
        if verdict != "PASS":
            problems.append(f"verdict {verdict!r}")
        if inv.command == "verify" \
                and report.get("report", {}).get("n_points") != points:
            problems.append("verify point count differs")
        if inv.command == "fdcheck":
            certified = int(report.get("result", {}).get("certified", 0))
            if certified <= 0:
                problems.append("no certified samples")
    digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
    return Outcome(problems, digest, certified)


class RepeatGate:
    """Fails an invocation whose output bytes differ from an earlier repeat."""

    def __init__(self):
        self._first = {}

    def check(self, inv: Invocation, outcome: Outcome) -> None:
        if not outcome.digest:
            return
        ref = self._first.setdefault(inv.key, outcome.digest)
        if ref != outcome.digest:
            outcome.problems.append("output bytes differ from an earlier "
                                    "repeat")
