"""The traced benchmark run keeps working on this tree.

ghebench/tracing.py wraps the layer functions of every module at the sites
that call them and fails its run when a required probe never fires.  This
test installs those wrappers unchanged, runs each workload's commands
in-process on 20-point clouds, and checks exit codes and probe coverage.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "ghebench"))

import heavenly.cliapp as cliapp  # noqa: E402  (install() reads sys.modules)
from tracing import REQUIRED_PROBES, Patches, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_probes_fire(workload, tmp_path):
    tracer = Tracer()
    patches = Patches()
    install(tracer, patches)
    codes = {}
    try:
        for inv in WORKLOADS[workload]:
            argv = inv.argv(ROOT, 1, tmp_path) + ["--points", "20"]
            with contextlib.redirect_stdout(io.StringIO()):
                codes[inv.key] = cliapp.main(argv)
    finally:
        patches.restore()
    tracer.collect()
    assert codes == dict.fromkeys(codes, 0)
    missing = [p for p in REQUIRED_PROBES[workload] if not tracer.fired(p)]
    assert missing == []
