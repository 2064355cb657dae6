"""Peak memory of a command is set by the solved slice, not by the cloud.

tracemalloc sees numpy's array buffers as well as Python objects.  The
bounds hold about twice the peak of the sliced code; solving the whole
cloud at once peaked at 43 MB for verify_theorem and 84 MB for cmd_sample.
"""

import contextlib
import io
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from heavenly.cliapp import cmd_sample, load_scenario
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


def test_sample_peak(tmp_path):
    sc = load_scenario(ROOT / "scenarios" / "shock_n3.json")
    args = SimpleNamespace(out=str(tmp_path / "shock_n3.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _peak(lambda: cmd_sample(
            sc, sc.build_family(), sc.points(count=12_000, seed=0),
            sc.tolerances, args))
    assert peak < 30 * MB
