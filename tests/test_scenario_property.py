"""Property: no scenario value makes `ghe verify` escape its exit codes.

One key of a valid scenario is set to a value from a fixed pool of JSON
values of every type and of extreme sizes.  The key is drawn from every
path load_scenario reads, optional keys the file leaves out included.
Whatever the value, `main` returns 0, 1 or 2 and never raises, and exit 2
names a configuration error.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavenly.cliapp import DEFAULT_TOLERANCES, main
from test_cliapp import BASE as SHOCK

GENERAL = dict(SHOCK, family="general", seeds=[
    {"Q": "p^2*y/2", "R": "p^2*z/2", "T": "p*t"}])

POOL = (None, True, False, 1, -1, 0, 2.5, 10 ** 30, -10 ** 30, 1e308,
        -1e308, "", "p", "lowest", "(", [], [1], [0.5, 1.5],
        [[0.1, 1.0, 1.0, 1.0]], {}, {"x": 1})

_TOP = ("name", "description", "constants", "shared", "family", "seeds",
        "coefficients", "sampling", "branch", "tolerances", "expect")
_COMMON = (
    *((key,) for key in _TOP),
    ("constants", "a"), ("constants", "b"),
    *(("shared", f) for f in ("alpha", "beta", "delta")),
    ("seeds", 0), ("coefficients", 0),
    *(("sampling", k) for k in ("box", "count", "seed", "points")),
    *(("sampling", "box", ax) for ax in "xyzt"),
    *(("sampling", "box", ax, i) for ax in "xyzt" for i in (0, 1)),
    *(("branch", k) for k in ("p_lo", "p_hi", "resolution", "selection")),
    *(("tolerances", k) for k in DEFAULT_TOLERANCES),
)
CASES = ([(SHOCK, path) for path in _COMMON]
         + [(SHOCK, ("seeds", 0, f)) for f in "FGmn"]
         + [(GENERAL, path) for path in _COMMON]
         + [(GENERAL, ("seeds", 0, f)) for f in "QRT"])


def with_value(base, path, value):
    """A deep copy of base with value at path; absent dicts are created."""
    raw = copy.deepcopy(base)
    node = raw
    for key in path[:-1]:
        if isinstance(key, str):
            node = node.setdefault(key, {})
        else:
            node = node[key]
    node[path[-1]] = value
    return raw


def run_verify(raw):
    """(exit code, stderr) of `ghe verify` on raw at 20 points."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["verify", str(path), "--points", "20",
                         "--report", str(Path(tmp) / "case.report.json")])
    return code, err.getvalue()


# huge finite coefficients and constants overflow and warn; the subject
# here is the exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(POOL))
@example(case=(SHOCK, ("branch", "selection")), value=10 ** 30)
@example(case=(SHOCK, ("branch", "selection")), value=-10 ** 30)
@example(case=(SHOCK, ("sampling", "box", "x")), value=[-1e308, 1e308])
@example(case=(SHOCK, ("branch",)), value={"p_lo": -1e308, "p_hi": 1e308})
def test_malformed_value_exits_cleanly(case, value):
    base, path = case
    code, err = run_verify(with_value(base, path, value))
    assert code in (0, 1, 2), (path, value, code)
    if code == 2:
        assert err.startswith("configuration error:"), (path, value, err)
