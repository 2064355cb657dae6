"""Properties: no scenario makes a command escape its exit codes.

One key of a valid scenario is set to a value from a fixed pool of JSON
values of every type and of extreme sizes.  The key is drawn from every
path load_scenario reads, optional keys the file leaves out included.
Whatever the value, `main` returns 0, 1 or 2 and never raises, and exit 2
names a configuration error.

Random general seed pairs, whose Q, R and T are expression trees, hold
every command to the same contract, and exit 2 prints no verdict.  pytest
turns a RuntimeWarning into a failure (see pyproject.toml).
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _families import expr_trees
from heavenly.cliapp import DEFAULT_TOLERANCES, main
from heavenly.exprdsl import to_source
from test_cliapp import BASE as SHOCK, scenario_path

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


def run_command(raw, command="verify", points=20):
    """(exit code, stdout, stderr) of a command on raw at points points."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--points", str(points),
                         "--report", str(Path(tmp) / "case.report.json"),
                         "--out", str(Path(tmp) / "case.csv")])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(POOL))
@example(case=(SHOCK, ("branch", "selection")), value=10 ** 30)
@example(case=(SHOCK, ("branch", "selection")), value=-10 ** 30)
@example(case=(SHOCK, ("sampling", "box", "x")), value=[-1e308, 1e308])
@example(case=(SHOCK, ("branch",)), value={"p_lo": -1e308, "p_hi": 1e308})
def test_malformed_value_exits_cleanly(case, value):
    base, path = case
    code, _out, err = run_command(with_value(base, path, value))
    assert code in (0, 1, 2), (path, value, code)
    if code == 2:
        assert err.startswith("configuration error:"), (path, value, err)


UNBALANCED = json.loads(Path(scenario_path("general_unbalanced")).read_text())
GENERAL_SEED = st.fixed_dictionaries({
    name: expr_trees(("p", axis), 3).map(to_source)
    for name, axis in (("Q", "y"), ("R", "z"), ("T", "t"))})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seeds=st.lists(GENERAL_SEED, min_size=2, max_size=2))
def test_random_general_seeds_exit_cleanly(seeds):
    # general_unbalanced's box and shared profile, with seeds it should
    # satisfy
    raw = dict(UNBALANCED, seeds=seeds, expect="satisfy")
    for command in ("verify", "balance", "fdcheck", "sample"):
        code, out, err = run_command(raw, command, points=60)
        assert code in (0, 1, 2), (command, seeds, code)
        if code == 2:
            assert err.startswith("configuration error:"), (command, err)
            assert "verdict:" not in out, (command, out)
