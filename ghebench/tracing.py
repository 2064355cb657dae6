"""Traced run: the workload's invocations in-process, with spans and counters
around the public functions of each `heavenly` module.

The wrappers are installed from here, at the sites that call them: callers
bind names with `from ... import`, so patching a function's home module alone
would miss them.  Nothing in `src/` knows about the tracer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from coldrun import THREAD_VARS, child_env, run_child
from measure import extend_cover, import_seconds, median, parse_importtime, \
    point_seeds
from workloads import RepeatGate, check_outcome, invocation_size, \
    scenario_info

IMPORT_REPEATS = 3

RESIDUALS = ("ghe_residual", "compat_residuals", "n_term_balance",
             "pairwise_balance")
DERIVATIVES = ("shock_derivatives", "general_derivatives")
ENUMERATE = "implicitsolve.enumerate_roots"
ON_SHEET = "implicitsolve.solve_on_sheet"

# Probes that must fire on every workload, then the extra ones per workload.
# A probe is a span name or a counter name.
_COMMON_PROBES = (
    "cliapp.main", "cliapp.load_scenario", "cliapp.points",
    "registry.build_family", "exprdsl.compile_expr", "exprdsl.compiled",
    "superpose.solve_point", ENUMERATE, "implicitsolve.phi_vec",
    "implicitsolve.phi@" + ENUMERATE, "implicitsolve.dphi",
    "calculus.shock_derivatives", "calculus.general_derivatives")
_VERIFY_PROBES = ("superpose.verify_theorem", "superpose.superpose",
                  *(f"calculus.{n}" for n in RESIDUALS))
REQUIRED_PROBES = {
    "cloud_large": _COMMON_PROBES + _VERIFY_PROBES,
    "cli_session": _COMMON_PROBES + _VERIFY_PROBES
    + ("calculus.reduced_balance",),
    "fd_audit": _COMMON_PROBES + ("fdoracle.certify_sample", ON_SHEET,
                                  "implicitsolve.phi@" + ON_SHEET),
}


class Tracer:
    """In-memory spans aggregated by name, plus counters.

    Spans nest on one thread, so each open span keeps the cover of its
    closed children (see measure.extend_cover) and its self time is known
    when it closes.  A group (residuals, derivatives) sums the spans not
    nested in another span of the same group.
    """

    def __init__(self):
        self.stack = []     # open spans: (name, cover)
        self.spans = {}     # name -> [calls, total_s, self_s, raised]
        self.groups = {}    # group -> [open depth, total_s]
        self.counts = Counter()
        self._cells = {}    # counter name -> [calls]
        self._by_parent = {}  # counter name -> {span name: calls}

    def span(self, name, fn, group=None, observe=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        grp = self.groups.setdefault(group, [0, 0.0]) if group else None
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            cover = [0.0, start]
            stack.append((name, cover))
            if grp is not None:
                grp[0] += 1
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - cover[0]
                stats[3] += raised
                if grp is not None:
                    grp[0] -= 1
                    if grp[0] == 0:
                        grp[1] += dur
                if stack:
                    extend_cover(stack[-1][1], start, end)
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    def counter(self, name, fn, by_parent=False):
        """Count calls; by_parent also keys them by the innermost open span."""
        cell = self._cells.setdefault(name, [0])
        if not by_parent:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            parents = self._by_parent.setdefault(name, {})
            stack = self.stack

            def wrapper(*args, **kwargs):
                cell[0] += 1
                top = stack[-1][0] if stack else ""
                parents[top] = parents.get(top, 0) + 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def collect(self) -> None:
        """Fold the counter cells into self.counts."""
        for name, cell in self._cells.items():
            self.counts[name] = cell[0]
        for name, parents in self._by_parent.items():
            for top, n in parents.items():
                self.counts[f"{name}@{top}"] = n

    # Observers read the values each layer returns.

    def on_roots(self, reports, _args):
        c = self.counts
        c["roots"] += len(reports)
        for rep in reports:
            c["newton_iters"] += rep.iterations
            c["unconverged"] += not rep.converged

    def on_solve_point(self, result, _args):
        _samples, failure = result
        self.counts["solve_point." + (failure[0] if failure else "ok")] += 1

    def on_certify(self, cert, _args):
        self.counts["certify." + cert.status] += 1

    def on_scan(self, _vals, args):
        self.counts["scan_evals"] += len(args[0])

    def instrument_relation(self, make):
        """Wrap a relation factory: its relations' phi, dphi, phi_vec count."""

        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            rel = make(*args, **kwargs)
            return dataclasses.replace(
                rel,
                phi=self.counter("implicitsolve.phi", rel.phi, by_parent=True),
                dphi=self.counter("implicitsolve.dphi", rel.dphi),
                phi_vec=self.span("implicitsolve.phi_vec", rel.phi_vec,
                                  observe=self.on_scan))

        return wrapper

    def fired(self, probe: str) -> int:
        if probe in self.spans:
            return self.spans[probe][0]
        return self.counts[probe]

    def summary(self) -> dict:
        return {"spans": {name: {"calls": s[0], "total_s": s[1],
                                 "self_s": s[2], "raised": s[3]}
                          for name, s in sorted(self.spans.items())},
                "groups": {g: v[1] for g, v in sorted(self.groups.items())},
                "counts": dict(sorted(self.counts.items()))}


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


def install(tracer: Tracer, patches: Patches) -> None:
    mods = {name: sys.modules[f"heavenly.{name}"] for name in
            ("cliapp", "superpose", "calculus", "fdoracle", "implicitsolve",
             "exprdsl")}
    cli, sp, calc = mods["cliapp"], mods["superpose"], mods["calculus"]
    fdo, isv, dsl = mods["fdoracle"], mods["implicitsolve"], mods["exprdsl"]

    def wrap(obj, attr, name, **kw):
        # A site that no longer exists leaves its probe silent, and the
        # coverage check then names it.
        if hasattr(obj, attr):
            patches.set(obj, attr, tracer.span(name, getattr(obj, attr), **kw))

    wrap(cli, "main", "cliapp.main")
    wrap(cli, "load_scenario", "cliapp.load_scenario")
    wrap(cli.Scenario, "points", "cliapp.points")
    wrap(cli.Scenario, "build_family", "registry.build_family")
    wrap(cli, "verify_theorem", "superpose.verify_theorem")
    for mod in (cli, sp):
        wrap(mod, "solve_point", "superpose.solve_point",
             observe=tracer.on_solve_point)
        wrap(mod, "superpose", "superpose.superpose")
    wrap(sp, "enumerate_roots", ENUMERATE, observe=tracer.on_roots)
    # cliapp reaches calculus through the module; superpose bound the names.
    for fname in RESIDUALS + ("reduced_balance",):
        wrap(calc, fname, f"calculus.{fname}", group="residuals")
    for fname in RESIDUALS:
        wrap(sp, fname, f"calculus.{fname}", group="residuals")
    # registry imports these at call time from their home modules.
    for fname in DERIVATIVES:
        wrap(calc, fname, f"calculus.{fname}", group="derivatives")
    for fname in ("shock_relation", "general_relation"):
        patches.set(isv, fname,
                    tracer.instrument_relation(getattr(isv, fname)))
    wrap(fdo, "certify_sample", "fdoracle.certify_sample",
         observe=tracer.on_certify)
    wrap(fdo, "solve_on_sheet", ON_SHEET)
    patches.set(dsl, "compile_expr",
                tracer.counter("exprdsl.compile_expr", dsl.compile_expr))
    patches.set(dsl.SmoothFn, "compiled",
                tracer.counter("exprdsl.compiled", dsl.SmoothFn.compiled))


def _import_cliapp(root: Path):
    # Same one-thread BLAS/OpenMP as the cold children; numpy reads these
    # when it is first imported, which happens here.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    cli = importlib.import_module("heavenly.cliapp")
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"heavenly imported from {cli.__file__}, "
                           f"not from {src}")
    return cli


def run_in_process(cli, inv, argv, workdir: Path):
    """One `ghe` invocation through cliapp.main: (exit code, stdout)."""
    for leftover in workdir.glob(f"{inv.key}.*"):
        leftover.unlink()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:     # noqa: BLE001 - counted as a failed invocation
        code = "exception: " + traceback.format_exc(limit=3)
    return code, out.getvalue()


def measure_imports(root: Path, workdir: Path):
    """Median import split of `import heavenly.cliapp` from -X importtime."""
    argv = [sys.executable, "-X", "importtime", "-c", "import heavenly.cliapp"]
    env = child_env(root)
    rows, problems = [], []
    for i in range(IMPORT_REPEATS):
        res = run_child(argv, env, workdir, f"importtime{i}")
        tree = parse_importtime(res.stderr)
        row = tuple(import_seconds(tree, p)
                    for p in ("heavenly", "scipy", "numpy"))
        if res.exit_code != 0 or row[0] <= 0.0 or row[2] <= 0.0:
            problems.append(f"importtime child {i}: exit {res.exit_code}, "
                            f"heavenly {row[0]}, numpy {row[2]}")
        rows.append(row)
    return [median(col) for col in zip(*rows)], problems


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, sizes, n_passes: int, imports, overhead):
    """Per-layer metrics from the traced passes' spans and counters.

    sizes: (command, points, seeds) for each invocation of one pass.
    """
    ps = n_passes * point_seeds((p, s) for _c, p, s in sizes)
    pts = {cmd: n_passes * sum(p for c, p, _s in sizes if c == cmd)
           for cmd in ("verify", "sample", "balance", "fdcheck")}
    n_inv = n_passes * len(sizes)
    c = tr.counts

    def calls(name):
        return tr.spans.get(name, [0])[0]

    def total(name):
        return tr.spans.get(name, [0, 0.0])[1]

    def self_s(name):
        return tr.spans.get(name, [0, 0.0, 0.0])[2]

    def group(name):
        return tr.groups.get(name, [0, 0.0])[1]

    us = 1e6
    certified = c["certify.ok"]
    solve_calls = calls("superpose.solve_point")
    on_sheet = calls(ON_SHEET)
    import_s, scipy_s, numpy_s = imports
    return {
        "cliapp.import_s": (import_s, "s"),
        "cliapp.import_scipy_s": (scipy_s, "s"),
        "cliapp.import_numpy_s": (numpy_s, "s"),
        "cliapp.self_us_per_point_seed":
            (_ratio(self_s("cliapp.main"), ps) * us, "us"),
        "registry.build_family_ms":
            (_ratio(total("registry.build_family"),
                    calls("registry.build_family")) * 1e3, "ms"),
        "exprdsl.compile_calls": (_ratio(c["exprdsl.compile_expr"], n_inv),
                                  "count"),
        "exprdsl.compiled_lookups_per_point_seed":
            (_ratio(c["exprdsl.compiled"], ps), "count"),
        "implicitsolve.enumerate_us_per_point_seed":
            (_ratio(total(ENUMERATE), ps) * us, "us"),
        "implicitsolve.scan_us_per_point_seed":
            (_ratio(total("implicitsolve.phi_vec"), ps) * us, "us"),
        "implicitsolve.refine_us_per_point_seed":
            (_ratio(self_s(ENUMERATE), ps) * us, "us"),
        "implicitsolve.phi_evals_per_point_seed":
            (_ratio(c["implicitsolve.phi@" + ENUMERATE], ps), "count"),
        "implicitsolve.scan_evals_per_point_seed":
            (_ratio(c["scan_evals"], ps), "count"),
        "implicitsolve.roots_per_point_seed": (_ratio(c["roots"], ps),
                                               "count"),
        "implicitsolve.newton_iters_per_root":
            (_ratio(c["newton_iters"], c["roots"]), "count"),
        "implicitsolve.unconverged_ratio":
            (_ratio(c["unconverged"], c["roots"]), "ratio"),
        "implicitsolve.on_sheet_calls_per_sample":
            (_ratio(on_sheet, calls("fdoracle.certify_sample")), "count"),
        "implicitsolve.on_sheet_us_per_call":
            (_ratio(total(ON_SHEET), on_sheet) * us, "us"),
        "implicitsolve.on_sheet_failures":
            (_ratio(tr.spans.get(ON_SHEET, [0, 0, 0, 0])[3], n_passes),
             "count"),
        "calculus.derivatives_us_per_point_seed":
            (_ratio(group("derivatives"), ps) * us, "us"),
        "calculus.residuals_us_per_point_seed":
            (_ratio(group("residuals"), ps) * us, "us"),
        "superpose.superpose_us_per_point":
            (_ratio(total("superpose.superpose"),
                    pts["verify"] + pts["sample"]) * us, "us"),
        "superpose.verify_self_us_per_point":
            (_ratio(self_s("superpose.verify_theorem"), pts["verify"]) * us,
             "us"),
        "superpose.hole_ratio": (_ratio(c["solve_point.hole"], solve_calls),
                                 "ratio"),
        "superpose.fold_ratio": (_ratio(c["solve_point.fold"], solve_calls),
                                 "ratio"),
        "fdoracle.certify_us_per_sample":
            (_ratio(total("fdoracle.certify_sample"),
                    calls("fdoracle.certify_sample")) * us, "us"),
        "fdoracle.self_us_per_sample":
            (_ratio(self_s("fdoracle.certify_sample"),
                    calls("fdoracle.certify_sample")) * us, "us"),
        "fdoracle.solves_per_sample": (_ratio(on_sheet, certified), "count"),
        "fdoracle.certified_ratio":
            (_ratio(certified, calls("fdoracle.certify_sample")), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def run_traced(root: Path, name: str, invocations, seed: int,
               seconds: float, workdir: Path, outdir: Path, log):
    """Import split, then passes in which each invocation runs untraced and
    then traced, until another pass would overrun `seconds`.

    The untraced run is the byte-identity reference for the traced one and
    the base of the tracing overhead; running the two back to back keeps
    the machine's speed drift out of the ratio.
    """
    start = time.perf_counter()
    imports, import_problems = measure_imports(root, workdir)
    for p in import_problems:
        log(f"FAILED {p}")
    failed = len(import_problems)
    cli = _import_cliapp(root)
    infos = {inv.scenario: scenario_info(root, inv.scenario)
             for inv in invocations}
    sizes = [(inv.command, *invocation_size(inv, infos[inv.scenario]))
             for inv in invocations]
    # First calls pay one-off costs (lazy imports, caches); keep them out.
    warm = invocations[0]
    run_in_process(cli, warm, [*warm.argv(root, seed, workdir), "--points",
                               "16"], workdir)

    tracer = Tracer()
    gate = RepeatGate()
    plain_s = traced_s = 0.0
    pass_walls = []
    while not pass_walls or (time.perf_counter() - start
                             + median(pass_walls) <= seconds):
        t_pass = time.perf_counter()
        for inv in invocations:
            argv = inv.argv(root, seed, workdir)
            for traced in (False, True):
                patches = Patches()
                if traced:
                    install(tracer, patches)
                t0 = time.perf_counter()
                try:
                    code, stdout = run_in_process(cli, inv, argv, workdir)
                finally:
                    patches.restore()
                wall = time.perf_counter() - t0
                if traced:
                    traced_s += wall
                else:
                    plain_s += wall
                outcome = check_outcome(inv, infos[inv.scenario], code,
                                        stdout, workdir)
                gate.check(inv, outcome)
                if outcome.problems:
                    failed += 1
                    log(f"FAILED {inv.key} (traced={traced}): "
                        f"{'; '.join(outcome.problems)}")
        pass_walls.append(time.perf_counter() - t_pass)
    tracer.collect()

    missing = [p for p in REQUIRED_PROBES[name] if not tracer.fired(p)]
    metrics = layer_metrics(tracer, sizes, len(pass_walls), imports,
                            traced_s / plain_s - 1.0)
    (outdir / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "passes": len(pass_walls),
         "untraced_s": plain_s, "traced_s": traced_s,
         **tracer.summary()}, indent=1))
    attempted = IMPORT_REPEATS + 2 * len(invocations) * len(pass_walls)
    return metrics, attempted, failed, missing
