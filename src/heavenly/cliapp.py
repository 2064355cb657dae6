"""Scenario files, orchestration and the `ghe` command line tool.

A scenario is a single JSON file holding the equation constants, the shared
profile expressions, the seed definitions (shock or general family),
superposition coefficients, a sampling spec and optional branch policy and
tolerance overrides.  Expressions are strings in the grammar of exprdsl.

Commands: verify | sample | balance | fdcheck.  Exit codes: 0 success,
1 residual failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import calculus, fdoracle
from .superpose import (
    OK,
    STATUS,
    balance_checks,
    reduce_chunks,
    solve_chunks,
    summarize,
    theorem_checks,
    verify_theorem,
)
from .exprdsl import ExprError, SmoothFn
from .implicitsolve import BranchPolicy
from .registry import FAMILIES, FamilyError, SharedProfile

REPORT_SCHEMA_VERSION = 1
MAX_POINTS = 1_000_000      # cloud size bound: lane arrays scale with it
MAX_RESOLUTION = 65536      # scan grid bound: the scan's cells scale with it
HALTON_BASES = (2, 3, 5, 7)  # the first four primes, one per axis x, y, z, t
CSV_BLOCK = 256             # sample rows turned into Python floats at once

DEFAULT_TOLERANCES = {
    "residual": 1e-9,        # max normalized residual, expect=satisfy
    "seed_residual": 1e-9,   # per-seed residual bound
    "pass_fraction": 0.99,   # superposed points within `residual`
    "violation": 1e-3,       # expect=violate: median superposed residual above
    "identity": 1e-12,       # quadratic-form expansion defect
    "fd": 1e-6,              # oracle certification bound
}


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    family_kind: str            # a key of registry.FAMILIES
    shared: SharedProfile
    seed_defs: list
    coefficients: list
    box: dict | None            # axis -> (lo, hi)
    count: int
    sample_seed: int
    explicit_points: np.ndarray | None   # (N, 4)
    policy: BranchPolicy
    tolerances: dict
    expect: str                 # "satisfy" | "violate"
    description: str = ""

    def build_family(self):
        return FAMILIES[self.family_kind](self.seed_defs, self.shared)

    def points(self, count=None, seed=None) -> np.ndarray:
        """The (N, 4) cloud: explicit points, or a Halton draw in the box."""
        if self.explicit_points is not None:
            return self.explicit_points.copy()
        count = int(count if count is not None else self.count)
        seed = int(seed if seed is not None else self.sample_seed)
        _check_count(count)
        lows = [self.box[ax][0] for ax in "xyzt"]
        highs = [self.box[ax][1] for ax in "xyzt"]
        if any(lo >= hi for lo, hi in zip(lows, highs)):
            raise ScenarioError("empty sampling box")
        return scrambled_halton(count, seed, lows, highs)


def scrambled_halton(count: int, seed: int, lows, highs) -> np.ndarray:
    """`count` Owen-scrambled Halton points in the box [lows, highs).

    Random-permutation scrambling (A. B. Owen, arXiv 1706.02808): digit j
    of the index in base b goes through its own shuffled permutation of
    range(b), for every digit down to 2**-54, leading zeros included.
    The permutations are shuffled by _PCG64(seed), the stream of the
    default_rng(seed) that scipy draws them from.
    The digits are accumulated in the order of scipy's
    `qmc.scale(qmc.Halton(d=4, scramble=True, seed=seed).random(count),
    lows, highs)`, which this reproduces bit for bit.
    """
    stream = _PCG64(seed)
    u = np.empty((count, len(HALTON_BASES)))
    for col, base in enumerate(HALTON_BASES):
        perms = []
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            perm = list(range(base))
            stream.shuffle(perm)
            perms.append(np.array(perm))
        index, top = np.arange(count), count - 1
        v = np.zeros(count)
        scale = 1.0 / base      # `scale /= base` below: `*= 1/base` is 1 ulp off
        for perm in perms:
            if top:
                index, digit = np.divmod(index, base)
                v += (perm * scale)[digit]
                top //= base
            else:               # every index is down to its zero digits
                v += perm[0] * scale
            scale /= base
        u[:, col] = v
    lows = np.asarray(lows, dtype=float)
    u *= np.asarray(highs, dtype=float) - lows     # in place: one (N, 4) array
    u += lows
    return u


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list:
    """numpy's SeedSequence(seed).generate_state(8): the 32-bit words of
    PCG64's initial state and increment, low half of each 64 bits first."""
    entropy = [seed & _M32]         # little-endian 32-bit words
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    return state


class _PCG64:
    """The shuffles of numpy's default_rng(seed), bit for bit, without
    importing numpy.random.

    The generator is PCG64, the XSL-RR output of a 128-bit LCG (M. E.
    O'Neill, 2014), seeded through SeedSequence as numpy seeds it.  A 32-bit
    draw is the low half of a 64-bit output, then its high half.
    """

    def __init__(self, seed: int):
        w = _seed_state(seed)
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self.inc = (inc << 1 | 1) & _M128
        self.state = (self.inc + state) * _PCG_MULT + self.inc & _M128
        self.half = None        # the unread high half of the last output

    def _next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        self.state = self.state * _PCG_MULT + self.inc & _M128
        x = (self.state >> 64 ^ self.state) & _M64
        rot = self.state >> 122
        out = (x >> rot | x << (64 - rot)) & _M64
        self.half = out >> 32
        return out & _M32

    def shuffle(self, items: list):
        """Generator.shuffle of fewer than 2**32 items, in place: Fisher-
        Yates, each index drawn by masked rejection from 32-bit draws."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]


def _check_count(count: int, where: str = "sampling count"):
    if count <= 0:
        raise ScenarioError(f"{where} must be positive")
    if count > MAX_POINTS:
        raise ScenarioError(f"{where} {count} exceeds the bound "
                            f"of {MAX_POINTS} points")


def _check_seed(seed, where: str):
    # bool is an int subclass; numpy's seeding rejects negative integers
    if type(seed) is not int or seed < 0:
        raise ScenarioError(f"{where} must be a non-negative integer, "
                            f"not {seed!r}")


def _number(value, where: str) -> float:
    """A finite JSON number as a float; strings, bools, NaN and integers
    beyond the float range are refused."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ScenarioError(f"{where} must be a finite number, not {value!r}")


def _tolerance(value, where: str) -> float:
    """A tolerance: a finite number, as _number reads it, not below 0."""
    number = _number(value, where)
    if number < 0.0:
        raise ScenarioError(f"{where} must not be negative, not {value!r}")
    return number


def _check_width(low: float, high: float, where: str):
    # the sampler and the scan grid scale by high - low
    if not math.isfinite(high - low):
        raise ScenarioError(f"{where} is too wide: high - low must be a "
                            f"finite number")


def _integer(value, where: str) -> int:
    # bool is an int subclass; a float such as 2.5 is refused, not truncated
    if type(value) is not int:
        raise ScenarioError(f"{where} must be an integer, not {value!r}")
    return value


def _require_keys(obj: dict, allowed, required, where: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")
    missing = set(required) - set(obj)
    if missing:
        raise ScenarioError(f"missing keys {sorted(missing)} in {where}")


def _expressions(obj, cls, where: str, prefix: str) -> dict:
    """The expressions of obj, which must hold exactly the keys of
    cls.VARIABLES, each parsed over its variables; prefix starts the name
    of a key in an error message."""
    _require_keys(obj, cls.VARIABLES, cls.VARIABLES, where)
    exprs = {}
    for key, variables in cls.VARIABLES.items():
        if not isinstance(obj[key], str):
            raise ScenarioError(f"{prefix}{key}: expression must be a string")
        try:
            exprs[key] = SmoothFn.parse(obj[key], variables)
        except ExprError as exc:
            raise ScenarioError(f"{prefix}{key}: {exc}") from None
    return exprs


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past Python's digit limit
        raise ScenarioError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")

    _require_keys(raw, allowed=("name", "description", "constants", "shared",
                                "family", "seeds", "coefficients", "sampling",
                                "branch", "tolerances", "expect"),
                  required=("family", "shared", "seeds", "coefficients",
                            "sampling"),
                  where="scenario")
    name = raw.get("name", path.stem)   # the stem of sample's default CSV
    if not isinstance(name, str) or not name or set(name) & set("/\\\0"):
        raise ScenarioError(f"name must be a non-empty string without '/', "
                            f"'\\' or NUL, not {name!r}")
    description = raw.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError(f"description must be a string, "
                            f"not {description!r}")

    constants = raw.get("constants", {"a": 1.0, "b": 1.0})
    _require_keys(constants, ("a", "b"), ("a", "b"), "constants")

    try:
        shared = SharedProfile(**_expressions(raw["shared"], SharedProfile,
                                              "shared", ""),
                               a=_number(constants["a"], "constants.a"),
                               b=_number(constants["b"], "constants.b"))
    except FamilyError as exc:
        raise ScenarioError(str(exc)) from None

    kind = raw["family"]
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise ScenarioError(f"unknown family kind {kind!r}")
    seed_type = FAMILIES[kind].seed_type
    seeds = raw["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ScenarioError("seeds must be a non-empty list")
    defs = []
    for i, seed in enumerate(seeds):
        where = f"seeds[{i}]"
        try:
            defs.append(seed_type(**_expressions(seed, seed_type, where,
                                                 where + ".")))
        except FamilyError as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    coeffs = raw["coefficients"]
    if not isinstance(coeffs, list) or len(coeffs) != len(defs):
        raise ScenarioError("coefficients must list one number per seed")
    coeffs = [_number(c, f"coefficients[{i}]") for i, c in enumerate(coeffs)]
    if not any(coeffs):
        raise ScenarioError("coefficients must not all be zero")

    sampling = raw["sampling"]
    _require_keys(sampling, ("box", "count", "seed", "points"), (),
                  "sampling")
    box = None
    explicit = None
    if "points" in sampling:
        extra = sorted(set(sampling) - {"points"})
        if extra:
            raise ScenarioError(f"sampling: explicit points take no "
                                f"{', '.join(extra)}")
        bad_rows = "sampling.points must list [x,y,z,t] rows of finite numbers"
        try:
            explicit = np.asarray(sampling["points"], dtype=float)
        except (TypeError, ValueError):
            raise ScenarioError(bad_rows) from None
        # None converts to NaN
        if explicit.ndim != 2 or explicit.shape[1] != 4 or not len(explicit) \
                or not np.isfinite(explicit).all():
            raise ScenarioError(bad_rows)
        _check_count(len(explicit))
    else:
        if "box" not in sampling:
            raise ScenarioError("sampling needs 'box' or 'points'")
        box_raw = sampling["box"]
        _require_keys(box_raw, tuple("xyzt"), tuple("xyzt"), "sampling.box")
        box = {}
        for ax in "xyzt":
            where = f"sampling.box.{ax}"
            if not isinstance(box_raw[ax], list) or len(box_raw[ax]) != 2:
                raise ScenarioError(f"{where} must be a [low, high] pair")
            box[ax] = tuple(_number(v, where) for v in box_raw[ax])
            _check_width(*box[ax], where)

    branch = raw.get("branch", {})
    _require_keys(branch, ("p_lo", "p_hi", "resolution", "selection"), (),
                  "branch")
    resolution = _integer(branch.get("resolution", 1024),
                          "branch.resolution")
    if resolution > MAX_RESOLUTION:
        raise ScenarioError(f"branch: scan resolution {resolution} exceeds "
                            f"the bound of {MAX_RESOLUTION}")
    p_lo = _number(branch.get("p_lo", -10.0), "branch.p_lo")
    p_hi = _number(branch.get("p_hi", 10.0), "branch.p_hi")
    _check_width(p_lo, p_hi, "branch: scan interval p_lo..p_hi")
    try:
        policy = BranchPolicy(
            p_lo=p_lo, p_hi=p_hi, resolution=resolution,
            selection=branch.get("selection", "lowest"))
    except ValueError as exc:
        raise ScenarioError(f"branch: {exc}") from None

    tolerances = dict(DEFAULT_TOLERANCES)
    tol_raw = raw.get("tolerances", {})
    _require_keys(tol_raw, tuple(DEFAULT_TOLERANCES), (), "tolerances")
    tolerances.update({k: _tolerance(v, f"tolerances.{k}")
                       for k, v in tol_raw.items()})
    if tolerances["pass_fraction"] > 1.0:
        raise ScenarioError(f"tolerances.pass_fraction must not exceed 1, "
                            f"not {tol_raw['pass_fraction']!r}")

    expect = raw.get("expect", "satisfy")
    if expect not in ("satisfy", "violate"):
        raise ScenarioError(f"unknown expect value {expect!r}")

    count = _integer(sampling.get("count", 1000), "sampling.count")
    if explicit is None:
        _check_count(count)
    sample_seed = sampling.get("seed", 0)
    _check_seed(sample_seed, "sampling.seed")
    return Scenario(name=name,
                    family_kind=kind, shared=shared, seed_defs=defs,
                    coefficients=coeffs, box=box,
                    count=count,
                    sample_seed=sample_seed,
                    explicit_points=explicit, policy=policy,
                    tolerances=tolerances, expect=expect,
                    description=description)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.3e}"


def _write_report(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_writable(path: Path):
    """Raise the OSError that writing path would raise for want of a
    writable directory, before any work is spent."""
    parent = path.parent
    if path.is_dir():
        code = errno.EISDIR
    elif not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _above(value, tol) -> bool:
    """Whether a maximum fails its tolerance: nan, a check that could not
    be computed, fails too."""
    return not value <= tol


def _verdict(failures: list, payload: dict) -> tuple[int, dict]:
    """Print the verdict line; the exit code and the completed payload."""
    print("verdict: " + ("FAIL: " + "; ".join(failures) if failures
                         else "PASS"))
    return (1 if failures else 0), dict(payload, failures=failures,
                                        passed=not failures)


def cmd_verify(scenario, family, points, tol, args) -> tuple[int, dict]:
    report = verify_theorem(family, scenario.coefficients, points,
                            policy=scenario.policy,
                            threshold=tol["residual"])
    ch = report.checks
    failures = []
    if report.n_admissible == 0:
        failures.append("no admissible points")
    elif scenario.expect == "satisfy":
        if _above(ch["seed_ghe"]["max"], tol["seed_residual"]):
            failures.append("seed GHE residual above tolerance")
        if _above(ch["seed_compat"]["max"], tol["seed_residual"]):
            failures.append("seed compatibility residual above tolerance")
        if _above(ch["n_term_balance"]["max"], tol["residual"]):
            failures.append("balance residual above tolerance")
        if report.pass_fraction < tol["pass_fraction"]:
            failures.append("superposed residual pass fraction too low")
        if _above(ch["quadratic_identity"]["max"], tol["identity"]):
            failures.append("quadratic-form identity defect above tolerance")
    else:
        if _above(ch["seed_ghe"]["max"], tol["seed_residual"]):
            failures.append("violation control: seeds do not solve the equation")
        if _above(ch["seed_compat"]["max"], tol["seed_residual"]):
            failures.append("violation control: seed compatibility residual "
                            "above tolerance")
        # a nan median is no violation observed
        if not ch["superposed_ghe"]["median"] > tol["violation"]:
            failures.append("expected violation not observed at most points")

    print(f"scenario: {scenario.name} (expect {scenario.expect})")
    print(f"points: {report.n_points}  admissible: {report.n_admissible}  "
          f"holes: {report.n_holes}  folds: {report.n_folds}")
    for name, st in ch.items():
        print(f"  {name:<20} max {_fmt(st['max'])}  median {_fmt(st['median'])}")
    print(f"  superposed pass fraction: {report.pass_fraction:.4f} "
          f"(threshold {tol['residual']:.1e})")
    return _verdict(failures, {"expect": scenario.expect, "tolerances": tol,
                               "report": asdict(report)})


def csv_header(n_seeds: int) -> list:
    cols = ["index", "status", "x", "y", "z", "t"]
    for i in range(1, n_seeds + 1):
        cols += [f"s{i}_{name}" for name in calculus.FIELD_NAMES]
    cols += [f"sup_{name}" for name in calculus.FIELD_NAMES]
    cols += [f"res_ghe_s{i}" for i in range(1, n_seeds + 1)]
    cols += ["res_ghe_sup", "res_compat_py_qx_sup", "res_compat_pz_rx_sup",
             "res_balance"]
    return cols


def _csv_rows(family, coeffs, cloud, first: int):
    """The CSV lines of one solved slice whose first point is row first."""
    samples = cloud.samples
    sup, checks = theorem_checks(samples, family.shared, coeffs)
    columns = [getattr(s, name) for s in samples + [sup]
               for name in calculus.FIELD_NAMES]
    for name in ("seed_ghe", "superposed_ghe", "superposed_compat",
                 "n_term_balance"):
        columns += checks[name]
    table = np.column_stack(columns)
    # Python floats for CSV_BLOCK rows at a time, not for the whole slice
    admissible = (row for start in range(0, len(table), CSV_BLOCK)
                  for row in table[start:start + CSV_BLOCK].tolist())
    # one %-format per row; "%.17g" % v is f"{v:.17g}", nan and inf included
    ok_row = "%d,%s" + ",%.17g" * (4 + len(columns)) + "\n"
    failed_row = "%d,%s" + ",%.17g" * 4 + ",nan" * len(columns) + "\n"
    for idx, (point, status) in enumerate(zip(cloud.points.tolist(),
                                              cloud.status.tolist()), first):
        if status == OK:
            yield ok_row % (idx, STATUS[status], *point, *next(admissible))
        else:
            yield failed_row % (idx, STATUS[status], *point)


def _sample_csv(scenario, args) -> Path:
    """The CSV path of sample: --out, or <scenario name>.csv."""
    return Path(args.out or f"{scenario.name}.csv")


def cmd_sample(scenario, family, points, tol, args) -> tuple[int, dict]:
    out = _sample_csv(scenario, args)

    n_rows = n_ok = 0
    with out.open("w") as csv:
        csv.write(",".join(csv_header(family.size)) + "\n")
        for cloud in solve_chunks(family, points, scenario.policy):
            csv.writelines(_csv_rows(family, scenario.coefficients, cloud,
                                     n_rows))
            n_rows += len(cloud.points)
            n_ok += len(cloud.admissible)
            cloud = None    # released before the next slice is solved
    print(f"wrote {out} ({len(points)} points, {n_ok} admissible)")
    return 0, {"csv": str(out), "points": len(points), "admissible": n_ok,
               "passed": True}


def cmd_balance(scenario, family, points, tol, args) -> tuple[int, dict]:
    parts, counts = reduce_chunks(
        family, points, scenario.policy,
        lambda cloud: balance_checks(cloud.samples, family.shared))
    result = {name: summarize(values) for name, values in parts.items()}
    n_admissible = result["admissible"] = counts[OK]

    failures = []
    if n_admissible == 0:
        failures.append("no admissible points")
    elif scenario.expect == "satisfy":
        for name in ("pairwise", "n_term", "reduced"):
            st = result[name]
            if st["count"] and _above(st["max"], tol["residual"]):
                failures.append(f"{name} balance residual above tolerance")
    elif not (result["reduced"]["count"]    # one seed has no pair
              and result["reduced"]["median"] > tol["violation"]):
        failures.append("expected balance violation not observed")

    print(f"scenario: {scenario.name} (expect {scenario.expect})")
    print(f"admissible points: {n_admissible}/{len(points)}")
    for name in ("pairwise", "n_term", "reduced"):
        st = result[name]
        print(f"  {name:<10} count {st['count']:<6} max {_fmt(st['max'])}  "
              f"median {_fmt(st['median'])}")
    return _verdict(failures, {"expect": scenario.expect, "result": result})


def cmd_fdcheck(scenario, family, points, tol, args) -> tuple[int, dict]:
    # the near-fold count is the solve's folds, |D| < FOLD_TOL
    joined, (_admissible, n_hole, n_near_fold) = reduce_chunks(
        family, points, scenario.policy,
        lambda cloud: {"certs": [fdoracle.certify_sample(s, family, i)
                                 for i, s in enumerate(cloud.samples)]})
    certs = joined["certs"]
    n_ok = sum(cert.certified for cert in certs)
    n_hole += sum(cert.holes for cert in certs)
    # seed i's largest deviation per partial over its reports, one a slice;
    # np.max keeps a nan, whichever slice, seed and partial it is in
    deviations = [{name: float(np.max([c.deviations[name] for c in
                                       certs[i::family.size]], initial=0.0))
                   for name in calculus.FieldSample.PARTIAL_NAMES}
                  for i in range(family.size)]
    max_dev = float(np.max([v for seed in deviations for v in seed.values()],
                           initial=0.0))

    failures = []
    if n_ok == 0:
        failures.append("no certifiable samples")
    elif _above(max_dev, tol["fd"]):
        failures.append("complex-step deviation above tolerance")

    print(f"scenario: {scenario.name}")
    print(f"certified: {n_ok}  near-fold skipped: {n_near_fold}  "
          f"holes: {n_hole}")
    print(f"max deviation: {_fmt(max_dev)} (tolerance {tol['fd']:.1e})")
    return _verdict(failures, {"result": {
        "certified": n_ok, "near_fold": n_near_fold, "holes": n_hole,
        "max_deviation": max_dev, "deviations": deviations,
        "tolerance": tol["fd"]}})


_COMMANDS = {"verify": cmd_verify, "sample": cmd_sample,
             "balance": cmd_balance, "fdcheck": cmd_fdcheck}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghe",
        description="Verify implicit shock-wave solution families and "
                    "their linear superposition for the general heavenly "
                    "equation.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--out",
                        help="CSV path of the sample command (default: "
                             "<scenario name>.csv); the other commands "
                             "write only --report")
    parser.add_argument("--points", type=int, default=None,
                        help="override the sampling count (fdcheck "
                             "default: the smaller of the count and 100); "
                             "a scenario's explicit points are used as "
                             "given")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the residual tolerance, or on "
                             "fdcheck the fd bound (a finite number, not "
                             "below 0)")
    parser.add_argument("--report", default=None,
                        help="path for the JSON report (default: "
                             "<scenario file stem>.report.json in the "
                             "working directory)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked on every scenario, though an explicit cloud ignores it
        if args.points is not None:
            _check_count(args.points, "--points")
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
        if args.tol is not None:
            _tolerance(args.tol, "--tol")
        report = Path(args.report
                      or f"{Path(args.scenario).stem}.report.json")
        _check_writable(report)
        scenario = load_scenario(args.scenario)
        if args.command == "sample":
            csv = _sample_csv(scenario, args)
            if csv.resolve() == report.resolve():
                raise ScenarioError(f"--out and the report are one file: "
                                    f"{csv}")
        family = scenario.build_family()
        count = args.points
        if count is None and args.command == "fdcheck":
            count = min(scenario.count, 100)
        points = scenario.points(count=count, seed=args.seed)
        tol = dict(scenario.tolerances)
        if args.tol is not None:
            tol["fd" if args.command == "fdcheck" else "residual"] = args.tol
        code, payload = _COMMANDS[args.command](scenario, family, points,
                                                tol, args)
        _write_report(report, dict(
            payload, schema_version=REPORT_SCHEMA_VERSION,
            command=args.command, scenario=scenario.name))
    except (ScenarioError, ExprError, FamilyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # load_scenario turns a read error into a ScenarioError, so this is
        # the report or the sample CSV (a failed write names no file)
        print(f"configuration error: cannot write {exc.filename or 'output'}"
              f": {exc.strerror}", file=sys.stderr)
        return 2
    return code


def run(argv=None) -> int:
    """The process entry of `ghe`: main, after freezing the heap.

    gc.freeze moves every object built so far, numpy and heavenly at
    import, to a generation that no collection walks, so the interpreter's
    last collection at exit skips them.  main itself stays free of
    process-wide effects, because tests and library callers run it many
    times in one process.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
