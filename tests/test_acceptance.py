"""Acceptance suite: end-to-end verification properties at desk scale.

Each test covers one numbered criterion and records a single
"criterion N ...: PASS|FAIL" verdict line, replayed after the run by
the conftest terminal-summary hook.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from _families import halton_cloud, quadratic_shock_def, random_shock_family, \
    second_shock_def, shock_def_as_general, simple_shared
from heavenly import fdoracle
from heavenly.calculus import (
    compat_residuals,
    ghe_residual,
    n_term_balance,
    pairwise_balance,
    pairwise_balances,
    reduced_balance,
)
from heavenly.cliapp import load_scenario, main
from heavenly.fdoracle import certify_sample
from heavenly.implicitsolve import BranchPolicy, enumerate_roots
from heavenly.registry import GeneralFamily, ShockFamily
from heavenly.superpose import solve_point, verify_theorem

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("shock_n2", "shock_n3", "general_unbalanced",
           "general_balanced", "trivial_overlap")

N_SCENARIOS = 20
SEED_COUNTS = (2, 3, 5)
POINTS_PER_SCENARIO = 60
BANK_SEED = 20260823


def announce(num, name, passed):
    from conftest import record_verdict
    record_verdict(num, name, passed)
    print(f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'}",
          flush=True)


@pytest.fixture(scope="module")
def bank():
    """Twenty randomized shock scenarios, solved and verified once.

    Returns (scenarios, elapsed) where each scenario entry is
    (family, coefficients, points, theorem_report).
    """
    rng = np.random.default_rng(BANK_SEED)
    scenarios = []
    t0 = time.perf_counter()
    for k in range(N_SCENARIOS):
        n = SEED_COUNTS[k % len(SEED_COUNTS)]
        fam = random_shock_family(rng, n)
        coeffs = [float(c) for c in rng.uniform(-3.0, 3.0, n)]
        pts = halton_cloud(POINTS_PER_SCENARIO, seed=1000 + k)
        rep = verify_theorem(fam, coeffs, pts)
        scenarios.append((fam, coeffs, pts, rep))
    return scenarios, time.perf_counter() - t0


def test_criterion_1_seed_validity(bank):
    scenarios, elapsed = bank
    n_admissible = sum(rep.n_admissible for _, _, _, rep in scenarios)
    seed_ghe = max(rep.checks["seed_ghe"]["max"] for _, _, _, rep in scenarios)
    seed_compat = max(rep.checks["seed_compat"]["max"]
                      for _, _, _, rep in scenarios)
    ok = (len(scenarios) == N_SCENARIOS and n_admissible >= 1000
          and seed_ghe <= 1e-9 and seed_compat <= 1e-9 and elapsed <= 60.0)
    announce(1, "seed validity", ok)
    assert n_admissible >= 1000
    assert seed_ghe <= 1e-9
    assert seed_compat <= 1e-9
    assert elapsed <= 60.0


def test_criterion_2_superposition(bank):
    scenarios, _ = bank
    worst_fraction = min(rep.pass_fraction for _, _, _, rep in scenarios)
    ok = worst_fraction >= 0.99
    announce(2, "superposition theorem", ok)
    for _, coeffs, _, rep in scenarios:
        assert all(abs(c) <= 3.0 for c in coeffs)
        assert rep.pass_fraction >= 0.99


def test_criterion_3_balance(bank):
    scenarios, _ = bank
    worst_pair = worst_sum = worst_reduced = 0.0
    bit_equal = True
    for fam, _, pts, _ in scenarios:
        # the reduced condition only involves the mixed partials of Q, R
        # and the t-partial of T, so the additive profiles m, n can be
        # zeroed before embedding without changing its value
        stripped = [d.replace(m=type(d.m).parse("0", ("y",)),
                              n=type(d.n).parse("0", ("z",)))
                    for d in fam.defs]
        gdefs = [shock_def_as_general(d, fam.shared) for d in stripped]
        embedded = GeneralFamily(gdefs, fam.shared)
        cloud, _ = solve_point(fam, pts[:10], BranchPolicy())
        samples = cloud.samples
        general, _ = solve_point(embedded, pts[:10], BranchPolicy())
        nt = n_term_balance(pairwise_balances(samples, fam.shared),
                            len(cloud.admissible))
        worst_sum = max(worst_sum, nt.normalized.max(initial=0.0))
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                pw = pairwise_balance(samples[i], samples[j], fam.shared)
                worst_pair = max(worst_pair, pw.normalized.max(initial=0.0))
                red = reduced_balance(general.samples[i],
                                      general.samples[j], fam.shared)
                worst_reduced = max(worst_reduced,
                                    red.normalized.max(initial=0.0))
                if len(samples) == 2:
                    bit_equal &= bool(np.array_equal(nt.value, pw.value))
    ok = (worst_pair <= 1e-9 and worst_sum <= 1e-9
          and worst_reduced <= 1e-9 and bit_equal)
    announce(3, "balance conditions", ok)
    assert worst_pair <= 1e-9
    assert worst_sum <= 1e-9
    assert worst_reduced <= 1e-9
    assert bit_equal


def test_criterion_4_negative_control():
    sc = load_scenario(str(SCENARIO_DIR / "general_unbalanced.json"))
    fam = sc.build_family()
    pts = sc.points(count=150)
    rep = verify_theorem(fam, sc.coefficients, pts, policy=sc.policy,
                         threshold=1e-3)
    seed_ok = rep.checks["seed_ghe"]["max"] <= 1e-10
    # pass_fraction at threshold 1e-3 is the fraction of admissible points
    # where the superposed residual is small; a true violation keeps it low
    sup_violates = rep.pass_fraction < 0.5
    cloud, _ = solve_point(fam, pts, sc.policy)
    samples = cloud.samples
    red = reduced_balance(samples[0], samples[1], fam.shared)
    n_red = len(cloud.admissible)
    n_red_big = int(np.count_nonzero(red.normalized > 1e-3))
    red_violates = n_red > 0 and n_red_big > 0.5 * n_red
    ok = seed_ok and sup_violates and red_violates
    announce(4, "negative control", ok)
    assert seed_ok
    assert sup_violates
    assert red_violates


def test_criterion_5_quadratic_identity(bank):
    scenarios, _ = bank
    worst = max(rep.checks["quadratic_identity"]["max"]
                for _, _, _, rep in scenarios)
    ok = worst <= 1e-12
    announce(5, "quadratic-form identity", ok)
    assert worst <= 1e-12


def test_criterion_6_derivative_certification(bank, monkeypatch):
    scenarios, _ = bank
    worst = step_gap = 0.0
    for fam, _, pts, _ in scenarios[:4]:
        cloud, _ = solve_point(fam, pts[:6], BranchPolicy())
        for i, s in enumerate(cloud.samples):
            # the largest deviation over the certified points
            cert = certify_sample(s, fam, i)
            worst = max(worst, max(cert.deviations.values()))
            # the complex step has no truncation error left to see: a step
            # 80 orders of magnitude smaller reads the same partials
            ref = fdoracle.partials(fam, i, s.point, s.p, s.Phi_p)
            with monkeypatch.context() as m:
                m.setattr(fdoracle, "STEP", 1e-100)
                tiny = fdoracle.partials(fam, i, s.point, s.p, s.Phi_p)
            step_gap = max(step_gap,
                           (np.abs(tiny - ref) / (1.0 + np.abs(ref))).max())
    ok = worst <= 1e-6 and step_gap <= 1e-14
    announce(6, "derivative certification", ok)
    assert worst <= 1e-6
    assert step_gap <= 1e-14


def test_criterion_7_root_oracle_and_reproducibility(tmp_path, monkeypatch):
    # closed-form oracle: F = p^2/2, G = p gives p = -x/(S + 1)
    fam = ShockFamily([quadratic_shock_def()], simple_shared())
    rel = fam.relation(0)
    rng = np.random.default_rng(5)
    oracle_ok = True
    for _ in range(100):
        x, y, z, t = rng.uniform([-2, 0.5, 0.5, 0.5], [2, 1.5, 1.5, 1.5])
        expected = -x / (t + y + z + 1.0)
        reports = enumerate_roots(rel, (x, y, z, t))
        oracle_ok &= len(reports) == 1
        oracle_ok &= abs(reports[0].root - expected) \
            <= 1e-12 * max(1.0, abs(expected))

    monkeypatch.chdir(tmp_path)
    repro_ok = True
    for name in SHIPPED:
        path = str(SCENARIO_DIR / f"{name}.json")
        blobs = []
        for run in range(2):
            report = f"{name}.{run}.json"
            code = main(["verify", path, "--points", "40",
                         "--report", report])
            repro_ok &= code == 0
            blobs.append(Path(report).read_bytes())
        repro_ok &= blobs[0] == blobs[1]
    ok = oracle_ok and repro_ok
    announce(7, "root oracle and reproducibility", ok)
    assert oracle_ok
    assert repro_ok
