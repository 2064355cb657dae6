import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from _families import halton_cloud, quadratic_shock_def, sf, simple_shared
from heavenly import fdoracle
from heavenly.calculus import FieldSample
from heavenly.cliapp import load_scenario
from heavenly.fdoracle import certify_sample
from heavenly.implicitsolve import BranchPolicy, enumerate_roots, \
    solve_on_sheet
from heavenly.registry import ShockSolutionDef, build_shock_family
from heavenly.superpose import solve_point


def fd_along(field, point, axis, h):
    """The oracle's Richardson stencil of field along one axis of point."""
    shifted = []
    for k in fdoracle.OFFSETS:
        pt = np.array(point, dtype=float)
        pt[axis] += k * h
        shifted.append(field(pt))
    return fdoracle._richardson(*shifted, h)


class TestFdPartial:
    def test_quadratic_along_x(self):
        f = lambda pt: pt[0] ** 2
        assert fd_along(f, (3.0, 0.0, 0.0, 0.0), axis=0, h=1e-3) == \
            pytest.approx(6.0, abs=1e-9)

    def test_constant_field(self):
        f = lambda pt: 4.25
        assert abs(fd_along(f, (1.0, 2.0, 3.0, 4.0), axis=2, h=1e-3)) \
            <= 1e-12

    def test_continued_branch_matches_formula(self):
        # F = p^2/2, G = p: p = -x/(S+1), so dp/dx = -1/(S+1) = -1/D;
        # each stencil point is solved on the sheet of the root
        fam = build_shock_family([quadratic_shock_def()], simple_shared())
        rel = fam.relation(0)
        point = (0.7, 1.1, 0.9, 1.3)
        root = enumerate_roots(rel, point)[0]
        p_field = lambda pt: solve_on_sheet(rel, pt, root.root)
        fd = fd_along(p_field, point, axis=0, h=1e-3)
        assert fd == pytest.approx(-1.0 / root.deriv, rel=1e-6)

    def test_stencil_is_fourth_order_on_sin(self):
        x0 = 0.6
        devs = []
        for h in (1e-1, 1e-2):
            fd = fd_along(lambda pt: math.sin(pt[0]), (x0, 0, 0, 0),
                          axis=0, h=h)
            devs.append(abs(fd - math.cos(x0)))
        ratio = devs[0] / devs[1]
        assert 5e3 <= ratio <= 2e4


class TestCertifySample:
    def test_shock_samples_certify(self):
        fam = build_shock_family([quadratic_shock_def()], simple_shared())
        rel = fam.relation(0)
        worst = 0.0
        for point in halton_cloud(25, seed=21):
            cloud, _ = solve_point(fam, point, BranchPolicy())
            cert = certify_sample(cloud.samples[0], rel, fam, 0)
            assert cert.status == "ok"
            worst = max(worst, cert.max_deviation)
        assert worst <= 1e-6

    def test_near_fold_skipped(self):
        fam = build_shock_family([quadratic_shock_def()], simple_shared())
        rel = fam.relation(0)
        point = (1.0, 1.0, 1.0, 1.0)
        root = enumerate_roots(rel, point)[0]
        fake = type(root)(root=root.root, residual=root.residual,
                          deriv=1e-4, iterations=root.iterations)
        s = fam.sample(0, point, root.root, report=fake)
        cert = certify_sample(s, rel, fam, 0)
        assert cert.status == "near-fold"

    def test_zero_field_all_zero(self):
        # relation p = -x with constant q, r: all cross partials zero
        sdef = ShockSolutionDef(F=sf("p", ("p",)), G=sf("p", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        shared = simple_shared()
        shared = type(shared)(alpha=sf("1", ("t",)), beta=sf("0", ("y",)),
                              delta=sf("0", ("z",)), a=1.0, b=1.0)
        fam = build_shock_family([sdef], shared)
        rel = fam.relation(0)
        point = (0.5, 1.0, 1.0, 1.0)
        root = enumerate_roots(rel, point)[0]
        s = fam.sample(0, point, root.root, report=root)
        assert (s.q, s.r) == (0.0, 0.0)
        cert = certify_sample(s, rel, fam, 0)
        assert cert.status == "ok"
        for name in ("q_x", "q_y", "q_t", "r_x", "r_y", "r_z", "r_t"):
            assert cert.deviations[name] <= 1e-10


def shock_cloud(n, seed=21):
    """One-seed shock family and its solved cloud sample of n points."""
    fam = build_shock_family([quadratic_shock_def()], simple_shared())
    cloud, failure = solve_point(fam, halton_cloud(n, seed=seed),
                                 BranchPolicy())
    assert failure is None
    return fam, cloud.samples[0]


class TestCertifyCloud:
    @pytest.mark.parametrize("name", ["shock_n3", "general_balanced"])
    def test_cloud_matches_lane_by_lane(self, name):
        # 600 samples span three blocks of 256
        sc = load_scenario(Path(__file__).resolve().parent.parent
                           / "scenarios" / f"{name}.json")
        fam = sc.build_family()
        cloud, _ = solve_point(fam, sc.points(count=600, seed=5), sc.policy)
        assert len(cloud.admissible) > 256
        for i, s in enumerate(cloud.samples):
            rel = fam.relation(i)
            cert = certify_sample(s, rel, fam, i)
            lanes = [certify_sample(s.lane(k), rel, fam, i)
                     for k in range(len(cloud.admissible))]
            counts = [sum(getattr(c, f) for c in lanes)
                      for f in ("certified", "near_fold", "holes")]
            assert [cert.certified, cert.near_fold, cert.holes] == counts
            assert cert.max_deviation == max(c.max_deviation for c in lanes)
            for partial in FieldSample.PARTIAL_NAMES:
                assert cert.deviations[partial] == \
                    max(c.deviations[partial] for c in lanes)

    def test_mixed_lanes(self):
        fam, s = shock_cloud(40)
        rel = fam.relation(0)
        deriv = s.report.deriv.copy()
        deriv[[3, 8, 9]] = 1e-4                 # near-fold: skipped
        p = s.p.copy()
        p[[1, 9, 20, 30]] = np.nan              # no on-sheet root: holes
        mixed = dataclasses.replace(
            s, p=p, report=dataclasses.replace(s.report, deriv=deriv))
        cert = certify_sample(mixed, rel, fam, 0)
        assert (cert.certified, cert.near_fold, cert.holes) == (34, 3, 3)
        assert cert.status == "ok"
        assert 0.0 < cert.max_deviation <= 1e-6
        assert cert.max_deviation == max(cert.deviations.values())

        only = [1, 3, 8, 20]                    # two holes, two near-folds
        sub = dataclasses.replace(
            mixed, point=mixed.point[only],
            report=mixed.report.take(only),
            **{f: getattr(mixed, f)[only] for f in
               ("p", "q", "r") + FieldSample.PARTIAL_NAMES})
        cert = certify_sample(sub, rel, fam, 0)
        assert (cert.certified, cert.near_fold, cert.holes) == (0, 2, 2)
        assert cert.status == "hole"
        assert cert.max_deviation == 0.0
        assert certify_sample(sub.lane(1), rel, fam, 0).status == "near-fold"
        assert certify_sample(sub.lane(0), rel, fam, 0).status == "hole"

    @pytest.mark.parametrize("n", [1, 256, 257, 600])
    def test_one_solve_per_block(self, n, monkeypatch):
        fam, s = shock_cloud(n)
        calls = []

        def counting(rel, points, seed):
            calls.append(len(points))
            return solve_on_sheet(rel, points, seed)

        monkeypatch.setattr(fdoracle, "solve_on_sheet", counting)
        cert = certify_sample(s, fam.relation(0), fam, 0)
        assert cert.certified == n
        assert len(calls) == math.ceil(n / 256)
        assert sum(calls) == 16 * n
