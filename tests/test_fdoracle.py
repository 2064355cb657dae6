from pathlib import Path

import numpy as np
import pytest

from _families import (
    halton_cloud,
    quadratic_shock_def,
    sf,
    simple_shared,
    take_lanes,
)
from heavenly import fdoracle
from heavenly.calculus import FieldSample
from heavenly.cliapp import load_scenario
from heavenly.fdoracle import certify_sample
from heavenly.implicitsolve import BranchPolicy, enumerate_roots, \
    solve_on_sheet
from heavenly.registry import ShockFamily, ShockSolutionDef
from heavenly.superpose import solve_point, superpose


class TestFdPartial:
    def test_continued_branch_matches_formula(self):
        # F = p^2/2, G = p: p = -x/(S+1), so dp/dx = -1/(S+1); the point
        # moved STEP along the imaginary x direction is solved on the sheet
        # of the root, and Im p / STEP is that partial
        fam = ShockFamily([quadratic_shock_def()], simple_shared())
        rel = fam.relation(0)
        point = np.array([0.7, 1.1, 0.9, 1.3])
        root = enumerate_roots(rel, point)[0]
        S = point[1:].sum()
        assert root.root == pytest.approx(-point[0] / (S + 1.0), rel=1e-12)
        p = solve_on_sheet(rel, point + [1j * fdoracle.STEP, 0, 0, 0],
                           root.root, root.deriv)
        assert p.real == root.root
        assert p.imag / fdoracle.STEP == pytest.approx(-1.0 / (S + 1.0),
                                                       rel=1e-15)


class TestCertifySample:
    def test_shock_samples_certify(self):
        fam = ShockFamily([quadratic_shock_def()], simple_shared())
        worst = 0.0
        for point in halton_cloud(25, seed=21):
            cloud, _ = solve_point(fam, point, BranchPolicy())
            cert = certify_sample(cloud.samples[0], fam, 0)
            assert cert.status == "ok"
            worst = max(worst, max(cert.deviations.values()))
        assert worst <= 1e-6

    def test_zero_field_all_zero(self):
        # relation p = -x with constant q, r: all cross partials zero
        sdef = ShockSolutionDef(F=sf("p", ("p",)), G=sf("p", ("p",)),
                                m=sf("0", ("y",)), n=sf("0", ("z",)))
        shared = simple_shared()
        shared = type(shared)(alpha=sf("1", ("t",)), beta=sf("0", ("y",)),
                              delta=sf("0", ("z",)), a=1.0, b=1.0)
        fam = ShockFamily([sdef], shared)
        rel = fam.relation(0)
        point = (0.5, 1.0, 1.0, 1.0)
        root = enumerate_roots(rel, point)[0]
        s = fam.sample(0, point, root.root, root.deriv)
        assert (s.q, s.r) == (0.0, 0.0)
        cert = certify_sample(s, fam, 0)
        assert cert.status == "ok"
        for name in ("q_x", "q_y", "q_t", "r_x", "r_y", "r_z", "r_t"):
            assert cert.deviations[name] <= 1e-10


def shock_cloud(n, seed=21):
    """One-seed shock family and its solved cloud sample of n points."""
    fam = ShockFamily([quadratic_shock_def()], simple_shared())
    cloud, failure = solve_point(fam, halton_cloud(n, seed=seed),
                                 BranchPolicy())
    assert failure is None
    return fam, cloud.samples[0]


class TestCertifyCloud:
    @pytest.mark.parametrize("name", ["shock_n3", "general_balanced"])
    def test_cloud_matches_lane_by_lane(self, name):
        # a lane's partials do not depend on the other lanes of its solve
        sc = load_scenario(Path(__file__).resolve().parent.parent
                           / "scenarios" / f"{name}.json")
        fam = sc.build_family()
        cloud, _ = solve_point(fam, sc.points(count=600, seed=5), sc.policy)
        assert len(cloud.admissible) > 256
        for i, s in enumerate(cloud.samples):
            cert = certify_sample(s, fam, i)
            lanes = [certify_sample(take_lanes(s, [k]), fam, i)
                     for k in range(len(cloud.admissible))]
            counts = [sum(getattr(c, f) for c in lanes)
                      for f in ("certified", "holes")]
            assert [cert.certified, cert.holes] == counts
            for partial in FieldSample.PARTIAL_NAMES:
                assert cert.deviations[partial] == \
                    max(c.deviations[partial] for c in lanes)

    def test_mixed_lanes(self):
        fam, s = shock_cloud(40)
        p = s.p.copy()
        p[[1, 9, 20, 30]] = np.nan              # no on-sheet root: holes
        mixed = s.replace(p=p)
        cert = certify_sample(mixed, fam, 0)
        assert (cert.certified, cert.holes) == (36, 4)
        assert cert.certified + cert.holes == len(p)
        assert cert.status == "ok"
        assert 0.0 < max(cert.deviations.values()) <= 1e-6

        sub = take_lanes(mixed, [1, 3, 20])     # two holes, one good lane
        cert = certify_sample(sub, fam, 0)
        assert (cert.certified, cert.holes) == (1, 2)
        assert cert.status == "ok"
        cert = certify_sample(take_lanes(sub, [0, 2]), fam, 0)
        assert (cert.certified, cert.holes) == (0, 2)
        assert cert.status == "hole"
        assert max(cert.deviations.values()) == 0.0
        for k, status in ((1, "ok"), (0, "hole")):
            assert certify_sample(take_lanes(sub, [k]), fam, 0).status \
                == status

    def test_sample_without_Phi_p_refused(self):
        # a superposed sample keeps no dPhi/dp for the oracle's solve
        fam, s = shock_cloud(5)
        cert = certify_sample(s, fam, 0)
        assert cert.certified == 5
        with pytest.raises(ValueError, match="Phi_p"):
            certify_sample(superpose([s], [2.0]), fam, 0)
        with pytest.raises(ValueError, match="Phi_p"):
            certify_sample(s.replace(Phi_p=None), fam, 0)
        assert certify_sample(s, fam, 0) == cert

    def test_no_lane_gives_an_empty_report(self):
        # a slice with no admissible point
        fam, s = shock_cloud(5)
        cert = certify_sample(take_lanes(s, []), fam, 0)
        assert cert == fdoracle.CertReport(
            0, 0, dict.fromkeys(FieldSample.PARTIAL_NAMES, 0.0))

    @pytest.mark.parametrize("n", [1, 256, 257, 600])
    def test_one_solve_per_block(self, n, monkeypatch):
        # the block of samples certify_sample is given takes one solve per
        # axis, of all its lanes at once
        fam, s = shock_cloud(n)
        calls = []

        def counting(rel, points, seed, d):
            calls.append(len(points))
            return solve_on_sheet(rel, points, seed, d)

        monkeypatch.setattr(fdoracle, "solve_on_sheet", counting)
        cert = certify_sample(s, fam, 0)
        assert cert.certified == n
        assert calls == [n] * len(fdoracle.AXES)
