"""Unit tests for the benchmark's own arithmetic.

    python3 -m pytest ghebench -q
"""

import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (covered_length, extend_cover,  # noqa: E402
                     import_seconds, median, nearest_rank, parse_importtime,
                     point_seeds, self_time, tail_percentile)
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, Invocation, ScenarioInfo,  # noqa: E402
                       invocation_size)


class TestOrderStatistics:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_median_of_nothing_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 50) == (50, 50.0)
        assert nearest_rank(values, 90) == (90, 90.0)
        assert nearest_rank(values, 99.9) == (100, 100.0)

    def test_tail_needs_ten_samples_beyond(self):
        # 19 samples: p50 is rank 10 with only 9 beyond it.
        assert tail_percentile(range(19)) is None
        # 20 samples: p50 is rank 10 with 10 beyond; p75 has 5 beyond.
        assert tail_percentile(range(20)) == (50.0, 9.0, 10)

    def test_tail_picks_highest_qualifying_percentile(self):
        values = list(range(1, 101))
        # p90 has 10 beyond, p95 only 5.
        assert tail_percentile(values) == (90.0, 90.0, 10)
        values = list(range(1, 1001))
        # p99 has 10 beyond, p99.9 only 1.
        assert tail_percentile(values) == (99.0, 990.0, 10)


class TestPointSeeds:
    def test_sums_points_times_seeds(self):
        assert point_seeds([(20000, 3), (20000, 2)]) == 100000
        assert point_seeds([]) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            point_seeds([(-1, 2)])

    def test_shipped_size_when_points_omitted(self):
        info = ScenarioInfo(name="s", seeds=3, count=400, expect="satisfy")
        assert invocation_size(Invocation("verify", "s", None), info) \
            == (400, 3)
        assert invocation_size(Invocation("verify", "s", 2000), info) \
            == (2000, 3)

    def test_cloud_large_pass_size(self):
        infos = {"shock_n3": ScenarioInfo("shock_n3", 3, 400, "satisfy"),
                 "general_balanced": ScenarioInfo("general_balanced", 2, 400,
                                                  "satisfy")}
        sizes = [invocation_size(inv, infos[inv.scenario])
                 for inv in WORKLOADS["cloud_large"]]
        assert point_seeds(sizes) == 20000 * 3 + 20000 * 2


class TestSelfTime:
    def test_disjoint_children(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == 6.0

    def test_overlapping_children_count_once(self):
        assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0)]) == 5.0

    def test_children_clipped_to_parent(self):
        assert self_time(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0)]) == 4.0

    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == 3.0

    def test_covered_length_of_nested(self):
        assert covered_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0

    def test_online_cover_matches_union(self):
        rng = random.Random(7)
        for _ in range(200):
            ivs = sorted((s, s + rng.uniform(0.0, 3.0))
                         for s in (rng.uniform(0.0, 20.0) for _ in range(8)))
            cover = [0.0, 0.0]
            for start, end in ivs:
                extend_cover(cover, start, end)
            assert cover[0] == pytest.approx(covered_length(ivs))

    def test_tracer_self_time_excludes_children(self, monkeypatch):
        clock = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
        tr = Tracer()
        child = tr.span("child", lambda: None)

        def parent_fn():
            child()
            child()

        tr.span("parent", parent_fn)()
        # parent [0, 10], children [1, 3] and [4, 7]
        assert tr.spans["parent"][:3] == [1, 10.0, 5.0]
        assert tr.spans["child"][:3] == [2, 5.0, 5.0]

    def test_group_counts_outermost_span_only(self):
        tr = Tracer()
        inner = tr.span("inner", lambda: None, group="g")
        outer = tr.span("outer", inner, group="g")
        outer()
        assert tr.groups["g"][0] == 0
        assert tr.groups["g"][1] == pytest.approx(tr.spans["outer"][1])


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   encodings
import time:      1500 |       1500 |     numpy.core
import time:      2000 |       3500 |   numpy
import time:       500 |       4000 | heavenly
import time:       300 |        300 |     scipy
import time:      1000 |       1300 |   scipy.stats
import time:       200 |       1500 | heavenly.cliapp
"""


class TestImportTime:
    def test_tree_and_prefix_sums(self):
        roots = parse_importtime(IMPORTTIME)
        assert [name for name, _c, _k in roots] == ["heavenly",
                                                    "heavenly.cliapp"]
        assert import_seconds(roots, "heavenly") == pytest.approx(0.0055)
        assert import_seconds(roots, "numpy") == pytest.approx(0.0035)
        # scipy.stats already includes its nested scipy entry
        assert import_seconds(roots, "scipy") == pytest.approx(0.0013)
        assert import_seconds(roots, "jax") == 0.0
