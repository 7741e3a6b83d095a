"""Unit tests for the work-sharded scan engine (pool and inline)."""

from unittest import mock

import pytest

from repro.automata.builder import build_tag
from repro.automata.matching import TagMatcher
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.mining.events import EventSequence
from repro.obs import counter_deltas, metrics_snapshot
from repro.parallel import (
    candidate_requirements,
    fork_available,
    parallel_scan,
    resolve_workers,
)


class TestEnvironmentKnobs:
    """How a ``parallel=`` request resolves to a worker count."""

    def test_default_is_serial(self):
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_auto_uses_cpu_count(self):
        with mock.patch("os.cpu_count", return_value=6):
            assert resolve_workers("auto") == 6
        # A request is taken as given, whatever the CPU count.
        with mock.patch("os.cpu_count", return_value=1):
            assert resolve_workers(3) == 3
            assert resolve_workers("3") == 3

    @pytest.mark.parametrize("bad", [0, -2, "0"])
    def test_non_positive_requests_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)

    def test_fork_available_reports_platform_truth(self):
        import multiprocessing

        assert fork_available() == (
            "fork" in multiprocessing.get_all_start_methods()
        )


class TestCandidateRequirements:
    def test_requirements_follow_windows_sorted_by_variable(self):
        assignment = {"R": "r", "B": "b", "A": "a"}
        windows = {"B": (5, 10), "A": (0, 3)}
        assert candidate_requirements(assignment, windows, "R") == (
            ("a", 0, 3),
            ("b", 5, 10),
        )

    def test_root_and_unassigned_variables_are_skipped(self):
        assignment = {"R": "r", "A": "a"}
        windows = {"R": (0, 0), "A": (1, 2), "C": (3, 4)}
        assert candidate_requirements(assignment, windows, "R") == (
            ("a", 1, 2),
        )


def _workload(system):
    """A two-candidate scan problem with a known serial answer."""
    hour = system.get("hour")
    structure = EventStructure(
        ["R", "A"], {("R", "A"): [TCG(0, 1, hour)]}
    )
    sequence = EventSequence(
        [
            ("r", 0),
            ("a", 1800),        # matches candidate a for root 0
            ("r", 40_000),
            ("b", 41_000),      # matches candidate b for root 2
            ("r", 80_000),      # matches nothing
            ("a", 200_000),     # out of every window
        ]
    )
    roots = [0, 2, 4]
    candidates = [{"R": "r", "A": "a"}, {"R": "r", "A": "b"}]
    windows = {"A": (0, 7200)}
    horizon = 7200
    return structure, sequence, roots, candidates, windows, horizon


def _serial_counts(system, structure, sequence, roots, candidates, horizon):
    counts = []
    for assignment in candidates:
        matcher = TagMatcher(
            build_tag(ComplexEventType(structure, assignment), system=system),
            horizon_seconds=horizon,
        )
        counts.append(
            sum(1 for root in roots if matcher.occurs_at(sequence, root))
        )
    return counts


class TestParallelScan:
    @pytest.mark.parametrize("shard_size", ["auto", 1, 2, 5])
    def test_inline_matches_direct_serial_counting(
        self, system, shard_size
    ):
        structure, sequence, roots, candidates, windows, horizon = _workload(
            system
        )
        expected = _serial_counts(
            system, structure, sequence, roots, candidates, horizon
        )
        results, report = parallel_scan(
            sequence,
            system,
            structure,
            candidates,
            windows,
            roots,
            horizon,
            workers=2,
            shard_size=shard_size,
            executor="inline",
        )
        assert [result.hits for result in results] == expected
        assert report["executor"] == "inline"
        # The grid is groups x shards; both candidates share a clock
        # signature, so they bank into one group.
        assert report["batch_groups"] == 1
        assert report["tasks"] == report["shards"]

    def test_anchor_screen_reduces_starts_without_changing_hits(
        self, system
    ):
        structure, sequence, roots, candidates, windows, horizon = _workload(
            system
        )
        screened, _ = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=1, executor="inline", anchor_screen=True,
        )
        unscreened, _ = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=1, executor="inline", anchor_screen=False,
        )
        assert [r.hits for r in screened] == [r.hits for r in unscreened]
        assert sum(r.starts for r in unscreened) == len(roots) * len(
            candidates
        )
        assert sum(r.starts for r in screened) < sum(
            r.starts for r in unscreened
        )

    @pytest.mark.skipif(
        not fork_available(), reason="no fork start method on this platform"
    )
    def test_pool_matches_inline(self, system):
        structure, sequence, roots, candidates, windows, horizon = _workload(
            system
        )
        inline, _ = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=2, shard_size=2, executor="inline",
        )
        pooled, report = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=2, shard_size=2, executor="pool",
        )
        assert [(r.hits, r.starts) for r in pooled] == [
            (r.hits, r.starts) for r in inline
        ]
        assert report["executor"] == "pool"
        assert report["workers"] == 2

    def test_pool_without_fork_falls_back_inline(self, system, obs_on):
        structure, sequence, roots, candidates, windows, horizon = _workload(
            system
        )
        before = metrics_snapshot()
        with mock.patch(
            "repro.parallel.engine.fork_available", return_value=False
        ):
            _, report = parallel_scan(
                sequence, system, structure, candidates, windows, roots,
                horizon, workers=2, executor="pool",
            )
        assert report["executor"] == "inline"
        deltas = counter_deltas(before, metrics_snapshot())
        assert deltas.get("repro_parallel_fallback_total", 0) == 1

    def test_scan_metrics_account_shards_and_tasks(self, system, obs_on):
        structure, sequence, roots, candidates, windows, horizon = _workload(
            system
        )
        before = metrics_snapshot()
        _, report = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=1, shard_size=1, executor="inline",
        )
        deltas = counter_deltas(before, metrics_snapshot())
        assert deltas.get("repro_mine_shards_total") == report["shards"]
        assert deltas.get("repro_parallel_tasks_total") == report["tasks"]
        assert report["shards"] == len(roots)

    def test_no_roots_yields_empty_results_fast(self, system):
        structure, sequence, _, candidates, windows, horizon = _workload(
            system
        )
        results, report = parallel_scan(
            sequence, system, structure, candidates, windows, [],
            horizon, workers=2, executor="inline",
        )
        assert [(r.hits, r.starts) for r in results] == [(0, 0), (0, 0)]
        assert report["shards"] == 0

    def test_merged_tag_counters_match_starts(self, system, obs_on):
        """Pool workers' metric deltas merge back exactly: the global
        run counter moves by precisely the automaton starts."""
        if not fork_available():
            pytest.skip("no fork start method on this platform")
        structure, sequence, roots, candidates, windows, horizon = _workload(
            system
        )
        before = metrics_snapshot()
        results, _ = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=2, shard_size=1, executor="pool",
        )
        deltas = counter_deltas(before, metrics_snapshot())
        starts = sum(result.starts for result in results)
        assert deltas.get("repro_tag_runs_total", 0) == starts
