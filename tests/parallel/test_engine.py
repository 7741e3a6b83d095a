"""Unit tests for the work-sharded scan engine (pool and in-process)."""

from unittest import mock

import pytest

from repro.automata.builder import build_tag
from repro.automata.matching import TagMatcher
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.mining import EventDiscoveryProblem, discover
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


def _no_fork():
    """The engine's real no-fork path: the grid runs in-process."""
    return mock.patch(
        "repro.parallel.engine.fork_available", return_value=False
    )


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
        with _no_fork():
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
            horizon, workers=1, anchor_screen=True,
        )
        unscreened, _ = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=1, anchor_screen=False,
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
        with _no_fork():
            inline, _ = parallel_scan(
                sequence, system, structure, candidates, windows, roots,
                horizon, workers=2, shard_size=2,
            )
        pooled, report = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=2, shard_size=2,
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
        with _no_fork():
            _, report = parallel_scan(
                sequence, system, structure, candidates, windows, roots,
                horizon, workers=2, shard_size=1,
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
            horizon, workers=1, shard_size=1,
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
            horizon, workers=2,
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
        results, report = parallel_scan(
            sequence, system, structure, candidates, windows, roots,
            horizon, workers=2, shard_size=1,
        )
        deltas = counter_deltas(before, metrics_snapshot())
        starts = sum(result.starts for result in results)
        assert report["executor"] == "pool"
        assert deltas.get("repro_tag_runs_total", 0) == starts


def _discovery(system):
    """A mining problem whose six roots all survive reduction, on a
    sequence the first root's horizon (2 h) covers entirely."""
    hour = system.get("hour")
    structure = EventStructure(["R", "A"], {("R", "A"): [TCG(0, 1, hour)]})
    events = []
    for i in range(6):
        events.append(("r", i * 120))
        events.append(("a" if i % 2 else "b", i * 120 + 60))
    problem = EventDiscoveryProblem(
        structure, 0.2, "r", {"A": frozenset(["a", "b"])}
    )
    return problem, EventSequence(events)


def _scan_deltas(run):
    """``run()`` and the scan counters it moved."""
    before = metrics_snapshot()
    outcome = run()
    deltas = counter_deltas(before, metrics_snapshot())
    return outcome, {
        name: deltas.get(name, 0)
        for name in (
            "repro_mine_shards_total",
            "repro_parallel_tasks_total",
            "repro_tag_batch_runs_total",
        )
    }


class TestSerialPlan:
    """Serial mining runs the task grid with one worker."""

    def test_serial_discover_scans_one_shard_per_group(self, system, obs_on):
        problem, sequence = _discovery(system)
        outcome, deltas = _scan_deltas(
            lambda: discover(problem, sequence, system)
        )
        assert outcome.candidates_evaluated == 2
        assert outcome.parallelism is None
        # Both candidates share a clock signature: one group, one
        # shard, one task and one banked sweep.
        assert deltas == {
            "repro_mine_shards_total": 1,
            "repro_parallel_tasks_total": 1,
            "repro_tag_batch_runs_total": 1,
        }

    @pytest.mark.parametrize("parallel", [None, 1, 2, 3])
    def test_explicit_shard_size_chunks_at_any_worker_count(
        self, system, obs_on, parallel
    ):
        problem, sequence = _discovery(system)
        serial = discover(problem, sequence, system)
        with _no_fork():
            outcome, deltas = _scan_deltas(
                lambda: discover(
                    problem,
                    sequence,
                    system,
                    parallel=parallel,
                    shard_size=4,
                )
            )
        assert outcome == serial
        assert outcome.frequencies == serial.frequencies
        assert outcome.stats.roots_after == 6
        assert deltas["repro_mine_shards_total"] == 2
        assert deltas["repro_tag_batch_runs_total"] == 2

    def test_covering_horizon_still_plans_one_shard_per_root(self, system):
        problem, sequence = _discovery(system)
        with _no_fork():
            outcome = discover(
                problem, sequence, system, parallel=2, shard_size=1
            )
        assert outcome.stats.roots_after == 6
        assert outcome.parallelism["shards"] == 6
        assert outcome.parallelism["tasks"] == 6
        assert outcome == discover(problem, sequence, system)
