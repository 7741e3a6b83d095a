"""Unit tests for the time-shard planner and its soundness checks."""

import pytest

from repro.mining.events import EventSequence
from repro.parallel import (
    check_shard_invariants,
    plan_shards,
    resolve_shard_size,
)


def _sequence(times, etype="r"):
    return EventSequence([(etype, t) for t in times])


class TestResolveShardSize:
    def test_auto_aims_at_four_shards_per_worker(self):
        assert resolve_shard_size("auto", 80, workers=2) == 10
        assert resolve_shard_size(None, 80, workers=2) == 10

    def test_auto_floors_at_one_root(self):
        assert resolve_shard_size("auto", 3, workers=8) == 1

    def test_auto_divides_the_shard_count_by_candidates(self):
        # ceil(4 x 2 / 3) = 3 shards of ceil(80 / 3) roots.
        assert resolve_shard_size("auto", 80, workers=2, candidates=3) == 27
        # At 4 x workers candidates or more, one shard holds every root.
        assert resolve_shard_size("auto", 80, workers=2, candidates=8) == 80
        assert resolve_shard_size("auto", 80, workers=2, candidates=720) == 80

    def test_explicit_size_passes_through(self):
        assert resolve_shard_size(7, 100, workers=4) == 7

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_shard_size(bad, 10, workers=1)


class TestPlanShards:
    def test_empty_roots_plan_nothing(self):
        sequence = _sequence([0, 100])
        assert plan_shards(sequence, [], horizon=50) == []

    def test_no_horizon_forces_single_shard(self):
        sequence = _sequence([0, 100, 200, 300])
        shards = plan_shards(
            sequence, [1, 3], horizon=None, shard_size=1
        )
        assert len(shards) == 1
        shard = shards[0]
        assert shard.roots == (1, 3)
        assert shard.event_lo == 1
        assert shard.event_hi == len(sequence)
        assert shard.end_time == 300
        check_shard_invariants(shards, sequence, [1, 3], None)

    def test_partition_and_overlap(self):
        times = [0, 50, 100, 150, 200, 250, 300, 350]
        sequence = _sequence(times)
        roots = list(range(len(times)))
        shards = plan_shards(sequence, roots, horizon=120, shard_size=3)
        assert [shard.roots for shard in shards] == [
            (0, 1, 2),
            (3, 4, 5),
            (6, 7),
        ]
        # Each shard's window extends past its last owned root by the
        # horizon, covering every event a run from that root may read.
        assert shards[0].end_time == 100 + 120
        assert shards[0].event_hi >= 5  # events up to t=220 -> index 4
        check_shard_invariants(shards, sequence, roots, 120)

    def test_boundary_straddling_events_stay_inside_the_slice(self):
        # The companion of the last root in shard 0 lives at the far
        # edge of its horizon (t = root + horizon exactly); the slice
        # must still cover it even though it lies past the next shard's
        # first root.
        sequence = EventSequence(
            [("r", 0), ("r", 100), ("a", 100 + 0), ("r", 500), ("a", 600)]
        )
        shards = plan_shards(
            sequence, [0, 1, 3], horizon=100, shard_size=1
        )
        shard = shards[1]  # owns root at position 1 (t=100)
        assert shard.end_time == 200
        # Position 2 holds the t=100 companion; position 4 (t=600) is
        # out of reach.
        assert shard.event_hi >= 3
        check_shard_invariants(shards, sequence, [0, 1, 3], 100)

    def test_covering_horizon_short_circuits_to_one_shard(self):
        """When the first root's horizon already reaches the last
        event, every shard's slice would span the whole tail anyway:
        the planner short-circuits to one full-coverage shard instead
        of slicing near-identical overlapping windows."""
        sequence = _sequence([0, 100, 200, 300])
        roots = [0, 1, 2, 3]
        shards = plan_shards(sequence, roots, horizon=300, shard_size=1)
        assert len(shards) == 1
        shard = shards[0]
        assert shard.roots == tuple(roots)
        assert shard.event_lo == 0
        assert shard.event_hi == len(sequence)
        assert shard.end_time == 300 + 300
        check_shard_invariants(shards, sequence, roots, 300)

    def test_non_covering_horizon_still_slices(self):
        sequence = _sequence([0, 100, 200, 300])
        roots = [0, 1, 2, 3]
        shards = plan_shards(sequence, roots, horizon=150, shard_size=1)
        assert len(shards) > 1
        check_shard_invariants(shards, sequence, roots, 150)

    def test_invariant_check_catches_a_truncated_slice(self):
        sequence = _sequence([0, 100, 200, 300])
        roots = [0, 1, 2, 3]
        shards = plan_shards(sequence, roots, horizon=150, shard_size=2)
        from dataclasses import replace

        bad = list(shards)
        bad[0] = replace(bad[0], event_hi=bad[0].roots[-1])
        with pytest.raises(AssertionError):
            check_shard_invariants(bad, sequence, roots, 150)

    def test_invariant_check_catches_a_dropped_root(self):
        sequence = _sequence([0, 100, 200, 300])
        roots = [0, 1, 2, 3]
        shards = plan_shards(sequence, roots, horizon=150, shard_size=2)
        with pytest.raises(AssertionError):
            check_shard_invariants(shards[:-1], sequence, roots, 150)

    def test_auto_shard_size_uses_worker_count(self):
        sequence = _sequence(list(range(0, 1600, 10)))
        roots = list(range(160))
        shards = plan_shards(
            sequence, roots, horizon=50, shard_size="auto", workers=4
        )
        # auto aims at ~4 shards per worker.
        assert len(shards) == 16
        check_shard_invariants(shards, sequence, roots, 50)
