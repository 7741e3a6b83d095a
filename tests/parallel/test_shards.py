"""Unit tests for the root-chunk shard planner."""

import pytest

from repro.parallel import Shard, plan_shards, resolve_shard_size


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

    def test_auto_with_one_worker_takes_every_root(self):
        assert resolve_shard_size("auto", 80, workers=1) == 80
        assert resolve_shard_size(None, 80, workers=1, candidates=3) == 80
        assert resolve_shard_size("auto", 0, workers=1) == 1

    def test_explicit_size_passes_through(self):
        assert resolve_shard_size(7, 100, workers=4) == 7

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_shard_size(bad, 10, workers=1)


class TestPlanShards:
    def test_empty_roots_plan_nothing(self):
        assert plan_shards([], 1) == []

    def test_partition_into_contiguous_chunks(self):
        roots = [0, 2, 3, 5, 6, 7, 9, 11]
        shards = plan_shards(roots, 3)
        assert [shard.roots for shard in shards] == [
            (0, 2, 3),
            (5, 6, 7),
            (9, 11),
        ]
        assert [shard.index for shard in shards] == [0, 1, 2]
        assert [len(shard) for shard in shards] == [3, 3, 2]

    def test_auto_shard_size_uses_worker_count(self):
        roots = list(range(160))
        shards = plan_shards(roots, resolve_shard_size("auto", 160, 4))
        # auto aims at ~4 shards per worker.
        assert len(shards) == 16
        # One worker plans one shard: a serial scan is one task per
        # candidate group.
        assert plan_shards(roots, resolve_shard_size("auto", 160, 1)) == [
            Shard(index=0, roots=tuple(roots))
        ]
