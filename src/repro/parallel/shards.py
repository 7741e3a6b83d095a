"""Root-chunk planning for the step-5 mining scan.

Every scan - serial or parallel - runs the same (candidate group x
shard) task grid.  A shard is a contiguous chunk of the reference
occurrences (roots).  Chunking is sound because every task reads the
sequence's whole columnar view (inherited through fork by pool
workers, shared in-process otherwise), so a run started at a root
reads exactly what it would read alone, and each root is *owned* by
exactly one chunk, so merged hit counts never double-count a match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union


@dataclass(frozen=True)
class Shard:
    """One contiguous chunk of roots (positions into the reduced
    sequence)."""

    index: int
    roots: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.roots)


def resolve_shard_size(
    shard_size: Union[int, str, None],
    n_roots: int,
    workers: int,
    candidates: int = 1,
) -> int:
    """The roots-per-shard knob, floored at one root per shard.

    ``auto``/None with one worker plans one shard, so the grid is one
    task per candidate group.  With several workers it plans
    ``ceil(4 x workers / candidates)`` shards, so that candidates x
    shards make ~4 tasks per worker and stragglers rebalance.  A task
    is a (group, shard) pair, though, and one group banks every
    candidate that shares a clock signature: a frontier of at least
    ``4 x workers`` candidates that fits in one bank plans one shard,
    one task, and runs in-process.  Dividing by the group count
    instead slowed X10's parallel arm on a 2-vCPU host (docs/
    PERFORMANCE.md, "Shard sizing"), so the rule still divides by
    candidates.
    """
    if shard_size in (None, "auto"):
        if workers == 1:
            return max(1, n_roots)
        desired = max(1, -(-workers * 4 // max(1, candidates)))
        return max(1, -(-n_roots // desired))
    size = int(shard_size)
    if size < 1:
        raise ValueError("shard_size must be >= 1 (or 'auto')")
    return size


def plan_shards(roots: Sequence[int], shard_size: int) -> List[Shard]:
    """Partition ``roots`` into contiguous chunks of ``shard_size``."""
    return [
        Shard(index=index, roots=tuple(roots[start:start + shard_size]))
        for index, start in enumerate(range(0, len(roots), shard_size))
    ]
