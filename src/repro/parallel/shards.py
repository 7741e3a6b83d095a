"""Time-shard planning for the parallel mining scan.

The mining scan is anchored: every TAG run starts at a reference
occurrence and, given a finite propagated horizon ``H``, never reads an
event later than ``anchor_time + H``.  That locality is what makes
sharding sound:

* the reference occurrences (roots) are partitioned into contiguous
  chunks - each root is *owned* by exactly one shard, so merged
  hit counts never double-count a match;
* each shard's event window extends past its last owned root by the
  horizon (the overlap), so every run started at an owned root
  completes entirely inside the shard's window - no match straddling
  a shard boundary is lost.

Without a finite horizon no overlap bound exists and the planner
returns a single shard.  The scan then parallelises only across
candidate groups (banks of candidates sharing a clock signature), and a
frontier that fits in one bank runs in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..mining.events import EventSequence


@dataclass(frozen=True)
class Shard:
    """One planned unit of anchored scanning work.

    ``roots`` are positions into the *full* (reduced) sequence;
    ``event_lo``/``event_hi`` bound the positions a scan from any owned
    root may read (the half-open slice a worker needs when events are
    shipped rather than shared).  ``end_time`` includes the horizon
    overlap.
    """

    index: int
    roots: Tuple[int, ...]
    event_lo: int
    event_hi: int
    start_time: int
    end_time: int

    def __len__(self) -> int:
        return len(self.roots)


def resolve_shard_size(
    shard_size: Union[int, str, None],
    n_roots: int,
    workers: int,
    candidates: int = 1,
) -> int:
    """The roots-per-shard knob, floored at one root per shard.

    ``auto``/None plans ``ceil(4 x workers / candidates)`` shards, so
    that candidates x shards make ~4 tasks per worker and stragglers
    rebalance.  A task is a (group, shard) pair, though, and one group
    banks every candidate that shares a clock signature: a frontier of
    at least ``4 x workers`` candidates that fits in one bank plans one
    shard, one task, and runs in-process.  Dividing by the group count
    instead slowed X10's parallel arm on a 2-vCPU host (docs/
    PERFORMANCE.md, "Shard sizing"), so the rule still divides by
    candidates.
    """
    if shard_size in (None, "auto"):
        desired = max(1, -(-workers * 4 // max(1, candidates)))
        return max(1, -(-n_roots // desired))
    size = int(shard_size)
    if size < 1:
        raise ValueError("shard_size must be >= 1 (or 'auto')")
    return size


def plan_shards(
    sequence: EventSequence,
    roots: Sequence[int],
    horizon: Optional[int],
    shard_size: Union[int, str, None] = "auto",
    workers: int = 1,
) -> List[Shard]:
    """Partition ``roots`` into overlapping time shards.

    ``horizon`` is the propagated root-to-anything bound in seconds
    (None = unbounded, which forces a single shard covering the whole
    suffix of the sequence).
    """
    if not roots:
        return []
    if horizon is None:
        first = roots[0]
        return [
            Shard(
                index=0,
                roots=tuple(roots),
                event_lo=first,
                event_hi=len(sequence),
                start_time=sequence[first].time,
                end_time=sequence[len(sequence) - 1].time,
            )
        ]
    last_event_time = sequence[len(sequence) - 1].time
    if sequence[roots[0]].time + horizon >= last_event_time:
        # Degenerate horizon: the window of even the *first* root
        # already reaches the end of the sequence, so every chunk's
        # overlap would cover the whole suffix and time-sharding buys
        # nothing.  Short-circuit to one shard instead of planning N
        # fully-overlapping shards (or one shard dressed with a bogus
        # overlap computation past the last event).
        first = roots[0]
        return [
            Shard(
                index=0,
                roots=tuple(roots),
                event_lo=first,
                event_hi=len(sequence),
                start_time=sequence[first].time,
                end_time=sequence[roots[-1]].time + horizon,
            )
        ]
    size = resolve_shard_size(shard_size, len(roots), workers)
    shards: List[Shard] = []
    for start in range(0, len(roots), size):
        chunk = tuple(roots[start:start + size])
        first_time = sequence[chunk[0]].time
        last_time = sequence[chunk[-1]].time
        end_time = last_time + horizon
        # Position one past the last event a run from any owned root
        # may consume (the matcher stops at the first event beyond its
        # per-root deadline, and every per-root deadline <= end_time).
        event_hi = sequence.last_index_at_or_before(end_time)
        shards.append(
            Shard(
                index=len(shards),
                roots=chunk,
                event_lo=chunk[0],
                event_hi=max(event_hi, chunk[-1] + 1),
                start_time=first_time,
                end_time=end_time,
            )
        )
    return shards


def check_shard_invariants(
    shards: Sequence[Shard],
    sequence: EventSequence,
    roots: Sequence[int],
    horizon: Optional[int],
) -> None:
    """Soundness checks on a plan (run under ``REPRO_OBS=debug``).

    Raises AssertionError when the plan could lose or double-count a
    match: roots not partitioned in order, or an owned root whose
    horizon window escapes its shard's event slice.
    """
    flattened = [r for shard in shards for r in shard.roots]
    assert flattened == list(roots), "shards must partition roots in order"
    for shard in shards:
        assert shard.roots, "empty shard planned"
        assert shard.event_lo == shard.roots[0]
        assert shard.event_hi <= len(sequence)
        for root in shard.roots:
            assert shard.event_lo <= root < shard.event_hi, (
                "owned root outside its shard's event slice"
            )
            if horizon is not None:
                deadline = sequence[root].time + horizon
                assert deadline <= shard.end_time, (
                    "root deadline escapes the shard overlap"
                )
                # Every event at or before the deadline is inside the
                # slice a worker would receive.
                covered = sequence.last_index_at_or_before(deadline)
                assert covered <= shard.event_hi, (
                    "shard slice misses in-horizon events"
                )
