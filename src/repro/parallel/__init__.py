"""repro.parallel: the work-sharded mining/matching engine.

Splits the paper's step-5 TAG scan into candidate-group x time-shard
tasks (:mod:`~repro.parallel.shards`), screens anchors through the
columnar store's posting lists, and fans the tasks to a fork-based
worker pool with deterministic merging (:mod:`~repro.parallel.engine`).  Serial and
parallel runs return bit-identical outcomes; the ``parallel=`` argument
of :func:`~repro.mining.discover` (``repro mine --parallel``) picks the
worker count.  See docs/PERFORMANCE.md.
"""

from .engine import (
    CandidateResult,
    ScanContext,
    candidate_requirements,
    fork_available,
    parallel_scan,
    resolve_workers,
)
from .shards import (
    Shard,
    check_shard_invariants,
    plan_shards,
    resolve_shard_size,
)
from .stealing import StealScheduler

__all__ = [
    "CandidateResult",
    "ScanContext",
    "Shard",
    "StealScheduler",
    "candidate_requirements",
    "check_shard_invariants",
    "fork_available",
    "parallel_scan",
    "plan_shards",
    "resolve_shard_size",
    "resolve_workers",
]
