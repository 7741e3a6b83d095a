"""repro.parallel: the step-5 mining scan, serial or parallel.

Splits the paper's step-5 TAG scan into candidate-group x root-chunk
tasks (:mod:`~repro.parallel.shards`), screens anchors through the
columnar store's posting lists, and runs the tasks in-process or maps
batches of them over a fork-based worker pool that inherits the
parent's columnar view (:mod:`~repro.parallel.engine`), merging results
in plan order.  Serial and parallel runs return bit-identical outcomes;
the ``parallel=`` argument of :func:`~repro.mining.discover` (``repro
mine --parallel``) picks the worker count.  See docs/PERFORMANCE.md.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CandidateResult": "engine",
    "ScanContext": "engine",
    "Shard": "shards",
    "candidate_requirements": "engine",
    "fork_available": "engine",
    "parallel_scan": "engine",
    "plan_shards": "shards",
    "resolve_shard_size": "shards",
    "resolve_workers": "engine",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
