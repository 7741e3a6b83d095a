"""The work-sharded mining scan (candidates x time shards -> workers).

The paper's step 5 is embarrassingly parallel once two facts are pinned
down: candidate assignments are independent, and anchored runs are
time-local (a run started at root ``t0`` with horizon ``H`` never reads
past ``t0 + H``).  This module exploits both:

* candidates sharing a clock signature are compiled into one
  :class:`~repro.automata.dense.DenseBatch` in the parent; those
  groups and the planned time shards (:mod:`repro.parallel.shards`)
  form a task grid, and each task scans one shard's owned roots for one
  group in a single banked traversal;
* before any TAG starts, the shard's roots are screened through
  :meth:`~repro.store.columnar.ColumnarEventStore.screen_anchors`
  against each member's propagated windows - the *anchor screen* - so
  only viable anchors pay for an automaton run (the same screen runs in
  the serial engine, which keeps serial and parallel results
  bit-identical);
* contiguous batches of the grid go to a fork-based
  ``ProcessPoolExecutor`` through ``map``.  The parent builds the
  sequence's columnar view before forking, so workers inherit it - the
  int64 columns and posting lists, read copy-on-write and never
  written - together with the compiled groups, the granularity system
  and the warmed conversion cache.  Nothing large is pickled (tasks
  are two-integer tuples).  Each batch returns per-member hit counts
  plus its local observability state: metric counter deltas,
  conversion-cache counter deltas, and serialized spans.  The parent
  merges all three back - counters via :meth:`~repro.obs.metrics.
  MetricsRegistry.merge_counter_deltas`, cache traffic via
  :meth:`~repro.granularity.convcache.ConversionCache.merge_counts`,
  spans by grafting under the open ``mine.scan`` span - so
  process-wide accounting stays exact.

``map`` yields batch results in plan order, whichever worker ran a
batch, and hits are summed per candidate in that order, so a parallel
run's solutions, frequencies and work counters equal the serial run's
exactly, for any worker count or shard size.  A batch that fails
raises in the parent - a worker exception with the worker's traceback
as its ``__cause__``, a dead worker as ``BrokenProcessPool`` - and the
batches not yet started are cancelled.

Without fork, or with one task or one worker, the same task grid runs
in-process, still bit-identical, with no pool overhead.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..automata.builder import build_tag
from ..automata.dense import BatchRuntime, DenseBatch, compile_dense_batch
from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.registry import GranularitySystem
from ..mining.events import EventSequence
from ..obs import (
    Span,
    TraceContext,
    Tracer,
    activate_tracer,
    counter,
    counter_deltas,
    current_context,
    current_tracer,
    gauge,
    global_metrics,
    obs_debug,
    span,
)
from ..store.columnar import Requirement
from .shards import (
    Shard,
    check_shard_invariants,
    plan_shards,
    resolve_shard_size,
)

_SHARDS_TOTAL = counter(
    "repro_mine_shards_total",
    "Time shards planned by the parallel mining engine",
)
_TASKS_TOTAL = counter(
    "repro_parallel_tasks_total",
    "Candidate-group x shard scan tasks executed (pool or inline)",
)
_FALLBACK_TOTAL = counter(
    "repro_parallel_fallback_total",
    "Parallel scans that degraded to the inline executor",
)
_WORKERS_GAUGE = gauge(
    "repro_parallel_workers",
    "Worker processes used by the most recent parallel scan",
)

def resolve_workers(parallel: Union[int, str, None] = None) -> int:
    """Worker count of a ``parallel=`` request.

    None means serial (1), ``"auto"`` one worker per CPU, and an int
    (or its string form) is taken as given; it must be >= 1.
    """
    if parallel is None:
        return 1
    if parallel == "auto":
        return os.cpu_count() or 1
    workers = int(parallel)
    if workers < 1:
        raise ValueError("worker count must be >= 1 (got %r)" % (workers,))
    return workers


def fork_available() -> bool:
    """Can this platform run the fork-based worker pool?"""
    return "fork" in multiprocessing.get_all_start_methods()


def candidate_requirements(
    assignment: Dict[str, str],
    windows: Dict[str, Tuple[int, int]],
    root: str,
) -> Tuple[Requirement, ...]:
    """The anchor-screen requirements of one candidate assignment.

    For each non-root variable with a propagated window ``[lo, hi]``
    (seconds from the root), any match must witness an event of the
    *assigned* type inside the window - the per-candidate sharpening of
    the step-3 any-allowed-type filter.
    """
    return tuple(
        (assignment[variable], lo, hi)
        for variable, (lo, hi) in sorted(windows.items())
        if variable != root and variable in assignment
    )


def compile_groups(
    structure: EventStructure,
    candidates: Sequence[Dict[str, str]],
    system: GranularitySystem,
) -> List[Tuple[Tuple[int, ...], DenseBatch, str]]:
    """The frontier's banks as ``(candidate positions, bank, root symbol)``.

    Candidates are grouped by root symbol first, so every bank anchors
    on one event type, then by clock signature
    (:func:`~repro.automata.dense.compile_dense_batch`).
    """
    builds = [
        build_tag(ComplexEventType(structure, assignment), system=system)
        for assignment in candidates
    ]
    by_symbol: Dict[str, List[int]] = {}
    for position, build in enumerate(builds):
        by_symbol.setdefault(build.root_symbol, []).append(position)
    groups = []
    for symbol, members in by_symbol.items():
        for relative, bank in compile_dense_batch(
            [builds[member].tag for member in members]
        ):
            groups.append(
                (tuple(members[r] for r in relative), bank, symbol)
            )
    return groups


# ----------------------------------------------------------------------
# Worker-side state
# ----------------------------------------------------------------------
@dataclass
class ScanContext:
    """Everything a worker needs, inherited through fork.

    Installed as the module-global :data:`_CTX` in the parent before
    the pool is created; submitted tasks are two-integer tuples indexing
    into ``groups`` and ``shards``.
    """

    sequence: EventSequence
    system: GranularitySystem
    structure: EventStructure
    requirements: List[Tuple[Requirement, ...]]
    shards: List[Shard]
    horizon: Optional[int]
    strict: bool
    trace: bool
    #: Banked candidate groups (:func:`compile_groups`); tasks index
    #: into this list.
    groups: List[Tuple[Tuple[int, ...], DenseBatch, str]]
    #: Identity of the parent's open ``mine.scan`` span: workers build
    #: their tracer from it, so merged spans carry the originating
    #: trace_id and re-parent under the exact span that forked them.
    trace_context: Optional[TraceContext] = None


_CTX: Optional[ScanContext] = None

#: Per-worker runtime memo (one per candidate group touched).  The
#: banked tables themselves arrive through fork; only the thin runtime
#: wrapper (plan lookup, routing index seeds) is per-worker.
_RUNTIMES: Dict[int, BatchRuntime] = {}


def _runtime_for(ctx: ScanContext, group_index: int) -> BatchRuntime:
    runtime = _RUNTIMES.get(group_index)
    if runtime is None:
        _positions, batch, root_symbol = ctx.groups[group_index]
        runtime = BatchRuntime(
            batch,
            ctx.sequence.columnar(),
            root_symbol,
            ctx.structure.root,
            strict=ctx.strict,
            horizon_seconds=ctx.horizon,
        )
        _RUNTIMES[group_index] = runtime
    return runtime


def scan_group(
    runtime: BatchRuntime,
    roots: Sequence[int],
    root_times: Sequence[int],
    requirements: Sequence[Tuple[Requirement, ...]],
) -> List[Tuple[int, int]]:
    """The step-5 scan of one candidate group over ``roots``.

    Each member's roots are screened against its own requirements
    (:meth:`~repro.store.columnar.ColumnarEventStore.viable_positions`),
    then one :meth:`~repro.automata.dense.BatchRuntime.scan_roots`
    traversal advances the whole group.  Returns ``(hits, starts)`` per
    member, where starts counts the roots that survived the screen
    (each starts exactly one automaton run).  The serial engine calls
    this over all roots and each parallel task over one shard's, so
    both count identically.
    """
    view = runtime.store
    viable_lists = [
        view.viable_positions(roots, root_times, member_requirements)
        for member_requirements in requirements
    ]
    matched = runtime.scan_roots(viable_lists)
    return [
        (len(hits), len(viable))
        for hits, viable in zip(matched, viable_lists)
    ]


def _execute_task(
    ctx: ScanContext, group_index: int, shard_index: int
) -> List[Tuple[int, int, int, int]]:
    """One task: :func:`scan_group` over one shard's owned roots.

    Returns one ``(candidate, shard, hits, starts)`` entry per member.
    """
    members, _batch, _root_symbol = ctx.groups[group_index]
    roots = ctx.shards[shard_index].roots
    root_times = [ctx.sequence[root].time for root in roots]
    counts = scan_group(
        _runtime_for(ctx, group_index),
        roots,
        root_times,
        [ctx.requirements[candidate] for candidate in members],
    )
    return [
        (candidate, shard_index, hits, starts)
        for candidate, (hits, starts) in zip(members, counts)
    ]


def _pool_batch(batch: Sequence[Tuple[int, int]]) -> Dict[str, object]:
    """Worker entry point: run a contiguous slice of the task grid.

    Batching keeps IPC and bookkeeping off the per-task path: the
    observability state (metric counter deltas, cache counter deltas,
    serialized spans) is captured once around the whole batch, and one
    result dict crosses the pipe per batch instead of per task.
    """
    ctx = _CTX
    if ctx is None:  # pragma: no cover - defensive
        raise RuntimeError(
            "worker scan context missing (fork inheritance failed)"
        )
    registry = global_metrics()
    before = registry.snapshot()
    cache = ctx.system.conversion_cache
    cache_before = cache.snapshot()
    tracer = Tracer(parent=ctx.trace_context) if ctx.trace else None
    results: List[Tuple[int, int, int, int]] = []

    def run_tasks() -> None:
        for group, shard in batch:
            with span(
                "mine.worker", pid=os.getpid(), group=group, shard=shard
            ) as worker_span:
                entries = _execute_task(ctx, group, shard)
                worker_span.set(
                    hits=sum(entry[2] for entry in entries),
                    starts=sum(entry[3] for entry in entries),
                )
            results.extend(entries)

    if tracer is not None:
        with activate_tracer(tracer):
            run_tasks()
    else:
        run_tasks()
    cache_after = cache.snapshot()
    return {
        "results": results,
        "counter_deltas": counter_deltas(before, registry.snapshot()),
        "cache_deltas": {
            "hits": cache_after.hits - cache_before.hits,
            "misses": cache_after.misses - cache_before.misses,
            "evictions": cache_after.evictions - cache_before.evictions,
        },
        "spans": [root.to_dict() for root in tracer.roots] if tracer else [],
    }


def _inline_batch(batch: Sequence[Tuple[int, int]]) -> Dict[str, object]:
    """:func:`_pool_batch` run in the parent (one worker or task, or
    no fork).

    Counters hit the parent registry directly and spans nest under the
    already-active tracer, so nothing is captured for merging.
    """
    results: List[Tuple[int, int, int, int]] = []
    for group, shard in batch:
        with span(
            "mine.worker",
            pid=os.getpid(),
            group=group,
            shard=shard,
            inline=True,
        ) as worker_span:
            entries = _execute_task(_CTX, group, shard)
            worker_span.set(
                hits=sum(entry[2] for entry in entries),
                starts=sum(entry[3] for entry in entries),
            )
        results.extend(entries)
    return {
        "results": results,
        "counter_deltas": {},
        "cache_deltas": {},
        "spans": [],
    }


def _plan_batches(
    tasks: Sequence[Tuple[int, int]], workers: int
) -> List[List[Tuple[int, int]]]:
    """Contiguous batches of the task grid, ~4 per worker.

    Contiguity keeps each batch on few distinct groups (the worker's
    runtime memo stays hot within it); ~4 batches per worker rebalances
    stragglers, since an idle worker takes the next batch, without
    per-task IPC.
    """
    target = max(1, -(-len(tasks) // max(1, workers * 4)))
    return [
        list(tasks[start:start + target])
        for start in range(0, len(tasks), target)
    ]


# ----------------------------------------------------------------------
# Orchestration (parent side)
# ----------------------------------------------------------------------
@dataclass
class CandidateResult:
    """Merged scan outcome of one candidate (shard sums, task order)."""

    assignment: Dict[str, str]
    hits: int = 0
    starts: int = 0


def parallel_scan(
    sequence: EventSequence,
    system: GranularitySystem,
    structure: EventStructure,
    candidates: Sequence[Dict[str, str]],
    windows: Dict[str, Tuple[int, int]],
    roots: Sequence[int],
    horizon: Optional[int],
    strict: bool = False,
    workers: int = 1,
    shard_size: Union[int, str, None] = "auto",
    anchor_screen: bool = True,
) -> Tuple[List[CandidateResult], Dict[str, object]]:
    """Scan every candidate over every shard; merge deterministically.

    Returns per-candidate results in candidate order plus a report dict
    (workers, shards, tasks, executor mode) the caller can surface.
    The grid runs on a fork pool when there are several workers and
    several tasks, and in-process otherwise.
    """
    global _CTX, _RUNTIMES
    requirements = [
        candidate_requirements(assignment, windows, structure.root)
        if anchor_screen
        else ()
        for assignment in candidates
    ]
    # Compile the frontier into banked tables once, in the parent;
    # workers inherit the compiled groups through fork and share one
    # traversal per (group, shard) task.
    groups = compile_groups(structure, candidates, system)
    shards = plan_shards(
        sequence,
        list(roots),
        horizon,
        shard_size=resolve_shard_size(
            shard_size, len(roots), workers, len(candidates)
        ),
    )
    if obs_debug():
        check_shard_invariants(shards, sequence, list(roots), horizon)
    tasks = [
        (group_index, shard.index)
        for group_index in range(len(groups))
        for shard in shards
    ]
    mode = "pool" if workers > 1 and len(tasks) > 1 else "inline"
    if mode == "pool" and not fork_available():
        mode = "inline"
        _FALLBACK_TOTAL.inc()
    workers_used = max(1, min(workers, len(tasks))) if mode == "pool" else 1
    _SHARDS_TOTAL.add(len(shards))
    _TASKS_TOTAL.add(len(tasks))
    _WORKERS_GAUGE.set(workers_used)

    # Build the columnar view (and its posting lists) once, before any
    # fork: pool workers read the inherited view instead of each
    # building their own.
    sequence.columnar()
    ctx = ScanContext(
        sequence=sequence,
        system=system,
        structure=structure,
        requirements=requirements,
        shards=shards,
        horizon=horizon,
        strict=strict,
        trace=current_tracer() is not None,
        trace_context=current_context(),
        groups=groups,
    )
    batches = _plan_batches(tasks, workers_used)
    _CTX = ctx
    _RUNTIMES = {}
    try:
        if mode == "pool":
            pool = ProcessPoolExecutor(
                max_workers=workers_used,
                mp_context=multiprocessing.get_context("fork"),
            )
            try:
                raw = list(pool.map(_pool_batch, batches))
            finally:
                # After a failed batch, drop the batches not yet
                # started, so the error surfaces without the rest of
                # the grid running first.
                pool.shutdown(cancel_futures=True)
        else:
            raw = [_inline_batch(batch) for batch in batches]
    finally:
        _CTX = None
        _RUNTIMES = {}

    results = [
        CandidateResult(assignment=assignment) for assignment in candidates
    ]
    merged_counters: Dict[str, float] = {}
    cache_hits = cache_misses = cache_evictions = 0
    tracer = current_tracer()
    for record in raw:  # plan order, whichever worker ran the batch
        for candidate_index, _shard, hits, starts in record["results"]:
            result = results[candidate_index]
            result.hits += hits
            result.starts += starts
        for sample, delta in record["counter_deltas"].items():
            merged_counters[sample] = merged_counters.get(sample, 0) + delta
        deltas = record["cache_deltas"]
        cache_hits += deltas.get("hits", 0)
        cache_misses += deltas.get("misses", 0)
        cache_evictions += deltas.get("evictions", 0)
        if tracer is not None:
            for payload in record["spans"]:
                tracer.attach(Span.from_dict(payload))
    if merged_counters:
        global_metrics().merge_counter_deltas(merged_counters)
    if cache_hits or cache_misses or cache_evictions:
        system.conversion_cache.merge_counts(
            hits=cache_hits, misses=cache_misses, evictions=cache_evictions
        )
    report = {
        "workers": workers_used,
        "shards": len(shards),
        "tasks": len(tasks),
        "executor": mode,
        "batch_groups": len(groups),
    }
    return results, report
