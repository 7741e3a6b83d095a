"""The step-5 mining scan: candidate groups x root chunks -> tasks.

The paper's step 5 is embarrassingly parallel once two facts are pinned
down: candidate assignments are independent, and a run anchored at one
root never depends on runs anchored at another.  This module runs
the scan, serial or parallel, as one task grid:

* candidates sharing a root symbol and a clock signature are compiled
  into one :class:`~repro.automata.dense.DenseBatch`
  (:func:`compile_groups`); those groups and the planned root chunks
  (:mod:`repro.parallel.shards`) form a task grid, and each task scans
  one chunk's roots for one group in a single banked traversal
  (:func:`scan_group`);
* before any TAG starts, the chunk's roots are screened through
  :meth:`~repro.store.columnar.ColumnarEventStore.viable_position_sets`
  against each member's propagated windows - the *anchor screen* - so
  only viable anchors pay for an automaton run;
* a serial scan (one worker) plans one chunk, so its grid is one task
  per group, and runs it in-process, as does any grid of one task or
  any platform without fork;
* otherwise contiguous batches of the grid go to a fork-based
  ``ProcessPoolExecutor`` through ``map``.  The parent builds the
  sequence's columnar view before forking, so workers inherit it - the
  columns and posting lists, read copy-on-write and never
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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..automata.builder import TagBuild, build_tag
from ..automata.dense import BatchRuntime, DenseBatch, compile_dense_batch
from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.registry import GranularitySystem
from ..mining.events import EventSequence
from ..mining.pruning import candidate_requirements
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
    span,
)
from ..store.columnar import Requirement
from .shards import Shard, plan_shards, resolve_shard_size

_SHARDS_TOTAL = counter(
    "repro_mine_shards_total",
    "Root chunks (shards) planned by the mining scan",
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
    "Worker processes used by the most recent mining scan",
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
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def compile_groups(
    builds: Sequence[TagBuild],
) -> List[Tuple[Tuple[int, ...], DenseBatch, str]]:
    """The frontier's banks as ``(build positions, bank, root symbol)``.

    Builds are grouped by root symbol first, so every bank anchors on
    one event type, then by clock signature
    (:func:`~repro.automata.dense.compile_dense_batch`).
    """
    by_symbol: Dict[str, List[int]] = {}
    for position, build in enumerate(builds):
        by_symbol.setdefault(build.root_symbol, []).append(position)
    groups = []
    for symbol, members in by_symbol.items():
        for relative, bank in compile_dense_batch(
            [builds[member].dense for member in members]
        ):
            groups.append(
                (tuple(members[r] for r in relative), bank, symbol)
            )
    return groups


# ----------------------------------------------------------------------
# Task execution
# ----------------------------------------------------------------------
@dataclass
class ScanContext:
    """Everything a task needs; pool workers inherit it through fork.

    Tasks are two-integer tuples indexing into ``groups`` and
    ``shards``.
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


#: The pool's scan context, installed in the parent just before the
#: fork and cleared after the pool shuts down.  The in-process
#: executor never reads it.
_CTX: Optional[ScanContext] = None

#: A pool worker's runtime memo (one per candidate group touched).  The
#: banked tables themselves arrive through fork; only the thin runtime
#: wrapper (plan lookup, routing index seeds) is per-worker.
_RUNTIMES: Dict[int, BatchRuntime] = {}


def scan_group(
    runtime: BatchRuntime,
    roots: Sequence[int],
    root_times: Sequence[int],
    requirements: Sequence[Tuple[Requirement, ...]],
) -> List[Tuple[int, int]]:
    """The step-5 scan of one candidate group over ``roots``.

    Each member's roots are screened against its own requirements
    (:meth:`~repro.store.columnar.ColumnarEventStore.viable_position_sets`,
    which evaluates each distinct requirement once for the whole group:
    the members of a frontier share most of theirs), then one
    :meth:`~repro.automata.dense.BatchRuntime.scan_roots` traversal
    advances the whole group.  Returns ``(hits, starts)`` per member,
    where starts counts the roots that survived the screen (each starts
    exactly one automaton run).
    """
    viable_lists = runtime.store.viable_position_sets(
        roots, root_times, requirements
    )
    matched = runtime.scan_roots(viable_lists)
    return [
        (len(hits), len(viable))
        for hits, viable in zip(matched, viable_lists)
    ]


def _execute_task(
    ctx: ScanContext,
    runtimes: Dict[int, BatchRuntime],
    group_index: int,
    shard_index: int,
) -> List[Tuple[int, int, int]]:
    """One task: :func:`scan_group` over one shard's roots.

    ``runtimes`` memoises one runtime per group across the caller's
    tasks.  Returns one ``(candidate, hits, starts)`` entry per member.
    """
    members, batch, root_symbol = ctx.groups[group_index]
    runtime = runtimes.get(group_index)
    if runtime is None:
        runtime = runtimes[group_index] = BatchRuntime(
            batch,
            ctx.sequence.columnar(),
            root_symbol,
            ctx.structure.root,
            strict=ctx.strict,
            horizon_seconds=ctx.horizon,
        )
    roots = ctx.shards[shard_index].roots
    counts = scan_group(
        runtime,
        roots,
        list(map(ctx.sequence.time_at, roots)),
        [ctx.requirements[candidate] for candidate in members],
    )
    return [
        (candidate, hits, starts)
        for candidate, (hits, starts) in zip(members, counts)
    ]


def _run_tasks(
    ctx: ScanContext,
    runtimes: Dict[int, BatchRuntime],
    tasks: Sequence[Tuple[int, int]],
    **attributes: object,
) -> List[Tuple[int, int, int]]:
    """Run ``tasks`` in order, each under one ``mine.worker`` span."""
    results: List[Tuple[int, int, int]] = []
    for group, shard in tasks:
        with span(
            "mine.worker",
            pid=os.getpid(),
            group=group,
            shard=shard,
            **attributes,
        ) as worker_span:
            entries = _execute_task(ctx, runtimes, group, shard)
            worker_span.set(
                hits=sum(entry[1] for entry in entries),
                starts=sum(entry[2] for entry in entries),
            )
        results.extend(entries)
    return results


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
    if tracer is not None:
        with activate_tracer(tracer):
            results = _run_tasks(ctx, _RUNTIMES, batch)
    else:
        results = _run_tasks(ctx, _RUNTIMES, batch)
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


def _pool_scan(
    ctx: ScanContext, tasks: Sequence[Tuple[int, int]], workers: int
) -> List[Tuple[int, int, int]]:
    """Map the grid's batches over a fork pool; merge their state back.

    Returns the task entries in plan order.  Worker counter, cache and
    span state is merged into the parent's registry, conversion cache
    and tracer.
    """
    # Only the pool needs these; a serial scan never loads them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _CTX
    _CTX = ctx
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
        try:
            records = list(
                pool.map(_pool_batch, _plan_batches(tasks, workers))
            )
        finally:
            # After a failed batch, drop the batches not yet started,
            # so the error surfaces without the rest of the grid
            # running first.
            pool.shutdown(cancel_futures=True)
    finally:
        _CTX = None

    entries: List[Tuple[int, int, int]] = []
    merged_counters: Dict[str, float] = {}
    cache_hits = cache_misses = cache_evictions = 0
    tracer = current_tracer()
    for record in records:  # plan order, whichever worker ran the batch
        entries.extend(record["results"])
        for sample, delta in record["counter_deltas"].items():
            merged_counters[sample] = merged_counters.get(sample, 0) + delta
        deltas = record["cache_deltas"]
        cache_hits += deltas["hits"]
        cache_misses += deltas["misses"]
        cache_evictions += deltas["evictions"]
        if tracer is not None:
            for payload in record["spans"]:
                tracer.attach(Span.from_dict(payload))
    if merged_counters:
        global_metrics().merge_counter_deltas(merged_counters)
    if cache_hits or cache_misses or cache_evictions:
        ctx.system.conversion_cache.merge_counts(
            hits=cache_hits, misses=cache_misses, evictions=cache_evictions
        )
    return entries


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
    requirements = [
        candidate_requirements(assignment, windows, structure.root)
        if anchor_screen
        else ()
        for assignment in candidates
    ]
    # Compile the frontier into banked tables once, in the parent;
    # pool workers inherit the compiled groups through fork.
    groups = compile_groups(
        [
            build_tag(ComplexEventType(structure, assignment), system=system)
            for assignment in candidates
        ]
    )
    shards = plan_shards(
        roots,
        resolve_shard_size(shard_size, len(roots), workers, len(candidates)),
    )
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
    if mode == "pool":
        entries = _pool_scan(ctx, tasks, workers_used)
    else:
        entries = _run_tasks(ctx, {}, tasks, inline=True)

    results = [
        CandidateResult(assignment=assignment) for assignment in candidates
    ]
    for candidate_index, hits, starts in entries:
        result = results[candidate_index]
        result.hits += hits
        result.starts += starts
    report = {
        "workers": workers_used,
        "shards": len(shards),
        "tasks": len(tasks),
        "executor": mode,
        "batch_groups": len(groups),
    }
    return results, report
