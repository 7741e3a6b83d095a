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
* tasks fan out over a fork-based ``ProcessPoolExecutor``.  Workers
  inherit the reduced sequence, the compiled groups, the granularity
  system and the warmed conversion cache through fork (nothing large
  is pickled; tasks are two-integer tuples), and return per-member hit
  counts plus their local observability state: metric counter deltas,
  conversion-cache counter deltas, and serialized spans.  The parent merges all three back -
  counters via :meth:`~repro.obs.metrics.MetricsRegistry.
  merge_counter_deltas`, cache traffic via :meth:`~repro.granularity.
  convcache.ConversionCache.merge_counts`, spans by grafting under the
  open ``mine.scan`` span - so process-wide accounting stays exact;
* the parent exports its int64 columns once over
  :class:`~repro.store.columnar.SharedColumns` (POSIX shared memory,
  mmap-file fallback) and each worker *attaches* zero-copy instead of
  relying on copy-on-write fork pages - the pool initializer adopts the
  attached view into the inherited sequence.

Units (contiguous slices of the task grid) are dispatched through a
:class:`~repro.parallel.stealing.StealScheduler`: one in-flight unit
per lane, idle lanes steal the tail half of the richest deque.  Results
merge deterministically regardless of which lane ran what: every unit
result lands at its planned index and hits are summed per candidate in
unit order, so a parallel run's solutions, frequencies and work
counters equal the serial run's exactly, for any worker count, shard
size or steal interleaving.

``REPRO_PARALLEL=off`` (or a platform without fork) degrades to the
inline executor: the same task grid runs in-process, still
bit-identical, with no pool overhead.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
from .shards import Shard, check_shard_invariants, plan_shards
from .stealing import StealScheduler

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

#: Values of ``REPRO_PARALLEL`` that force the serial engine.
_OFF_VALUES = ("off", "0", "false", "no")


def parallel_disabled() -> bool:
    """Is the ``REPRO_PARALLEL`` kill switch engaged?"""
    return os.environ.get("REPRO_PARALLEL", "").strip().lower() in _OFF_VALUES


def resolve_workers(parallel: Union[int, str, None] = None) -> int:
    """Worker count from the request and the environment.

    ``parallel`` is the CLI/API request: an int, ``"auto"`` (one worker
    per CPU) or None (defer to ``REPRO_PARALLEL``, default serial).
    ``REPRO_PARALLEL=off|0|false|no`` forces 1 regardless of the
    request (the kill switch); ``REPRO_PARALLEL_MAX_WORKERS`` caps the
    result (the CI uses it to bound pool width).
    """
    env = os.environ.get("REPRO_PARALLEL", "").strip().lower()
    if env in _OFF_VALUES:
        return 1
    if parallel in (None, ""):
        if env == "":
            workers = 1
        elif env == "auto":
            workers = os.cpu_count() or 1
        else:
            workers = int(env)
    elif parallel == "auto":
        workers = os.cpu_count() or 1
    else:
        workers = int(parallel)
    if workers < 1:
        raise ValueError("worker count must be >= 1 (got %r)" % (workers,))
    cap = os.environ.get("REPRO_PARALLEL_MAX_WORKERS", "").strip()
    if cap:
        workers = min(workers, max(1, int(cap)))
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


def _warm_worker(namespace: int, entries, forms=(), shm_handle=None) -> None:
    """Pool initializer: install the exported conversion-cache entries.

    Redundant under fork (the entries arrived with the address space)
    but load-bearing for any start method that builds workers fresh -
    either way no worker recomputes a conversion the parent already
    paid for.  Preloading counts neither hits nor misses.  Compiled
    periodic normal forms ride along so a fresh worker builds
    its compiled size tables without re-lowering (no boundary scans).

    ``shm_handle`` is the parent's :class:`~repro.store.columnar.
    SharedColumns` handle: when present the worker attaches to the
    parent's int64 columns zero-copy and adopts the attached store into
    the inherited sequence, replacing the copy-on-write fork pages with
    a genuinely shared mapping.  Attach failure is non-fatal - the
    worker falls back to the fork-inherited (or rebuilt) view, which is
    bit-identical by construction.
    """
    ctx = _CTX
    if ctx is not None:
        cache = ctx.system.conversion_cache
        cache.preload(namespace, entries)
        if forms:
            cache.preload_normal_forms(namespace, forms)
        if shm_handle is not None:
            from ..store.columnar import attach_shared

            store = attach_shared(shm_handle)
            if store is not None:
                try:
                    ctx.sequence.adopt_columnar(store)
                except ValueError:
                    pass  # count mismatch: keep the inherited view


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
    """The in-process twin of :func:`_pool_batch`.

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

    Contiguity keeps each worker on few distinct groups (the runtime
    memo stays hot); ~4 batches per worker rebalances stragglers
    without per-task IPC.
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
    executor: str = "auto",
) -> Tuple[List[CandidateResult], Dict[str, object]]:
    """Scan every candidate over every shard; merge deterministically.

    Returns per-candidate results in candidate order plus a report dict
    (workers, shards, tasks, executor mode) the caller can surface.
    ``executor`` is ``"auto"`` (pool when it would help and fork
    exists), ``"pool"`` or ``"inline"`` (the test hook).
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
    if shard_size in (None, "auto") and roots:
        # Candidates already provide parallel grain, so plan only
        # enough time shards to fill ~4 batches per worker overall.
        desired = max(1, -(-workers * 4 // max(1, len(candidates))))
        shard_size = max(1, -(-len(roots) // desired))
    shards = plan_shards(
        sequence, list(roots), horizon, shard_size=shard_size, workers=workers
    )
    if obs_debug():
        check_shard_invariants(shards, sequence, list(roots), horizon)
    tasks = [
        (group_index, shard.index)
        for group_index in range(len(groups))
        for shard in shards
    ]
    mode = executor
    if mode == "auto":
        mode = "pool" if workers > 1 and len(tasks) > 1 else "inline"
    if mode == "pool" and not fork_available():
        mode = "inline"
        _FALLBACK_TOTAL.inc()
    workers_used = max(1, min(workers, len(tasks))) if mode == "pool" else 1
    _SHARDS_TOTAL.add(len(shards))
    _TASKS_TOTAL.add(len(tasks))
    _WORKERS_GAUGE.set(workers_used)

    # Build the columnar view (and its posting columns) once in the
    # parent; pool workers then *attach* to the int64 columns over
    # shared memory instead of faulting copy-on-write fork pages.
    view = sequence.columnar()
    shm_owner = None
    if mode == "pool":
        try:
            shm_owner = view.to_shared()
        except OSError:
            shm_owner = None  # fork inheritance still works

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
    scheduler: Optional[StealScheduler] = None
    _CTX = ctx
    _RUNTIMES = {}
    try:
        if mode == "pool":
            namespace = system.cache_namespace
            entries = system.conversion_cache.export_entries(namespace)
            forms = system.conversion_cache.export_normal_forms(namespace)
            handle = shm_owner.handle() if shm_owner is not None else None
            # Work stealing: one in-flight unit per lane; an idle lane
            # steals the tail half of the richest deque.  Each result
            # lands at its planned unit index, so the merge below is
            # independent of the steal interleaving.
            raw = [None] * len(batches)
            scheduler = StealScheduler(batches, workers_used)
            with ProcessPoolExecutor(
                max_workers=workers_used,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_warm_worker,
                initargs=(namespace, entries, forms, handle),
            ) as pool:
                inflight = {}
                for lane in range(workers_used):
                    item = scheduler.next_for(lane)
                    if item is None:
                        break
                    unit_index, unit = item
                    future = pool.submit(_pool_batch, unit)
                    inflight[future] = (lane, unit_index)
                while inflight:
                    done, _pending = wait(
                        list(inflight), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        lane, unit_index = inflight.pop(future)
                        raw[unit_index] = future.result()
                        item = scheduler.next_for(lane)
                        if item is not None:
                            unit_index, unit = item
                            future = pool.submit(_pool_batch, unit)
                            inflight[future] = (lane, unit_index)
        else:
            raw = [_inline_batch(batch) for batch in batches]
    finally:
        _CTX = None
        _RUNTIMES = {}
        if shm_owner is not None:
            # Unlink even on worker crash: attached segments die with
            # their processes, the owner's close releases the name.
            shm_owner.close()

    results = [
        CandidateResult(assignment=assignment) for assignment in candidates
    ]
    merged_counters: Dict[str, float] = {}
    cache_hits = cache_misses = cache_evictions = 0
    tracer = current_tracer()
    for record in raw:  # planned unit order, whoever ran the unit
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
        "steals": scheduler.steals if scheduler is not None else 0,
        "shm": shm_owner.kind if shm_owner is not None else None,
    }
    return results, report
