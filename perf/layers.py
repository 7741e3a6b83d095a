"""Per-layer breakdown of one traced command, measured from outside.

The program already opens spans at most layer boundaries (``propagate``,
``stp.close``, ``tag.build``, ``mine.*``, ``service.*`` ...).  The
public calls that have no span of their own are wrapped here in
``repro.obs.span("perf.<name>")``, patched where their caller looks
them up (:data:`TARGETS`).  Self time - the time a span was the
innermost open span - is summed by span name, counts come from
``repro.obs`` registry deltas, and :func:`layer_metrics` turns both
into the named per-layer metrics of ``BENCHMARK.json``.

Nothing here is imported by the program; :func:`install` raises when a
target no longer exists, so a rename fails loudly instead of reporting
zeros.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module the caller reads it from, attribute path, and a
#: function of the call's result giving span attributes, or None).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("perf.read_events", "repro.cli", "read_events",
     lambda seq: {"rows": len(seq)}),
    ("perf.read_tenant_events", "repro.io.csvlog", "read_tenant_events",
     lambda rows: {"rows": len(rows)}),
    ("perf.find_occurrence", "repro.mining.pruning", "find_occurrence", None),
    ("perf.columnar", "repro.mining.events", "EventSequence.columnar", None),
    ("perf.screen_anchors", "repro.store.columnar",
     "ColumnarEventStore.screen_anchors",
     lambda mask: {"probed": len(mask), "kept": sum(1 for ok in mask if ok)}),
    ("perf.stream_feed", "repro.automata.streaming", "StreamingMatcher.feed",
     None),
    ("perf.checkpoint_save", "repro.service.checkpoints",
     "CheckpointStoreBase.save", None),
    ("perf.checkpoint_load", "repro.service.checkpoints",
     "CheckpointStoreBase.load", None),
    ("perf.wal_append", "repro.service.checkpoints",
     "CheckpointStoreBase.append_wal", None),
)

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("io.parse_s", "s"),
    ("io.rows", "count"),
    ("granularity.compile_s", "s"),
    ("granularity.compiles", "count"),
    ("granularity.convcache_hit_ratio", "ratio"),
    ("constraints.propagate_s", "s"),
    ("constraints.convert_s", "s"),
    ("constraints.stp_close_s", "s"),
    ("constraints.closures", "count"),
    ("constraints.conversions", "count"),
    ("automata.structmatch_s", "s"),
    ("automata.structmatch_calls", "count"),
    ("automata.scan_s", "s"),
    ("automata.events_scanned", "count"),
    ("automata.match_ratio", "ratio"),
    ("automata.tag_build_s", "s"),
    ("automata.tag_builds", "count"),
    ("automata.stream_feed_s", "s"),
    ("automata.stream_events", "count"),
    ("store.columnar_build_s", "s"),
    ("store.anchor_screen_s", "s"),
    ("store.anchor_keep_ratio", "ratio"),
    ("store.columnar_events", "count"),
    ("mining.gate_s", "s"),
    ("mining.reduce_s", "s"),
    ("mining.screen1_s", "s"),
    ("mining.screen2_s", "s"),
    ("mining.scan_s", "s"),
    ("mining.events_kept_ratio", "ratio"),
    ("mining.candidates_evaluated", "count"),
    ("mining.automaton_starts", "count"),
    ("mining.solution_ratio", "ratio"),
    ("service.route_s", "s"),
    ("service.rehydrate_s", "s"),
    ("service.checkpoint_s", "s"),
    ("service.wal_append_s", "s"),
    ("service.rehydrate_ratio", "ratio"),
    ("service.checkpoints_written", "count"),
    ("cli.self_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.samples", "count"),
    ("host.slowdown", "ratio"),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attribute):
        raise AttributeError(
            "wrap target %s.%s no longer exists" % (module_name, path)
        )
    return owner, attribute


def _wrapped(name: str, function, describe):
    from repro.obs import span

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with span(name) as current:
            result = function(*args, **kwargs)
            if describe is not None:
                current.set(**describe(result))
            return result

    return wrapper


def install(targets=TARGETS) -> Callable[[], None]:
    """Wrap every target in a ``perf.*`` span; returns the undo."""
    resolved = [
        (_resolve(module, path), name, describe)
        for name, module, path, describe in targets
    ]
    undo = []
    for (owner, attribute), name, describe in resolved:
        original = getattr(owner, attribute)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, _wrapped(name, original, describe))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


def _key(span) -> str:
    """Aggregation key: the span name, with the screen depth split out."""
    if span.name == "mine.screen":
        return "mine.screen[%s]" % span.attributes.get("depth")
    return span.name


def self_times(roots) -> Tuple[Dict[str, float], Dict[str, int],
                               Dict[str, Dict[str, float]]]:
    """Self seconds, span counts and summed numeric attributes by key.

    Self time follows wall-clock nesting, not the tree: the service
    files ``service.rehydrate`` under the submitting span although it
    runs inside a ``service.route`` drain, and an instant belongs to
    whichever span opened last and has not closed yet.
    """
    spans: List = []
    nested = set()  # a wrapped function calling itself counts once
    stack = [(root, None) for root in roots]
    while stack:
        node, parent = stack.pop()
        if parent is not None and parent.name == node.name:
            nested.add(len(spans))
        spans.append(node)
        stack.extend((child, node) for child in node.children)
    # Opens sort before closes at the same instant, and a parent before
    # its children (it precedes them in ``spans``).
    edges = []
    for order, node in enumerate(spans):
        edges.append((node.start_ns, 0, order))
        edges.append((node.end_ns, 1, order))
    edges.sort()
    selfs: Dict[str, float] = defaultdict(float)
    open_spans: List[int] = []
    last = 0
    for instant, closing, order in edges:
        if open_spans:
            selfs[_key(spans[open_spans[-1]])] += (instant - last) / 1e9
        if not closing:
            open_spans.append(order)
        else:
            open_spans.remove(order)
        last = instant
    counts: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for order, node in enumerate(spans):
        if order in nested:
            continue
        key = _key(node)
        counts[key] += 1
        for attribute, value in node.attributes.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[key][attribute] += value
    return dict(selfs), dict(counts), attrs


def layer_metrics(selfs, counts, attrs, deltas) -> Dict[str, float]:
    """The per-layer metrics a traced command fills (see README.md)."""

    def s(*names):
        return sum(selfs.get(name, 0.0) for name in names)

    def d(*names):
        return sum(deltas.get(name, 0) for name in names)

    def a(name, attribute):
        return attrs.get(name, {}).get(attribute, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "io.parse_s": s("perf.read_events", "perf.read_tenant_events"),
        "io.rows": a("perf.read_events", "rows")
        + a("perf.read_tenant_events", "rows"),
        "granularity.compile_s": s("sizetable.compile", "sizetable.algebra"),
        "granularity.compiles": d("repro_sizetable_compiles_total"),
        "granularity.convcache_hit_ratio": ratio(
            d("repro_convcache_hits_total"),
            d("repro_convcache_hits_total", "repro_convcache_misses_total"),
        ),
        "constraints.propagate_s": s("propagate", "propagate.iteration"),
        "constraints.convert_s": s("propagate.convert"),
        "constraints.stp_close_s": s("stp.close"),
        "constraints.closures": d(
            "repro_propagation_closures_full_total",
            "repro_propagation_closures_incremental_total",
        ),
        "constraints.conversions": d("repro_propagation_conversions_total"),
        "automata.structmatch_s": s("perf.find_occurrence"),
        "automata.structmatch_calls": counts.get("perf.find_occurrence", 0),
        "automata.scan_s": s("tag.batch_scan", "tag.batch", "columnar.scan",
                             "tag.match"),
        "automata.events_scanned": d("repro_tag_events_scanned_total"),
        "automata.match_ratio": ratio(d("repro_tag_matches_total"),
                                      d("repro_tag_runs_total")),
        "automata.tag_build_s": s("tag.build"),
        "automata.tag_builds": d("repro_tag_builds_total"),
        "automata.stream_feed_s": s("perf.stream_feed"),
        "automata.stream_events": d("repro_stream_events_received_total"),
        "store.columnar_build_s": s("perf.columnar"),
        "store.anchor_screen_s": s("perf.screen_anchors"),
        "store.anchor_keep_ratio": ratio(a("perf.screen_anchors", "kept"),
                                         a("perf.screen_anchors", "probed")),
        "store.columnar_events": d("repro_columnar_events_total"),
        "mining.gate_s": s("mine.consistency_gate"),
        "mining.reduce_s": s("mine.reduce"),
        "mining.screen1_s": s("mine.screen[1]"),
        "mining.screen2_s": s("mine.screen[2]"),
        "mining.scan_s": s("mine.scan", "mine.candidate"),
        "mining.events_kept_ratio": ratio(a("mine.reduce", "events_after"),
                                          a("mine.reduce", "events_before")),
        "mining.candidates_evaluated": d(
            "repro_mine_candidates_evaluated_total"),
        "mining.automaton_starts": d("repro_mine_automaton_starts_total"),
        "mining.solution_ratio": ratio(
            d("repro_mine_solutions_total"),
            d("repro_mine_candidates_evaluated_total"),
        ),
        "service.route_s": s("service.route"),
        "service.rehydrate_s": s("service.rehydrate"),
        "service.checkpoint_s": s("perf.checkpoint_save",
                                  "perf.checkpoint_load"),
        "service.wal_append_s": s("perf.wal_append"),
        "service.rehydrate_ratio": ratio(
            d("repro_service_rehydrations_total"),
            d("repro_service_events_total"),
        ),
        "service.checkpoints_written": d(
            "repro_service_checkpoints_written_total"),
        "cli.self_s": s("cli.mine", "cli.serve"),
    }
