"""Command-line interface: consistency, matching, mining, conversion.

Usage (also available as ``python -m repro.cli``)::

    repro check STRUCTURE.json            # Theorem 2 consistency filter
    repro match PATTERN.json EVENTS.csv   # anchored TAG matching
    repro replay PATTERN.json EVENTS.csv  # streaming (online) detection
    repro serve PATTERN.json TENANTS.csv  # multi-tenant detection service
    repro mine PROBLEM.json EVENTS.csv    # optimised discovery pipeline
    repro convert M N SRC DST             # implied-interval conversion
    repro dot STRUCTURE.json              # Graphviz export
    repro obs TRACE.json                  # pretty-print a --trace file
    repro obs flame TRACE.json            # render an embedded profile
    repro gran info TYPE                  # compiled periodic normal form

``mine`` is also available as ``discover`` and accepts ``--parallel
N|auto`` / ``--shard-size N|auto`` to run the final TAG scan on a
worker pool and to chunk its reference occurrences (identical output
to the serial scan; without ``--parallel`` the scan is serial).
``serve`` takes ``--recorder-dir DIR`` for the flight dumps a breaker
trip writes.

Every command accepts ``--trace FILE`` (write the span tree of the run
as JSON; inspect with ``repro obs``), ``--metrics`` (print the metrics
registry in Prometheus text format after the command),
``--metrics-out FILE`` and ``--profile-stacks`` (run the sampling
wall-clock profiler and embed its folded stacks into the trace; render
with ``repro obs flame``); the flags work both before and after the
subcommand name.  See docs/OBSERVABILITY.md.

Structures/patterns/problems are the JSON payloads of
:mod:`repro.io.serialize`; event logs are two-column CSV
(``event_type,timestamp`` with integer or calendar stamps); SRC/DST are
granularity labels or expressions of :mod:`repro.granularity.parser`
(e.g. ``group(month,3)``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

# Each command imports the layers it runs inside its ``_cmd_*``
# function, so a launch loads only those (docs/PERFORMANCE.md,
# "Start-up").  ``read_events`` stays a module attribute, looked up by
# ``_load_events`` at call time, so it can be wrapped in one place.
from .io.csvlog import read_events


def _add_obs_options(subparser) -> None:
    """The observability flags, repeated on a subparser.

    The root parser declares the same flags with real defaults;
    ``SUPPRESS`` here means an omitted subcommand-level flag leaves the
    root's value alone, so both ``repro --trace f.json mine ...`` and
    ``repro mine ... --trace f.json`` work.
    """
    subparser.add_argument(
        "--trace",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help="write a span-tree trace of this run as JSON "
        "(inspect with 'repro obs FILE')",
    )
    subparser.add_argument(
        "--metrics",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print the metrics registry (Prometheus text format) "
        "after the command",
    )
    subparser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=argparse.SUPPRESS,
        help="write the metrics dump to FILE",
    )
    subparser.add_argument(
        "--profile-stacks",
        action="store_true",
        default=argparse.SUPPRESS,
        help="sample the command with the wall-clock profiler and embed "
        "folded stacks into the --trace payload "
        "(render with 'repro obs flame FILE')",
    )


def _cmd_check(args) -> int:
    from .constraints.propagation import propagate
    from .granularity.registry import standard_system
    from .io.serialize import load_json, structure_from_dict

    system = standard_system()
    structure = structure_from_dict(load_json(args.structure), system)
    result = propagate(structure, system)
    if not result.consistent:
        print("INCONSISTENT (refuted by approximate propagation)")
        return 1
    print("CONSISTENT (not refuted; the exact check is NP-hard)")
    if args.verbose:
        from .mining.reporting import propagation_report

        print(propagation_report(result))
    return 0


def _load_events(args):
    """Read the CSV log, strictly or with a quarantine channel."""
    if not getattr(args, "skip_bad_rows", False):
        return read_events(args.events)
    from .resilience import Quarantine

    quarantine = Quarantine(source=args.events)
    sequence = read_events(args.events, quarantine=quarantine)
    if quarantine:
        print(quarantine.summary(), file=sys.stderr)
    return sequence


def _cmd_match(args) -> int:
    from .automata.builder import build_tag
    from .automata.matching import TagMatcher
    from .granularity.registry import standard_system
    from .io.serialize import complex_event_type_from_dict, load_json

    system = standard_system()
    cet = complex_event_type_from_dict(load_json(args.pattern), system)
    sequence = _load_events(args)
    matcher = TagMatcher(build_tag(cet))
    root_type = cet.event_type(cet.structure.root)
    total = sequence.count(root_type)
    matched = 0
    for index in matcher.viable_root_positions(sequence):
        bindings = matcher.bindings_at(sequence, index)
        if bindings is None:
            continue
        matched += 1
        print(
            "match at t=%d: %s"
            % (sequence.time_at(index), json.dumps(bindings, sort_keys=True))
        )
    frequency = matched / total if total else 0.0
    print(
        "%d/%d %s occurrences matched (frequency %.3f)"
        % (matched, total, root_type, frequency)
    )
    return 0


def _cmd_replay(args) -> int:
    from .core.api import stream_pattern
    from .granularity.registry import standard_system
    from .io.serialize import (
        complex_event_type_from_dict,
        dump_json,
        load_json,
        streaming_matcher_from_checkpoint,
    )

    system = standard_system()
    if args.resume:
        matcher = streaming_matcher_from_checkpoint(
            load_json(args.resume), system
        )
    else:
        cet = complex_event_type_from_dict(load_json(args.pattern), system)
        matcher = stream_pattern(
            cet.structure,
            cet.assignment,
            system,
            max_lateness=args.max_lateness,
            overflow_policy=args.overflow_policy,
            max_live_anchors=args.max_live_anchors,
        )
        if args.horizon is not None:
            matcher.horizon_seconds = args.horizon
    sequence = _load_events(args)
    detections = matcher.feed_sequence(sequence)
    detections.extend(matcher.flush())
    for detection in detections:
        print(
            "detected anchor t=%d at t=%d: %s"
            % (
                detection.anchor_time,
                detection.detected_at,
                json.dumps(detection.bindings, sort_keys=True),
            )
        )
    if args.checkpoint_out:
        dump_json(matcher.checkpoint(), args.checkpoint_out)
        print("checkpoint written to %s" % args.checkpoint_out,
              file=sys.stderr)
    stats = matcher.stats()
    print(
        "# events %d, detections %d, live anchors %d, "
        "late dropped %d, anchors shed %d"
        % (
            stats["events_received"],
            stats["detections_emitted"],
            stats["live_anchors"],
            stats["late_events_dropped"],
            stats["anchors_shed"],
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args) -> int:
    from .automata.builder import build_tag
    from .granularity.registry import standard_system
    from .io.csvlog import read_tenant_events
    from .io.serialize import complex_event_type_from_dict, load_json
    from .resilience import Quarantine
    from .service import ServiceConfig, serve_events

    system = standard_system()
    cet = complex_event_type_from_dict(load_json(args.pattern), system)
    quarantine = None
    if args.skip_bad_rows:
        quarantine = Quarantine(source=args.events)
    records = read_tenant_events(args.events, quarantine=quarantine)
    if quarantine:
        print(quarantine.summary(), file=sys.stderr)
    config = ServiceConfig(
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        max_resident_sessions=args.max_resident,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        max_lateness=args.max_lateness,
        horizon_seconds=args.horizon,
        max_live_anchors=args.max_live_anchors,
        overflow_policy=args.overflow_policy,
        recorder_dir=args.recorder_dir,
    )
    service = serve_events(
        build_tag(cet, system=system), records, config=config, system=system
    )
    for found in service.detections:
        detection = found.detection
        print(
            "%s/%s#%d%s: detected anchor t=%d at t=%d: %s"
            % (
                found.tenant,
                found.key,
                found.seq,
                " (replayed)" if found.replayed else "",
                detection.anchor_time,
                detection.detected_at,
                json.dumps(detection.bindings, sort_keys=True),
            )
        )
    stats = service.stats()
    tenants = stats["tenants"]
    print(
        "# tenants %d, events %d, detections %d, quarantined %d, "
        "shed %d, evictions %d, rehydrations %d"
        % (
            len(tenants),
            sum(t["submitted"] for t in tenants.values()),
            stats["detections"],
            stats["quarantined"],
            sum(t["shed"] for t in tenants.values()),
            stats["sessions"]["evictions"],
            stats["sessions"]["rehydrations"],
        ),
        file=sys.stderr,
    )
    return 0


def _parse_count(value: Optional[str], flag: str):
    """``--parallel`` / ``--shard-size`` values: an integer or "auto"."""
    if value is None or value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            "%s expects an integer or 'auto', got %r" % (flag, value)
        )


def _cmd_mine(args) -> int:
    from .granularity.registry import standard_system
    from .io.serialize import load_json, problem_from_dict
    from .mining.discovery import discover

    system = standard_system()
    problem = problem_from_dict(load_json(args.problem), system)
    sequence = _load_events(args)
    outcome = discover(
        problem,
        sequence,
        system,
        screen_depth=args.screen_depth,
        parallel=_parse_count(args.parallel, "--parallel"),
        shard_size=_parse_count(args.shard_size, "--shard-size"),
    )
    if not outcome.stats.consistent:
        print("structure is inconsistent; nothing to mine")
        return 1
    if args.report:
        from .mining.reporting import discovery_report

        print(discovery_report(outcome))
        return 0
    for cet in outcome.solutions:
        print(
            "%.3f  %s"
            % (
                outcome.frequencies[cet],
                json.dumps(cet.assignment, sort_keys=True),
            )
        )
    stats = outcome.stats
    print(
        "# events %d->%d, anchors %d->%d, candidates evaluated %d, "
        "automaton starts %d"
        % (
            stats.sequence_events_before,
            stats.sequence_events_after,
            stats.roots_before,
            stats.roots_after,
            outcome.candidates_evaluated,
            outcome.automaton_starts,
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args) -> int:
    import random

    from .granularity.registry import standard_system
    from .io.csvlog import write_events
    from .io.serialize import complex_event_type_from_dict, load_json
    from .mining.generator import planted_sequence

    system = standard_system()
    cet = complex_event_type_from_dict(load_json(args.pattern), system)
    rng = random.Random(args.seed)
    noise_types = args.noise.split(",") if args.noise else []
    sequence, planted = planted_sequence(
        cet,
        system,
        n_roots=args.roots,
        confidence=args.confidence,
        rng=rng,
        noise_types=noise_types,
        noise_events_per_root=args.noise_per_root,
    )
    write_events(sequence, args.output)
    print(
        "wrote %d events (%d/%d anchors carry a planted occurrence) "
        "to %s" % (len(sequence), planted, args.roots, args.output),
        file=sys.stderr,
    )
    return 0


def _cmd_convert(args) -> int:
    from .granularity.parser import GranularityParseError, parse_type
    from .granularity.registry import standard_system

    system = standard_system()
    try:
        source = parse_type(args.source, system)
        target = parse_type(args.target, system)
    except GranularityParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    outcome = system.convert(args.m, args.n, source, target, mode=args.mode)
    if outcome.interval is None:
        if not system.conversion_feasible(source, target):
            reason = (
                "%s does not cover every instant of %s (A.1 feasibility)"
                % (target.label, source.label)
            )
        elif outcome.empty:
            reason = "the implied interval is empty"
        else:
            reason = "no finite bound within the search cap"
        print("no implied constraint: %s" % reason)
        return 1
    lo, hi = outcome.interval
    print("[%d,%d]%s  implies  [%d,%d]%s" % (
        args.m, args.n, source.label, lo, hi, target.label))
    return 0


def _cmd_gran_info(args) -> int:
    from .granularity.normalform import explain_normal_form
    from .granularity.parser import GranularityParseError, parse_type
    from .granularity.registry import standard_system

    system = standard_system()
    try:
        ttype = parse_type(args.type, system)
    except GranularityParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("granularity: %s" % ttype.label)
    info = explain_normal_form(ttype)
    if not info["compiles"]:
        print("normal form: none")
        print("  reason: %s (%s)" % (info["reason"], info["detail"]))
        print("backend: sweep (type does not lower; window-sweep table)")
        return 0
    print("normal form: %s" % info["source"])
    print("  compiled by: %s" % info["rule"])
    print("  period: %d ticks / %d seconds" % (
        info["period_ticks"], info["period_seconds"]))
    print("  phases: %d boundary offsets per period" % info["period_ticks"])
    print("  instants per period: %d covered, %d in gaps (%d gap runs)" % (
        info["period_instants"], info["gap_seconds"], info["gap_runs"]))
    print("  aperiodic prefix: %d ticks" % info["prefix_ticks"])
    if "minimized_from_period" in info:
        print("  minimized: from %d-tick period / %d-tick prefix" % (
            info["minimized_from_period"], info["minimized_from_prefix"]))
    else:
        print("  minimized: already minimal as compiled")
    print("  exactness: minsize/maxsize/mingap exact for every k "
          "(sweep tables are exact only within their horizon)")
    print("  exact instant cover: %s%s" % (
        "yes" if info["exact_cover"] else "no",
        "" if info["exact_cover"]
        else " (size queries only; tick_of stays on the type)",
    ))
    print("backend: compiled")
    return 0


def _cmd_analyze(args) -> int:
    from .constraints.analysis import find_disjunctions, tightness_report
    from .granularity.gregorian import SECONDS_PER_DAY
    from .granularity.registry import standard_system
    from .io.serialize import load_json, structure_from_dict
    from .mining.reporting import tightness_table

    system = standard_system()
    structure = structure_from_dict(load_json(args.structure), system)
    window = args.window_days * SECONDS_PER_DAY
    print("tightness (approximate propagation vs exact minimal network,")
    print("granularity %s, window %d days):" % (args.granularity, args.window_days))
    rows = tightness_report(structure, system, args.granularity, window)
    print(tightness_table(rows))
    disjunctions = find_disjunctions(
        structure, system, args.granularity, window
    )
    if disjunctions:
        print("\nhidden disjunctions (interval propagation cannot see):")
        for item in disjunctions:
            print(
                "  %s -> %s in %s: realisable %s (holes %s)"
                % (
                    item.pair[0],
                    item.pair[1],
                    item.granularity_label,
                    list(item.values),
                    list(item.holes),
                )
            )
    else:
        print("\nno hidden disjunctions in this granularity/window")
    return 0


def _cmd_obs(args) -> int:
    from .obs import format_span_tree, load_trace

    if args.trace_file == "flame":
        if not args.flame_file:
            print(
                "error: 'repro obs flame' needs a trace or bench JSON "
                "file with an embedded profile",
                file=sys.stderr,
            )
            return 2
        return _cmd_obs_flame(args.flame_file)
    payload = load_trace(args.trace_file)
    print(format_span_tree(payload, max_children=args.max_children))
    return 0


def _cmd_obs_flame(path: str) -> int:
    """Render the ``"profile"`` payload of a trace or bench JSON file
    as collapsed stacks (pipeable into flamegraph.pl / speedscope)."""
    from .obs import format_flame, format_flame_summary

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    profile = payload.get("profile_stacks")
    if not isinstance(profile, dict):
        profile = {}
    samples = profile.get("samples") or {}
    if not samples:
        print(
            "error: no profile samples in %s (record one with "
            "--profile-stacks)" % path,
            file=sys.stderr,
        )
        return 1
    print(format_flame_summary(samples), file=sys.stderr)
    print(format_flame(samples))
    return 0


def _cmd_dot(args) -> int:
    from .granularity.registry import standard_system
    from .io.dot import structure_to_dot
    from .io.serialize import (
        complex_event_type_from_dict,
        load_json,
        structure_from_dict,
    )

    system = standard_system()
    payload = load_json(args.structure)
    if "assignment" in payload:
        cet = complex_event_type_from_dict(payload, system)
        if args.tag:
            from .automata.builder import build_tag
            from .io.dot import tag_to_dot

            print(tag_to_dot(build_tag(cet).tag), end="")
            return 0
        structure = cet.structure
    else:
        structure = structure_from_dict(payload, system)
    print(structure_to_dot(structure), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-granularity temporal constraints and mining",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a span-tree trace of the run as JSON "
        "(inspect with 'repro obs FILE')",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        default=False,
        help="print the metrics registry (Prometheus text format) "
        "after the command",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics dump to FILE",
    )
    parser.add_argument(
        "--profile-stacks",
        action="store_true",
        default=False,
        help="sample the command with the wall-clock profiler and embed "
        "folded stacks into the --trace payload "
        "(render with 'repro obs flame FILE')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="consistency-check a structure")
    check.add_argument("structure", help="event-structure JSON file")
    check.add_argument(
        "-v", "--verbose", action="store_true", help="print derived TCGs"
    )
    check.set_defaults(func=_cmd_check)

    match = sub.add_parser("match", help="match a pattern against a log")
    match.add_argument("pattern", help="complex-event-type JSON file")
    match.add_argument("events", help="CSV event log")
    match.add_argument(
        "--skip-bad-rows",
        action="store_true",
        help="quarantine malformed CSV rows instead of aborting",
    )
    match.set_defaults(func=_cmd_match)

    replay = sub.add_parser(
        "replay",
        help="stream a log through the online matcher (resilience knobs)",
    )
    replay.add_argument(
        "pattern",
        help="complex-event-type JSON file (ignored with --resume, which "
        "carries the pattern inside the checkpoint)",
    )
    replay.add_argument("events", help="CSV event log")
    replay.add_argument(
        "--max-lateness",
        type=int,
        default=None,
        metavar="SECONDS",
        help="tolerate out-of-order events up to this many seconds late "
        "(default: strict ordering)",
    )
    replay.add_argument(
        "--overflow-policy",
        choices=("raise", "shed-oldest", "shed-newest", "sample"),
        default="raise",
        help="what to do when live anchors exceed --max-live-anchors",
    )
    replay.add_argument("--max-live-anchors", type=int, default=10_000)
    replay.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="SECONDS",
        help="override the propagation-derived anchor horizon",
    )
    replay.add_argument(
        "--skip-bad-rows",
        action="store_true",
        help="quarantine malformed CSV rows instead of aborting",
    )
    replay.add_argument(
        "--checkpoint-out",
        metavar="FILE",
        help="write the final matcher state as a JSON checkpoint",
    )
    replay.add_argument(
        "--resume",
        metavar="FILE",
        help="restore matcher state from a checkpoint before replaying",
    )
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve",
        help="run a multi-tenant log through the detection service",
    )
    serve.add_argument("pattern", help="complex-event-type JSON file")
    serve.add_argument(
        "events",
        help="CSV log of 'tenant,event_type,timestamp[,sequence_key]' rows",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=256,
        help="per-tenant ingress queue bound",
    )
    serve.add_argument(
        "--shed-policy",
        choices=("raise", "shed-oldest", "shed-newest", "sample"),
        default="raise",
        help="what to do when a tenant's queue overflows",
    )
    serve.add_argument(
        "--max-resident",
        type=int,
        default=64,
        help="resident sessions before LRU eviction to checkpoints",
    )
    serve.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="durable checkpoint store (default: in-memory only)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=256,
        help="events between periodic session checkpoints",
    )
    serve.add_argument(
        "--recorder-dir",
        metavar="DIR",
        default=None,
        help="write a flight-recorder dump here when a tenant's breaker "
        "trips (default: note the trip, write nothing)",
    )
    serve.add_argument(
        "--max-lateness",
        type=int,
        default=None,
        metavar="SECONDS",
        help="per-session reorder-buffer lateness bound",
    )
    serve.add_argument(
        "--overflow-policy",
        choices=("raise", "shed-oldest", "shed-newest", "sample"),
        default="raise",
        help="per-session anchor-overflow policy",
    )
    serve.add_argument("--max-live-anchors", type=int, default=10_000)
    serve.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="SECONDS",
        help="override the propagation-derived anchor horizon",
    )
    serve.add_argument(
        "--skip-bad-rows",
        action="store_true",
        help="quarantine malformed CSV rows instead of aborting",
    )
    serve.set_defaults(func=_cmd_serve)

    mine = sub.add_parser(
        "mine",
        aliases=["discover"],
        help="run a discovery problem (alias: discover)",
    )
    mine.add_argument("problem", help="discovery-problem JSON file")
    mine.add_argument("events", help="CSV event log")
    mine.add_argument(
        "--screen-depth",
        type=int,
        default=2,
        choices=(0, 1, 2),
        help="candidate-screening depth (Section 5.1)",
    )
    mine.add_argument(
        "--parallel",
        default=None,
        metavar="N|auto",
        help="run the TAG scan on N worker processes ('auto' = CPU "
        "count; default: serial). Output is identical to the serial "
        "engine.",
    )
    mine.add_argument(
        "--shard-size",
        default="auto",
        metavar="N|auto",
        help="reference occurrences per chunk of the TAG scan's task "
        "grid, serial or parallel (default: one chunk when serial, "
        "else auto-sized from the worker count). Output is identical "
        "for any size.",
    )
    mine.add_argument(
        "--report",
        action="store_true",
        help="print a formatted report instead of raw solution lines",
    )
    mine.add_argument(
        "--skip-bad-rows",
        action="store_true",
        help="quarantine malformed CSV rows instead of aborting",
    )
    # perf/inproc.py reads ``engine`` and passes it to ``discover``.
    mine.set_defaults(func=_cmd_mine, engine="auto")

    generate = sub.add_parser(
        "generate", help="generate a synthetic log with planted patterns"
    )
    generate.add_argument("pattern", help="complex-event-type JSON file")
    generate.add_argument("output", help="CSV file to write")
    generate.add_argument("--roots", type=int, default=20)
    generate.add_argument("--confidence", type=float, default=0.9)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--noise", default="", help="comma-separated noise event types"
    )
    generate.add_argument("--noise-per-root", type=int, default=5)
    generate.set_defaults(func=_cmd_generate)

    convert = sub.add_parser(
        "convert", help="convert an interval between granularities"
    )
    convert.add_argument("m", type=int)
    convert.add_argument("n", type=int)
    convert.add_argument("source", help="granularity label or expression")
    convert.add_argument("target", help="granularity label or expression")
    convert.add_argument(
        "--mode", choices=("direct", "figure3"), default="direct"
    )
    convert.set_defaults(func=_cmd_convert)

    analyze = sub.add_parser(
        "analyze",
        help="exact minimal-network analysis (exponential; small inputs)",
    )
    analyze.add_argument("structure", help="event-structure JSON file")
    analyze.add_argument(
        "--granularity", default="day", help="tick-distance granularity"
    )
    analyze.add_argument(
        "--window-days",
        type=int,
        default=120,
        help="search window for the exact enumeration",
    )
    analyze.set_defaults(func=_cmd_analyze)

    dot = sub.add_parser("dot", help="export a structure (or TAG) as DOT")
    dot.add_argument("structure", help="structure or pattern JSON file")
    dot.add_argument(
        "--tag",
        action="store_true",
        help="export the compiled TAG of a pattern instead",
    )
    dot.set_defaults(func=_cmd_dot)

    obs = sub.add_parser(
        "obs",
        help="pretty-print a --trace JSON file as a span tree "
        "('obs flame FILE' renders an embedded profile instead)",
    )
    obs.add_argument(
        "trace_file",
        help="trace JSON written by --trace FILE, or the literal word "
        "'flame' followed by a trace/bench JSON with an embedded "
        "--profile-stacks profile",
    )
    obs.add_argument(
        "flame_file", nargs="?", default=None, help=argparse.SUPPRESS
    )
    obs.add_argument(
        "--max-children",
        type=int,
        default=12,
        help="siblings shown per parent before collapsing the rest",
    )
    obs.set_defaults(func=_cmd_obs)

    gran = sub.add_parser(
        "gran", help="granularity tools (compiled normal forms)"
    )
    gran_sub = gran.add_subparsers(dest="gran_command", required=True)
    gran_info = gran_sub.add_parser(
        "info",
        help="print a granularity's compiled periodic normal form",
    )
    gran_info.add_argument(
        "type", help="granularity label or expression (e.g. 'b-day', "
        "'group(minute,15)')",
    )
    gran_info.set_defaults(func=_cmd_gran_info)

    for subparser in (check, match, replay, serve, mine, generate,
                      convert, analyze, dot, obs, gran_info):
        _add_obs_options(subparser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    User-input problems (missing files, malformed JSON/CSV, unknown
    granularities) exit with code 2 and a one-line message instead of a
    traceback.
    """
    from .obs import (
        SamplingProfiler,
        Tracer,
        activate_tracer,
        prometheus_text,
        span,
        write_trace,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    tracer = Tracer() if trace_path else None
    profiler = None
    if getattr(args, "profile_stacks", False):
        profiler = SamplingProfiler()
        profiler.start()
    try:
        if tracer is not None:
            with activate_tracer(tracer):
                with span("cli.%s" % args.command):
                    return args.func(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print("error: file not found: %s" % exc.filename, file=sys.stderr)
        return 2
    except ValueError as exc:
        # SerializationError, CsvFormatError, json.JSONDecodeError and
        # GranularityParseError are ValueError subclasses, so malformed
        # inputs of every kind land here.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``repro obs trace.json | head``).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        # Trace and metrics flush even when the command failed - a trace
        # of a failed run shows where it failed.
        if profiler is not None:
            profiler.stop()
        if tracer is not None:
            payload = tracer.to_dict()
            if profiler is not None:
                payload["profile_stacks"] = profiler.to_dict()
            write_trace(payload, trace_path)
            print(
                "trace written to %s (%d spans)"
                % (trace_path, tracer.total_spans()),
                file=sys.stderr,
            )
        metrics_out = getattr(args, "metrics_out", None)
        if getattr(args, "metrics", False) or metrics_out:
            text = prometheus_text()
            if metrics_out:
                with open(metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(
                    "metrics written to %s" % metrics_out, file=sys.stderr
                )
            if getattr(args, "metrics", False):
                print(text, end="")


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
