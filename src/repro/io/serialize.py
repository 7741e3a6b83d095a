"""JSON (de)serialisation of the library's value objects.

Temporal types are encoded structurally (kind + parameters) so that
event structures, complex event types, discovery problems and event
sequences round-trip through plain JSON - the format the CLI consumes
and a natural interchange format for downstream tools.

Standard calendar types are referenced by label against the target
:class:`~repro.granularity.registry.GranularitySystem`; derived types
(groupings, business calendars, periodic patterns) carry their full
construction recipe.
"""

from __future__ import annotations

import json
import marshal
from contextlib import contextmanager
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Union,
)

from ..constraints.structure import ComplexEventType, EventStructure
from ..constraints.tcg import TCG
from ..granularity.base import TemporalType, UniformType
from ..granularity.business import (
    BusinessDayType,
    BusinessMonthType,
    BusinessWeekType,
)
from ..granularity.calendar import MonthType, YearType
from ..granularity.combinators import GroupedType
from ..granularity.intersection import IntersectionType
from ..granularity.normalform import clock_tick_of
from ..granularity.periodic import PeriodicPatternType
from ..granularity.registry import GranularitySystem
from ..mining.events import Event, EventSequence

if TYPE_CHECKING:
    from ..mining.discovery import EventDiscoveryProblem


class SerializationError(ValueError):
    """Raised on malformed or unsupported payloads."""


@contextmanager
def _malformed(what: str):
    """Re-raise a payload lookup or conversion error as a
    :class:`SerializationError` about ``what``."""
    try:
        yield
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("malformed %s payload: %s" % (what, exc))


# ----------------------------------------------------------------------
# Temporal types
# ----------------------------------------------------------------------
def granularity_to_dict(ttype: TemporalType) -> Dict[str, Any]:
    """Encode a temporal type structurally."""
    if isinstance(ttype, GroupedType):
        return {
            "kind": "grouped",
            "label": ttype.label,
            "base": granularity_to_dict(ttype.base),
            "n": ttype.n,
            "offset": ttype.offset,
        }
    if isinstance(ttype, PeriodicPatternType):
        return {
            "kind": "periodic",
            "label": ttype.label,
            "cycle_seconds": ttype.cycle_seconds,
            "segments": [list(s) for s in ttype.segments],
            "phase": ttype.phase,
        }
    if isinstance(ttype, BusinessDayType):
        return {
            "kind": "businessday",
            "label": ttype.label,
            "workdays": list(ttype.workdays),
            "holidays": list(ttype.holidays),
        }
    if isinstance(ttype, BusinessWeekType):
        return {
            "kind": "businessweek",
            "label": ttype.label,
            "bday": granularity_to_dict(ttype.bday),
        }
    if isinstance(ttype, BusinessMonthType):
        return {
            "kind": "businessmonth",
            "label": ttype.label,
            "bday": granularity_to_dict(ttype.bday),
        }
    if isinstance(ttype, IntersectionType):
        return {
            "kind": "intersection",
            "label": ttype.label,
            "a": granularity_to_dict(ttype.a),
            "b": granularity_to_dict(ttype.b),
        }
    if isinstance(ttype, (MonthType, YearType)):
        return {"kind": "label", "label": ttype.label}
    if isinstance(ttype, UniformType):
        return {
            "kind": "uniform",
            "label": ttype.label,
            "seconds_per_tick": ttype.seconds_per_tick,
            "phase": ttype.phase,
        }
    # Fall back to a label reference for exotic user types.
    return {"kind": "label", "label": ttype.label}


def granularity_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> TemporalType:
    """Decode a temporal type, registering it in the system."""
    kind = payload.get("kind")
    if kind == "label":
        try:
            return system.get(payload["label"])
        except KeyError:
            raise SerializationError(
                "granularity label %r is not registered" % (payload["label"],)
            )
    if kind == "uniform":
        return system.register(
            UniformType(
                payload["label"],
                int(payload["seconds_per_tick"]),
                phase=int(payload.get("phase", 0)),
            )
        )
    if kind == "grouped":
        base = granularity_from_dict(payload["base"], system)
        return system.register(
            GroupedType(
                base,
                int(payload["n"]),
                label=payload.get("label"),
                offset=int(payload.get("offset", 0)),
            )
        )
    if kind == "periodic":
        return system.register(
            PeriodicPatternType(
                payload["label"],
                int(payload["cycle_seconds"]),
                [tuple(s) for s in payload["segments"]],
                phase=int(payload.get("phase", 0)),
            )
        )
    if kind == "intersection":
        return system.register(
            IntersectionType(
                granularity_from_dict(payload["a"], system),
                granularity_from_dict(payload["b"], system),
                label=payload.get("label"),
            )
        )
    if kind == "businessday":
        return system.register(
            BusinessDayType(
                label=payload.get("label", "b-day"),
                workdays=tuple(payload.get("workdays", (0, 1, 2, 3, 4))),
                holidays=payload.get("holidays", ()),
            )
        )
    if kind == "businessweek":
        bday = granularity_from_dict(payload["bday"], system)
        return system.register(
            BusinessWeekType(label=payload.get("label", "b-week"), bday=bday)
        )
    if kind == "businessmonth":
        bday = granularity_from_dict(payload["bday"], system)
        return system.register(
            BusinessMonthType(
                label=payload.get("label", "business-month"), bday=bday
            )
        )
    raise SerializationError("unknown granularity kind %r" % (kind,))


# ----------------------------------------------------------------------
# Constraints and structures
# ----------------------------------------------------------------------
def tcg_to_dict(constraint: TCG) -> Dict[str, Any]:
    """Encode a TCG."""
    return {
        "m": constraint.m,
        "n": constraint.n,
        "granularity": granularity_to_dict(constraint.granularity),
    }


def tcg_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> TCG:
    """Decode a TCG."""
    return TCG(
        int(payload["m"]),
        int(payload["n"]),
        granularity_from_dict(payload["granularity"], system),
    )


def structure_to_dict(structure: EventStructure) -> Dict[str, Any]:
    """Encode an event structure."""
    return {
        "variables": list(structure.variables),
        "constraints": [
            {
                "from": src,
                "to": dst,
                "tcgs": [tcg_to_dict(c) for c in tcgs],
            }
            for (src, dst), tcgs in structure.constraints.items()
        ],
    }


def structure_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> EventStructure:
    """Decode an event structure (validated on construction)."""
    try:
        constraints = {
            (arc["from"], arc["to"]): [
                tcg_from_dict(c, system) for c in arc["tcgs"]
            ]
            for arc in payload["constraints"]
        }
        return EventStructure(payload["variables"], constraints)
    except (KeyError, TypeError) as exc:
        raise SerializationError("malformed structure payload: %s" % exc)


def complex_event_type_to_dict(cet: ComplexEventType) -> Dict[str, Any]:
    """Encode a complex event type (structure + assignment)."""
    return {
        "structure": structure_to_dict(cet.structure),
        "assignment": dict(cet.assignment),
    }


def complex_event_type_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> ComplexEventType:
    """Decode a complex event type."""
    structure = structure_from_dict(payload["structure"], system)
    return ComplexEventType(structure, payload["assignment"])


def problem_to_dict(problem: EventDiscoveryProblem) -> Dict[str, Any]:
    """Encode an event-discovery problem."""
    return {
        "structure": structure_to_dict(problem.structure),
        "min_confidence": problem.min_confidence,
        "reference_type": problem.reference_type,
        "candidates": {
            variable: sorted(pool) if pool is not None else None
            for variable, pool in problem.candidates.items()
        },
        "type_constraints": [
            {"kind": constraint.kind, "variables": list(constraint.variables)}
            for constraint in problem.type_constraints
        ],
    }


def problem_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> EventDiscoveryProblem:
    """Decode an event-discovery problem."""
    from ..mining.discovery import EventDiscoveryProblem, TypeConstraint

    structure = structure_from_dict(payload["structure"], system)
    candidates = {
        variable: frozenset(pool) if pool is not None else None
        for variable, pool in payload.get("candidates", {}).items()
    }
    type_constraints = tuple(
        TypeConstraint(item["kind"], item["variables"])
        for item in payload.get("type_constraints", ())
    )
    return EventDiscoveryProblem(
        structure=structure,
        min_confidence=float(payload["min_confidence"]),
        reference_type=payload["reference_type"],
        candidates=candidates,
        type_constraints=type_constraints,
    )


# ----------------------------------------------------------------------
# Sequences
# ----------------------------------------------------------------------
def sequence_to_dict(sequence: EventSequence) -> Dict[str, Any]:
    """Encode an event sequence."""
    return {"events": [[e.etype, e.time] for e in sequence]}


def sequence_from_dict(payload: Mapping[str, Any]) -> EventSequence:
    """Decode an event sequence."""
    try:
        return EventSequence(
            Event(etype, int(time)) for etype, time in payload["events"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("malformed sequence payload: %s" % exc)


# ----------------------------------------------------------------------
# Streaming-matcher checkpoints
# ----------------------------------------------------------------------
#: Payload format version for streaming checkpoints.
CHECKPOINT_VERSION = 1


def _encode_tag_state(state: Any) -> Any:
    """Encode a TAG state for JSON (builder states are int tuples).

    Tuples nest as ``{"t": [...]}`` so they survive the JSON round
    trip distinguishably from lists; ints and strings pass through.
    """
    if isinstance(state, tuple):
        return {"t": [_encode_tag_state(item) for item in state]}
    if isinstance(state, (int, str)):
        return state
    raise SerializationError(
        "cannot checkpoint TAG state %r (only tuples/ints/strings)"
        % (state,)
    )


def _decode_tag_state(payload: Any) -> Any:
    if isinstance(payload, Mapping) and "t" in payload:
        return tuple(_decode_tag_state(item) for item in payload["t"])
    if isinstance(payload, (int, str)):
        return payload
    raise SerializationError("malformed TAG state payload %r" % (payload,))


def frontier_to_dicts(dense, configs, last_time) -> List[Dict[str, Any]]:
    """Encode kernel configurations of ``dense`` (a
    :class:`~repro.automata.dense.DenseTAG`) in the v1 object form: TAG
    state, a reset time per clock name, the last consumed timestamp and
    the bindings.  Reset ticks are left out and recomputed on decode."""
    return [
        {
            "state": _encode_tag_state(dense.states[state]),
            "reset_times": dict(zip(dense.clock_names, resets)),
            "last_time": last_time,
            "bindings": [[variable, time] for variable, time in bindings],
        }
        for state, resets, _ticks, bindings in configs
    ]


def frontier_from_dicts(dense, payload) -> List[tuple]:
    """Decode :func:`frontier_to_dicts` output onto ``dense``'s tables."""
    configs = []
    with _malformed("configuration"):
        for config in payload:
            resets = tuple(
                int(config["reset_times"][name]) for name in dense.clock_names
            )
            configs.append((
                dense.state_index[_decode_tag_state(config["state"])],
                resets,
                tuple(
                    clock_tick_of(ttype, reset)
                    for ttype, reset in zip(dense.clock_types, resets)
                ),
                tuple(
                    (str(variable), int(time))
                    for variable, time in config.get("bindings", ())
                ),
            ))
    return configs


def streaming_checkpoint_to_dict(matcher) -> Dict[str, Any]:
    """Snapshot a :class:`~repro.automata.streaming.StreamingMatcher`.

    The payload carries the pattern (so the TAG can be rebuilt), decoded
    from the build's one encoding (``TagBuild.pattern_encoding``), the
    matcher's tuning parameters, every live anchor's frontier
    (:func:`frontier_to_dicts`; bindings included - they become
    detection output), the reorder buffer, and all counters.  It is
    pure JSON: write it with :func:`dump_json`, read it back with
    :func:`load_json`.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "pattern": marshal.loads(matcher.build.pattern_encoding),
        "strict": matcher.strict,
        "horizon_seconds": matcher.horizon_seconds,
        "max_live_anchors": matcher.max_live_anchors,
        "overflow_policy": matcher.overflow_policy,
        "last_time": matcher._last_time,
        "max_time_seen": matcher._max_time_seen,
        "counters": {
            name: getattr(matcher, name) for name in _CHECKPOINT_COUNTERS
        },
        "anchors": [
            {
                "time": anchor.time,
                "configs": frontier_to_dicts(
                    matcher.build.dense, anchor.frontier[0],
                    matcher._last_time,
                ),
            }
            for anchor in matcher._anchors
        ],
        "reorder": (
            matcher._buffer.to_dict() if matcher._buffer is not None else None
        ),
    }


_CHECKPOINT_COUNTERS = (
    "events_received", "events_processed", "detections_emitted",
    "anchors_shed",
)


def _check_version(payload: Mapping[str, Any]) -> None:
    if payload.get("version") != CHECKPOINT_VERSION:
        raise SerializationError(
            "unsupported checkpoint version %r (expected %d)"
            % (payload.get("version"), CHECKPOINT_VERSION)
        )


def restore_streaming_checkpoint(matcher, payload: Mapping[str, Any]) -> None:
    """Load :func:`streaming_checkpoint_to_dict` state onto ``matcher``.

    The one restore routine, run by
    :func:`streaming_matcher_from_checkpoint` and by the service's
    session registry.  The matcher keeps its build and parameters; the
    payload brings the stream position, counters, live anchors and
    reorder buffer.  A payload of another pattern raises
    :class:`SerializationError` instead of running that pattern.
    """
    from ..automata.streaming import _Anchor
    from ..resilience.reorder import ReorderBuffer

    _check_version(payload)
    build = matcher.build
    with _malformed("checkpoint"):
        if payload["pattern"] != marshal.loads(build.pattern_encoding):
            raise SerializationError(
                "checkpoint pattern differs from the matcher's pattern"
            )
        anchors = []
        for anchor in payload.get("anchors", ()):
            configs = frontier_from_dicts(build.dense, anchor["configs"])
            wanted = build.kernel.wanted_set(0, [c[0] for c in configs])
            anchors.append(
                _Anchor(int(anchor["time"]), {0: configs}, {0: wanted})
            )
        reorder = payload.get("reorder")
        buffer = None if reorder is None else ReorderBuffer.from_dict(reorder)
        last_time = payload.get("last_time")
        max_seen = payload.get("max_time_seen", last_time)
        counters = payload.get("counters", {})
        counts = {
            name: int(counters.get(name, 0)) for name in _CHECKPOINT_COUNTERS
        }
        last_time = int(last_time) if last_time is not None else None
        max_seen = int(max_seen) if max_seen is not None else None
    # Nothing is assigned until the whole payload has decoded.
    matcher._anchors = anchors
    if buffer is not None:
        matcher._buffer = buffer
    matcher._last_time = last_time
    matcher._max_time_seen = max_seen
    for name, count in counts.items():
        setattr(matcher, name, count)


def streaming_matcher_from_checkpoint(
    payload: Mapping[str, Any],
    system: Optional[GranularitySystem] = None,
):
    """Rebuild a matcher from :func:`streaming_checkpoint_to_dict`: the
    payload's pattern built with its parameters, then
    :func:`restore_streaming_checkpoint`.

    ``system`` defaults to :func:`repro.granularity.standard_system`;
    pass the original system when the pattern uses custom
    granularities registered there.
    """
    from ..automata.builder import build_tag
    from ..automata.streaming import StreamingMatcher
    from ..granularity.registry import standard_system

    _check_version(payload)
    system = system if system is not None else standard_system()
    with _malformed("checkpoint"):
        cet = complex_event_type_from_dict(payload["pattern"], system)
        horizon = payload.get("horizon_seconds")
        matcher = StreamingMatcher(
            build_tag(cet),
            strict=bool(payload.get("strict", False)),
            horizon_seconds=int(horizon) if horizon is not None else None,
            max_live_anchors=int(payload.get("max_live_anchors", 10_000)),
            overflow_policy=payload.get("overflow_policy", "raise"),
        )
    restore_streaming_checkpoint(matcher, payload)
    return matcher


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def dump_json(payload: Mapping[str, Any], target: Union[str, IO]) -> None:
    """Write a payload as pretty JSON to a path or file object."""
    if isinstance(target, str):
        with open(target, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    else:
        json.dump(payload, target, indent=2, sort_keys=True)


def load_json(source: Union[str, IO]) -> Any:
    """Read JSON from a path or file object."""
    if isinstance(source, str):
        with open(source) as handle:
            return json.load(handle)
    return json.load(source)
