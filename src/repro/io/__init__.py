"""Interchange formats: JSON payloads, CSV event logs, DOT graphs."""

from .._lazy import lazy_exports

_EXPORTS = {
    "SerializationError": "serialize",
    "granularity_to_dict": "serialize",
    "granularity_from_dict": "serialize",
    "tcg_to_dict": "serialize",
    "tcg_from_dict": "serialize",
    "structure_to_dict": "serialize",
    "structure_from_dict": "serialize",
    "complex_event_type_to_dict": "serialize",
    "complex_event_type_from_dict": "serialize",
    "problem_to_dict": "serialize",
    "problem_from_dict": "serialize",
    "sequence_to_dict": "serialize",
    "sequence_from_dict": "serialize",
    "frontier_to_dicts": "serialize",
    "frontier_from_dicts": "serialize",
    "streaming_checkpoint_to_dict": "serialize",
    "restore_streaming_checkpoint": "serialize",
    "streaming_matcher_from_checkpoint": "serialize",
    "dump_json": "serialize",
    "load_json": "serialize",
    "CsvFormatError": "csvlog",
    "parse_timestamp": "csvlog",
    "format_timestamp": "csvlog",
    "read_events": "csvlog",
    "write_events": "csvlog",
    "structure_to_dot": "dot",
    "tag_to_dot": "dot",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
