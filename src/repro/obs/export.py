"""Exporters: JSON trace files, human tree summaries, Prometheus text.

Three consumers, three formats:

* machines replaying a run read the structured JSON written by
  :func:`write_trace` (and loaded back by :func:`load_trace`);
* humans skim :func:`format_span_tree` (the ``repro obs`` output) and
  :func:`format_tree` (nested mappings as the same box-drawing tree -
  the benchmark runner renders counter dicts and delta tables through
  it);
* scrapers ingest :func:`prometheus_text`, the Prometheus text
  exposition format (0.0.4) with proper HELP/label escaping, which
  :func:`lint_prometheus_text` validates line by line (the CI
  format-lint step).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .metrics import (
    Histogram,
    MetricsRegistry,
    global_metrics,
)
from .trace import TRACE_SCHEMA_VERSION, Tracer

#: Trace schemas load_trace accepts: v1 predates span ids (the fields
#: read back as absent/None); v2 is what write_trace emits today.
SUPPORTED_TRACE_SCHEMAS = (1, TRACE_SCHEMA_VERSION)

# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------
def write_trace(tracer_or_payload: Union[Tracer, Dict], path: str) -> None:
    """Write a tracer (or its payload dict) as stable JSON."""
    payload = (
        tracer_or_payload.to_dict()
        if isinstance(tracer_or_payload, Tracer)
        else tracer_or_payload
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_trace(path: str) -> Dict:
    """Read a ``--trace`` payload back (validating the schema field)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") not in SUPPORTED_TRACE_SCHEMAS:
        raise ValueError(
            "unsupported trace schema %r in %s (expected one of %s)"
            % (
                payload.get("schema"),
                path,
                ", ".join(str(v) for v in SUPPORTED_TRACE_SCHEMAS),
            )
        )
    return payload


# ----------------------------------------------------------------------
# Human tree rendering
# ----------------------------------------------------------------------
def _fmt_duration(duration_ns: Optional[int]) -> str:
    if duration_ns is None:
        return "open"
    if duration_ns >= 1_000_000_000:
        return "%.2fs" % (duration_ns / 1e9)
    if duration_ns >= 1_000_000:
        return "%.1fms" % (duration_ns / 1e6)
    if duration_ns >= 1_000:
        return "%.1fus" % (duration_ns / 1e3)
    return "%dns" % duration_ns


def _span_label(node: Mapping[str, Any]) -> str:
    attributes = node.get("attributes") or {}
    label = node["name"]
    if attributes:
        label += " [%s]" % ", ".join(
            "%s=%s" % (key, attributes[key]) for key in sorted(attributes)
        )
    label += "  %s" % _fmt_duration(node.get("duration_ns"))
    if node.get("status") == "error":
        label += "  !error"
    return label


def _walk_spans(
    nodes: Sequence[Mapping[str, Any]],
    lines: List[str],
    prefix: str,
    max_children: int,
) -> None:
    shown = list(nodes[:max_children])
    hidden = nodes[max_children:]
    total = len(shown) + (1 if hidden else 0)
    for index, node in enumerate(shown):
        last = index == total - 1
        branch = "`- " if last else "|- "
        lines.append(prefix + branch + _span_label(node))
        child_prefix = prefix + ("   " if last else "|  ")
        _walk_spans(
            node.get("children") or (), lines, child_prefix, max_children
        )
    if hidden:
        hidden_ns = sum(
            node.get("duration_ns") or 0 for node in hidden
        )
        lines.append(
            prefix + "`- ... %d more spans collapsed (%s total)"
            % (
                sum(_count_spans(node) for node in hidden),
                _fmt_duration(hidden_ns),
            )
        )


def _count_spans(node: Mapping[str, Any]) -> int:
    return 1 + sum(
        _count_spans(child) for child in node.get("children") or ()
    )


def format_span_tree(
    payload: Union[Tracer, Mapping[str, Any]],
    max_children: int = 12,
) -> str:
    """Render a trace payload as an indented tree with durations.

    ``max_children`` bounds the siblings printed per parent; the rest
    are collapsed into one summary line (the JSON file keeps them all).
    """
    if isinstance(payload, Tracer):
        payload = payload.to_dict()
    roots = payload.get("spans") or []
    total = sum(_count_spans(node) for node in roots)
    total_ns = sum(node.get("duration_ns") or 0 for node in roots)
    lines = [
        "trace: %d span%s, %s"
        % (total, "" if total == 1 else "s", _fmt_duration(total_ns))
    ]
    _walk_spans(roots, lines, "", max_children)
    return "\n".join(lines)


def format_tree(data: Mapping[str, Any], title: Optional[str] = None) -> str:
    """Render a nested mapping with the same tree glyphs.

    Scalars print inline; nested mappings recurse.  The benchmark
    runner uses this for counter dicts and per-experiment delta tables.
    """
    lines: List[str] = [title] if title else []

    def walk(mapping: Mapping[str, Any], prefix: str) -> None:
        items = sorted(mapping.items(), key=lambda kv: str(kv[0]))
        for index, (key, value) in enumerate(items):
            last = index == len(items) - 1
            branch = "`- " if last else "|- "
            child_prefix = prefix + ("   " if last else "|  ")
            if isinstance(value, Mapping):
                lines.append(prefix + branch + str(key))
                walk(value, child_prefix)
            else:
                lines.append(prefix + branch + "%s: %s" % (key, value))

    walk(data, "")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_sample_value(value: Union[int, float, None]) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _label_string(items) -> str:
    if not items:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (key, _escape_label_value(value))
        for key, value in items
    )


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    Counters and gauges emit one sample per label set; histograms emit
    a ``summary`` family (quantile samples plus ``_sum``/``_count``),
    which matches the bounded-window quantile estimates they keep.
    """
    registry = registry if registry is not None else global_metrics()
    families: Dict[str, List] = {}
    for metric in registry.metrics():
        families.setdefault(metric.name, []).append(metric)
    lines: List[str] = []
    for name in sorted(families):
        members = families[name]
        kind = members[0].kind
        help_text = next(
            (m.help for m in members if m.help), ""
        )
        if help_text:
            lines.append("# HELP %s %s" % (name, _escape_help(help_text)))
        lines.append(
            "# TYPE %s %s"
            % (name, "summary" if kind == "histogram" else kind)
        )
        for metric in members:
            if isinstance(metric, Histogram):
                for q in (0.5, 0.9, 0.99):
                    items = metric.labels + (("quantile", "%g" % q),)
                    lines.append(
                        "%s%s %s"
                        % (
                            name,
                            _label_string(items),
                            _fmt_sample_value(metric.quantile(q)),
                        )
                    )
                suffix_labels = _label_string(metric.labels)
                lines.append(
                    "%s_sum%s %s"
                    % (name, suffix_labels, _fmt_sample_value(metric.sum))
                )
                count_line = "%s_count%s %s" % (
                    name, suffix_labels, metric.count
                )
                exemplar = metric.exemplar
                if exemplar is not None:
                    trace_id, span_id, value = exemplar
                    count_line += (
                        ' # {trace_id="%s",span_id="%s"} %s'
                        % (
                            _escape_label_value(trace_id),
                            _escape_label_value(span_id),
                            _fmt_sample_value(value),
                        )
                    )
                lines.append(count_line)
            else:
                lines.append(
                    "%s%s %s"
                    % (
                        name,
                        _label_string(metric.labels),
                        _fmt_sample_value(metric.value()),
                    )
                )
    return "\n".join(lines) + ("\n" if lines else "")


_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(r"^# HELP (%s) (.*)$" % _METRIC_NAME)
_TYPE_RE = re.compile(
    r"^# TYPE (%s) (counter|gauge|summary|histogram|untyped)$"
    % _METRIC_NAME
)
_LABELS_RE = re.compile(
    r"^\{\s*%s\s*=\s*\"(?:[^\"\\\n]|\\[\\\"n])*\"\s*"
    r"(?:,\s*%s\s*=\s*\"(?:[^\"\\\n]|\\[\\\"n])*\"\s*)*,?\}$"
    % (_METRIC_NAME, _METRIC_NAME)
)
_SAMPLE_RE = re.compile(
    r"^(%s)(\{[^}]*\})? ([^ ]+)( [0-9]+)?$" % _METRIC_NAME
)
# OpenMetrics exemplar suffix: `sample # {labels} value [timestamp]`.
_EXEMPLAR_RE = re.compile(
    r"^(?P<sample>.+?) # (?P<labels>\{[^}]*\})"
    r" (?P<value>[^ ]+)(?P<timestamp> [0-9]+(?:\.[0-9]+)?)?$"
)


def _valid_sample_value(text: str) -> bool:
    if text in ("+Inf", "-Inf", "NaN"):
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


def lint_prometheus_text(text: str) -> List[str]:
    """Validate a Prometheus text dump; returns a list of problems.

    Checks the line grammar (HELP/TYPE comments, sample syntax, label
    quoting/escaping, numeric values), that no family declares TYPE
    twice, and that every sample follows its family's TYPE line when
    one exists.  An empty list means the dump is well-formed.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if _HELP_RE.match(line):
                continue
            match = _TYPE_RE.match(line)
            if match:
                name = match.group(1)
                if name in typed:
                    errors.append(
                        "line %d: duplicate TYPE for %r" % (number, name)
                    )
                typed[name] = match.group(2)
                continue
            errors.append(
                "line %d: malformed comment (expected '# HELP name text' "
                "or '# TYPE name kind'): %r" % (number, line)
            )
            continue
        sample_line = line
        match = _SAMPLE_RE.match(sample_line)
        if not match and " # " in line:
            # Not a bare sample: try the OpenMetrics exemplar form.
            exemplar = _EXEMPLAR_RE.match(line)
            if not exemplar:
                errors.append(
                    "line %d: malformed exemplar: %r" % (number, line)
                )
                continue
            if not _LABELS_RE.match(exemplar.group("labels")):
                errors.append(
                    "line %d: malformed exemplar labels %r"
                    % (number, exemplar.group("labels"))
                )
            if not _valid_sample_value(exemplar.group("value")):
                errors.append(
                    "line %d: invalid exemplar value %r"
                    % (number, exemplar.group("value"))
                )
            sample_line = exemplar.group("sample")
            match = _SAMPLE_RE.match(sample_line)
        if not match:
            errors.append("line %d: malformed sample: %r" % (number, line))
            continue
        name, labels, value = match.group(1), match.group(2), match.group(3)
        if labels and not _LABELS_RE.match(labels):
            errors.append(
                "line %d: malformed labels %r" % (number, labels)
            )
        if not _valid_sample_value(value):
            errors.append(
                "line %d: invalid sample value %r" % (number, value)
            )
        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        if typed and family not in typed:
            errors.append(
                "line %d: sample %r has no preceding TYPE line"
                % (number, name)
            )
    return errors


# ----------------------------------------------------------------------
# Folded-stack (flamegraph) rendering
# ----------------------------------------------------------------------
def format_flame(
    samples: Mapping[str, int], max_rows: Optional[int] = None
) -> str:
    """Render profiler folded stacks in collapsed flamegraph format.

    One line per distinct stack - ``frame;frame;leaf count`` - hottest
    first (ties break alphabetically, so output is deterministic).
    The text pipes straight into ``flamegraph.pl`` or speedscope;
    ``repro obs flame TRACE.json`` prints it for the profile embedded
    in a trace or bench payload.
    """
    rows = sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_rows is not None:
        rows = rows[:max_rows]
    return "\n".join("%s %d" % (stack, count) for stack, count in rows)


def format_flame_summary(samples: Mapping[str, int]) -> str:
    """One human line: total samples and distinct stacks."""
    total = sum(samples.values())
    return "profile: %d sample%s across %d distinct stack%s" % (
        total,
        "" if total == 1 else "s",
        len(samples),
        "" if len(samples) == 1 else "s",
    )


def metrics_snapshot(
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Convenience: the global (or given) registry's flat snapshot."""
    registry = registry if registry is not None else global_metrics()
    return registry.snapshot()
