"""repro.obs: zero-dependency tracing, metrics and profiling.

The observability layer the rest of the pipeline is instrumented with
(see docs/OBSERVABILITY.md for the span taxonomy and metric catalog):

* **spans** - ``with span("propagate", variables=...)`` context managers
  collected into a tree by a :class:`Tracer` activated per thread
  (:func:`activate_tracer`); a no-op unless someone is tracing; every
  span carries ``trace_id``/``span_id``/``parent_id``, and a
  :class:`TraceContext` crosses process and task boundaries so worker
  spans re-parent under the span that caused them;
* **metrics** - a process-wide :class:`MetricsRegistry` of named
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments,
  default-on and cheap (the overhead-guard benchmark bounds them);
  histograms keep a span-id exemplar linking fat buckets to traces;
* **flight recorder** - an always-on bounded ring of completed spans
  with error/slow trigger capture (:func:`global_recorder`), dumped as
  schema-versioned JSON on breaker trips and chaos faults;
* **profiler** - a stdlib sampling wall-clock profiler
  (:class:`SamplingProfiler`) emitting folded stacks attributed to the
  active span, rendered by :func:`format_flame`;
* **exporters** - structured JSON traces (:func:`write_trace`), human
  tree summaries (:func:`format_span_tree`), and Prometheus text dumps
  (:func:`prometheus_text`, validated by :func:`lint_prometheus_text`
  including OpenMetrics exemplars).

``REPRO_OBS=off`` (or :func:`configure(enabled=False) <configure>`)
turns the whole layer into a no-op fast path; instrumented code keeps
returning bit-identical results either way (enforced by the
differential test in ``tests/obs/``).
"""

from .export import (
    SUPPORTED_TRACE_SCHEMAS,
    format_flame,
    format_flame_summary,
    format_span_tree,
    format_tree,
    lint_prometheus_text,
    load_trace,
    metrics_snapshot,
    prometheus_text,
    write_trace,
)
from .metrics import (
    CallbackMetric,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    counter_deltas,
    gauge,
    global_metrics,
    histogram,
    parse_sample_name,
    sample_name,
)
from .profile import PROFILE_SCHEMA_VERSION, SamplingProfiler
from .recorder import (
    RECORDER_SCHEMA_VERSION,
    FlightRecorder,
    global_recorder,
    load_flight_dump,
)
from .runtime import configure, obs_debug, obs_enabled
from .trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    TraceContext,
    Tracer,
    activate_tracer,
    current_context,
    current_tracer,
    linked_span,
    new_span_id,
    new_trace_id,
    span,
)

# Mirror the flight recorder's lifetime totals into the registry so a
# metrics scrape shows whether the black box is seeing (and capturing)
# spans.  Callback counters read at export time - the record hot path
# pays nothing for them.
global_metrics().counter_callback(
    "repro_obs_recorded_spans_total",
    lambda: global_recorder().recorded,
    help="Spans appended to the flight-recorder ring",
)
global_metrics().counter_callback(
    "repro_obs_recorder_triggers_total",
    lambda: global_recorder().triggered,
    help="Spans captured by a flight-recorder trigger (error or slow)",
)
global_metrics().counter_callback(
    "repro_obs_recorder_dumps_total",
    lambda: global_recorder().dumps,
    help="Flight-recorder dumps taken",
)

__all__ = [
    "configure",
    "obs_enabled",
    "obs_debug",
    "parse_sample_name",
    "Counter",
    "Gauge",
    "Histogram",
    "CallbackMetric",
    "MetricsRegistry",
    "global_metrics",
    "counter",
    "gauge",
    "histogram",
    "counter_deltas",
    "sample_name",
    "Span",
    "TraceContext",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "span",
    "linked_span",
    "activate_tracer",
    "current_tracer",
    "current_context",
    "new_trace_id",
    "new_span_id",
    "FlightRecorder",
    "global_recorder",
    "load_flight_dump",
    "RECORDER_SCHEMA_VERSION",
    "SamplingProfiler",
    "PROFILE_SCHEMA_VERSION",
    "write_trace",
    "load_trace",
    "SUPPORTED_TRACE_SCHEMAS",
    "format_span_tree",
    "format_tree",
    "format_flame",
    "format_flame_summary",
    "prometheus_text",
    "lint_prometheus_text",
    "metrics_snapshot",
]
