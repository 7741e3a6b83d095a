"""The overhead guard: default-on counters must stay near-free.

Benchmarks the X4 workload (random 48-node DAG propagation - the
hottest instrumented path) with observability on and off, interleaved
to cancel thermal/scheduler drift, and asserts the default-on counters
cost less than 5% of median wall time (plus a small absolute floor so
sub-millisecond jitter cannot fail the build on a noisy machine).
"""

import random
import statistics
import time

import pytest

from repro.constraints import propagate
from repro.granularity import standard_system
from repro.obs import configure, obs_enabled

from benchmarks.harness import consistent_random_dag

ROUNDS = 7
TOLERANCE = 0.05
#: Absolute jitter floor (seconds): a difference smaller than this is
#: scheduler noise, not overhead, regardless of the ratio.
JITTER_FLOOR = 0.010


@pytest.mark.benchmark
def test_default_on_counters_add_under_five_percent():
    system = standard_system()
    structure = consistent_random_dag(48, system, random.Random(48))
    previous = obs_enabled()

    def timed(enabled):
        configure(enabled)
        start = time.perf_counter()
        propagate(structure, system)
        return time.perf_counter() - start

    try:
        # Warm caches and code paths once per mode before measuring.
        timed(True)
        timed(False)
        on_times, off_times = [], []
        for _ in range(ROUNDS):
            on_times.append(timed(True))
            off_times.append(timed(False))
    finally:
        configure(previous)

    on_median = statistics.median(on_times)
    off_median = statistics.median(off_times)
    overhead = on_median - off_median
    assert (
        overhead <= off_median * TOLERANCE or overhead <= JITTER_FLOOR
    ), (
        "observability overhead too high: on=%.6fs off=%.6fs (+%.2f%%)"
        % (on_median, off_median, 100 * overhead / off_median)
    )


@pytest.mark.benchmark
def test_flight_recorder_adds_under_five_percent_to_traced_runs():
    """The default-on recorder rides close_span; a traced X4 run with
    the recorder at default capacity must stay within 5% of the same
    run with the recorder disabled."""
    from repro.obs import FlightRecorder, Tracer, activate_tracer
    from repro.obs import trace as trace_module

    system = standard_system()
    structure = consistent_random_dag(48, system, random.Random(48))
    previous = obs_enabled()
    previous_hook = trace_module._RECORDER_HOOK
    recording = FlightRecorder(capacity=256, slow_ms=250.0)
    disabled = FlightRecorder(capacity=0)

    def timed(recorder):
        trace_module._install_recorder(recorder)
        tracer = Tracer()
        with activate_tracer(tracer):
            start = time.perf_counter()
            propagate(structure, system)
            return time.perf_counter() - start

    try:
        configure(True)
        timed(recording)
        timed(disabled)
        on_times, off_times = [], []
        for _ in range(ROUNDS):
            on_times.append(timed(recording))
            off_times.append(timed(disabled))
    finally:
        configure(previous)
        trace_module._install_recorder(previous_hook)

    assert recording.recorded > 0  # the guard measured a live recorder
    on_median = statistics.median(on_times)
    off_median = statistics.median(off_times)
    overhead = on_median - off_median
    assert (
        overhead <= off_median * TOLERANCE or overhead <= JITTER_FLOOR
    ), (
        "flight-recorder overhead too high: on=%.6fs off=%.6fs (+%.2f%%)"
        % (on_median, off_median, 100 * overhead / off_median)
    )
