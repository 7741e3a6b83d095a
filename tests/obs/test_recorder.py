"""Flight recorder: ring behaviour, triggers, dumps, settings."""

import pytest

from repro.obs import (
    FlightRecorder,
    Tracer,
    activate_tracer,
    global_recorder,
    load_flight_dump,
    span,
)
from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    DEFAULT_SLOW_MS,
    RECORDER_SCHEMA_VERSION,
)
from repro.obs import trace as trace_module


@pytest.fixture
def recorder(obs_on):
    """A fresh recorder installed as the close-span hook, restored
    afterwards (the process-wide recorder keeps running either way)."""
    fresh = FlightRecorder(capacity=8, slow_ms=250.0)
    previous = trace_module._RECORDER_HOOK
    trace_module._install_recorder(fresh)
    yield fresh
    trace_module._install_recorder(previous)


def _run_span(name, duration_ns=0, error=False):
    tracer = Tracer()
    with activate_tracer(tracer):
        if error:
            with pytest.raises(RuntimeError):
                with span(name):
                    raise RuntimeError("boom")
        else:
            with span(name):
                pass
    # Make the duration deterministic for trigger tests.
    tracer.roots[0].end_ns = tracer.roots[0].start_ns + duration_ns
    return tracer.roots[0]


class TestRingBehaviour:
    def test_every_closed_span_lands_in_recent(self, recorder):
        tracer = Tracer()
        with activate_tracer(tracer):
            with span("outer"):
                with span("inner"):
                    pass
        names = [record["name"] for record in recorder.recent()]
        assert names == ["inner", "outer"]  # close order
        assert recorder.recorded == 2
        assert recorder.captured() == []

    def test_records_are_flat_and_carry_identity(self, recorder):
        tracer = Tracer()
        with activate_tracer(tracer):
            with span("outer"):
                with span("inner", shard=3):
                    pass
        inner = recorder.recent()[0]
        assert inner["trace_id"] == tracer.trace_id
        assert inner["parent_id"] == tracer.roots[0].span_id
        assert inner["attributes"] == {"shard": 3}
        assert "children" not in inner

    def test_ring_is_bounded(self, recorder):
        tracer = Tracer()
        with activate_tracer(tracer):
            for index in range(20):
                with span("s%d" % index):
                    pass
        recent = recorder.recent()
        assert len(recent) == 8
        assert recent[0]["name"] == "s12"
        assert recorder.recorded == 20

    def test_disabled_recorder_records_nothing(self, obs_on):
        recorder = FlightRecorder(capacity=0)
        assert not recorder.active
        recorder.note("ignored", status="error")
        assert recorder.recent() == []

    def test_obs_off_gates_recording(self, recorder, obs_off):
        recorder.note("ignored", status="error")
        assert recorder.recent() == []


class TestTriggers:
    def test_error_span_is_captured(self, recorder):
        tracer = Tracer()
        with activate_tracer(tracer):
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError
        captured = recorder.captured()
        assert [record["trigger"] for record in captured] == ["error"]
        assert captured[0]["name"] == "doomed"
        assert recorder.triggered == 1

    def test_slow_span_is_captured(self, obs_on):
        recorder = FlightRecorder(capacity=8, slow_ms=0.0)
        record_span = _run_span("anything")
        recorder.record(record_span)
        assert recorder.captured()[0]["trigger"] == "slow"

    def test_fast_ok_span_is_not_captured(self, obs_on):
        recorder = FlightRecorder(capacity=8, slow_ms=1000.0)
        recorder.record(_run_span("quick", duration_ns=10))
        assert recorder.recent() != []
        assert recorder.captured() == []

    def test_slow_threshold_is_milliseconds(self, obs_on):
        recorder = FlightRecorder(capacity=8, slow_ms=1.0)
        recorder.record(_run_span("slow", duration_ns=2_000_000))
        recorder.record(_run_span("fast", duration_ns=500_000))
        assert [r["name"] for r in recorder.captured()] == ["slow"]

    def test_error_note_is_captured_without_a_tracer(self, recorder):
        recorder.note(
            "service.reject", status="error",
            tenant="acme", reason="bad event",
        )
        captured = recorder.captured()
        assert captured[0]["trigger"] == "error"
        assert captured[0]["attributes"]["tenant"] == "acme"
        assert captured[0]["trace_id"] is None


class TestDumps:
    def test_dump_round_trips_through_json(self, recorder, tmp_path):
        recorder.note("incident", status="error", detail="x")
        path = str(tmp_path / "flight.json")
        payload = recorder.dump(path, reason="unit-test")
        loaded = load_flight_dump(path)
        assert loaded == payload
        assert loaded["schema"] == RECORDER_SCHEMA_VERSION
        assert loaded["reason"] == "unit-test"
        assert loaded["captured"][0]["name"] == "incident"
        assert recorder.dumps == 1

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="schema"):
            load_flight_dump(str(path))

    def test_clear_empties_rings_but_keeps_totals(self, recorder):
        recorder.note("a", status="error")
        recorder.clear()
        assert recorder.recent() == []
        assert recorder.captured() == []
        assert recorder.recorded == 1
        assert recorder.triggered == 1


class TestKnobs:
    def test_configure_defaults_are_the_module_constants(self):
        recorder = FlightRecorder(capacity=0, slow_ms=5.0)
        assert not recorder.active
        recorder.configure()
        assert recorder.active
        assert recorder.capacity == DEFAULT_CAPACITY
        assert recorder.slow_ms == DEFAULT_SLOW_MS
        recorder.configure(capacity=-3, slow_ms=-1.0)
        assert (recorder.capacity, recorder.slow_ms) == (0, 0.0)

    def test_global_recorder_is_the_close_span_hook(self):
        # The import-time wiring: whatever recorder.py installed is the
        # process-wide singleton (unless a test swapped it temporarily).
        assert trace_module._RECORDER_HOOK is global_recorder()
