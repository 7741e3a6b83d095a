"""Checkpoint/restore of the streaming matcher."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import StreamingMatcher, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.granularity.gregorian import SECONDS_PER_HOUR
from repro.io.serialize import (
    SerializationError,
    frontier_from_dicts,
    frontier_to_dicts,
    streaming_matcher_from_checkpoint,
)

from benchmarks.harness import figure_1a

H = SECONDS_PER_HOUR
D = 24 * H

SYSTEM = standard_system()


def _module_chain_cet():
    """Module-level twin of the ``chain_cet`` fixture, for Hypothesis
    tests (which cannot take function-scoped fixtures)."""
    hour = SYSTEM.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    return ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})


CHAIN_CET = _module_chain_cet()


def detections_as_json(detections):
    """Canonical byte form used for exact-equality assertions."""
    return json.dumps(
        [
            [d.anchor_time, d.detected_at, sorted(d.bindings.items())]
            for d in detections
        ],
        sort_keys=True,
    )


class TestConfigurationPayload:
    """The frontier codec: kernel configurations to and from the v1
    object form (TAG state, reset time per clock name, bindings)."""

    def test_roundtrip(self, chain_cet):
        build = build_tag(chain_cet)
        matcher = StreamingMatcher(build)
        matcher.feed("a", 0)
        matcher.feed("b", H)
        (anchor,) = matcher._anchors
        configs = anchor.frontier[0]
        assert len(configs) == 2
        payload = json.loads(
            json.dumps(frontier_to_dicts(build.dense, configs, H))
        )
        assert [config["state"] for config in payload] == [
            {"t": [1]}, {"t": [2]},
        ]
        assert all(config["last_time"] == H for config in payload)
        # Reset ticks are recomputed from the reset times on decode.
        assert frontier_from_dicts(build.dense, payload) == configs

    def test_malformed_payload_rejected(self, chain_cet):
        dense = build_tag(chain_cet).dense
        clocks = {name: 0 for name in dense.clock_names}
        for payload in (
            [{"state": {"bogus": 1}, "reset_times": clocks}],
            [{"state": {"t": [7]}, "reset_times": clocks}],
            [{"state": {"t": [1]}, "reset_times": {"c9:hour": 0}}],
            [{"state": {"t": [1]}}],
        ):
            with pytest.raises(SerializationError):
                frontier_from_dicts(dense, payload)


def _module_diamond_cet():
    """The Figure 1(a) diamond: b-day, week and hour clocks, the b-day
    one with gaps (it covers days 0-4 of each week, counted from day 0
    of the epoch)."""
    return ComplexEventType(
        figure_1a(SYSTEM), {"X0": "a", "X1": "b", "X2": "c", "X3": "d"}
    )


DIAMOND_CET = _module_diamond_cet()

#: A stream over the diamond, starting on day 7 (b-day covered).
T0 = 7 * D
DIAMOND_EVENTS = [
    ("a", T0 + 9 * H), ("c", T0 + 10 * H), ("a", T0 + 11 * H),
    ("noise", T0 + 12 * H), ("b", T0 + D + 9 * H), ("c", T0 + D + 10 * H),
    ("a", T0 + D + 11 * H), ("b", T0 + 2 * D + 12 * H),
    ("c", T0 + 2 * D + 13 * H), ("d", T0 + 2 * D + 14 * H),
    ("d", T0 + 2 * D + 20 * H), ("c", T0 + 3 * D + 9 * H),
    ("d", T0 + 3 * D + 10 * H), ("noise", T0 + 5 * D + 9 * H),
]

#: ``StreamingMatcher.checkpoint()`` after the first seven events of
#: ``DIAMOND_EVENTS`` (horizon six days), as written by the matcher
#: that advanced object configurations before the dense kernel took
#: over: three live anchors, the first with six configurations.
OBJECT_MATCHER_CHECKPOINT = (
    {'anchors': [{'configs': [{'bindings': [['X0', 637200]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 637200,
                                               'c0:week': 637200,
                                               'c1:b-day': 637200,
                                               'c1:hour': 637200},
                               'state': {'t': [1, 1]}},
                              {'bindings': [['X0', 637200], ['X2', 727200]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 637200,
                                               'c0:week': 637200,
                                               'c1:b-day': 727200,
                                               'c1:hour': 727200},
                               'state': {'t': [1, 2]}},
                              {'bindings': [['X0', 637200], ['X1', 723600]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 723600,
                                               'c0:week': 723600,
                                               'c1:b-day': 637200,
                                               'c1:hour': 637200},
                               'state': {'t': [2, 1]}},
                              {'bindings': [['X0', 637200],
                                            ['X1', 723600],
                                            ['X2', 727200]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 723600,
                                               'c0:week': 723600,
                                               'c1:b-day': 727200,
                                               'c1:hour': 727200},
                               'state': {'t': [2, 2]}},
                              {'bindings': [['X0', 637200], ['X2', 640800]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 637200,
                                               'c0:week': 637200,
                                               'c1:b-day': 640800,
                                               'c1:hour': 640800},
                               'state': {'t': [1, 2]}},
                              {'bindings': [['X0', 637200],
                                            ['X2', 640800],
                                            ['X1', 723600]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 723600,
                                               'c0:week': 723600,
                                               'c1:b-day': 640800,
                                               'c1:hour': 640800},
                               'state': {'t': [2, 2]}}],
                  'time': 637200},
                 {'configs': [{'bindings': [['X0', 644400]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 644400,
                                               'c0:week': 644400,
                                               'c1:b-day': 644400,
                                               'c1:hour': 644400},
                               'state': {'t': [1, 1]}},
                              {'bindings': [['X0', 644400], ['X2', 727200]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 644400,
                                               'c0:week': 644400,
                                               'c1:b-day': 727200,
                                               'c1:hour': 727200},
                               'state': {'t': [1, 2]}},
                              {'bindings': [['X0', 644400], ['X1', 723600]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 723600,
                                               'c0:week': 723600,
                                               'c1:b-day': 644400,
                                               'c1:hour': 644400},
                               'state': {'t': [2, 1]}},
                              {'bindings': [['X0', 644400],
                                            ['X1', 723600],
                                            ['X2', 727200]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 723600,
                                               'c0:week': 723600,
                                               'c1:b-day': 727200,
                                               'c1:hour': 727200},
                               'state': {'t': [2, 2]}}],
                  'time': 644400},
                 {'configs': [{'bindings': [['X0', 730800]],
                               'last_time': 730800,
                               'reset_times': {'c0:b-day': 730800,
                                               'c0:week': 730800,
                                               'c1:b-day': 730800,
                                               'c1:hour': 730800},
                               'state': {'t': [1, 1]}}],
                  'time': 730800}],
     'counters': {'anchors_shed': 0,
                  'detections_emitted': 0,
                  'events_processed': 7,
                  'events_received': 7},
     'horizon_seconds': 518400,
     'last_time': 730800,
     'max_live_anchors': 10000,
     'max_time_seen': 730800,
     'overflow_policy': 'raise',
     'pattern': {'assignment': {'X0': 'a', 'X1': 'b', 'X2': 'c', 'X3': 'd'},
                 'structure': {'constraints': [{'from': 'X0',
                                                'tcgs': [{'granularity': {'holidays': [],
                                                                          'kind': 'businessday',
                                                                          'label': 'b-day',
                                                                          'workdays': [0,
                                                                                       1,
                                                                                       2,
                                                                                       3,
                                                                                       4]},
                                                          'm': 1,
                                                          'n': 1}],
                                                'to': 'X1'},
                                               {'from': 'X1',
                                                'tcgs': [{'granularity': {'kind': 'uniform',
                                                                          'label': 'week',
                                                                          'phase': 0,
                                                                          'seconds_per_tick': 604800},
                                                          'm': 0,
                                                          'n': 1}],
                                                'to': 'X3'},
                                               {'from': 'X0',
                                                'tcgs': [{'granularity': {'holidays': [],
                                                                          'kind': 'businessday',
                                                                          'label': 'b-day',
                                                                          'workdays': [0,
                                                                                       1,
                                                                                       2,
                                                                                       3,
                                                                                       4]},
                                                          'm': 0,
                                                          'n': 5}],
                                                'to': 'X2'},
                                               {'from': 'X2',
                                                'tcgs': [{'granularity': {'kind': 'uniform',
                                                                          'label': 'hour',
                                                                          'phase': 0,
                                                                          'seconds_per_tick': 3600},
                                                          'm': 0,
                                                          'n': 8}],
                                                'to': 'X3'}],
                               'variables': ['X0', 'X1', 'X2', 'X3']}},
     'reorder': None,
     'strict': False,
     'version': 1}
)

#: What the uninterrupted run of that matcher detected.
OBJECT_MATCHER_DETECTIONS = [
    [637200, 828000,
     [["X0", 637200], ["X1", 723600], ["X2", 824400], ["X3", 828000]]],
    [644400, 828000,
     [["X0", 644400], ["X1", 723600], ["X2", 824400], ["X3", 828000]]],
    [730800, 828000,
     [["X0", 730800], ["X1", 820800], ["X2", 824400], ["X3", 828000]]],
]


class TestObjectMatcherCheckpoint:
    """A v1 payload written mid-stream by the object-configuration
    matcher still restores, onto a rebuilt matcher or onto one already
    built over the pattern, and finishes the stream exactly as the
    uninterrupted run does - detections and bindings."""

    CUT = 7

    def _uninterrupted(self):
        matcher = StreamingMatcher(
            build_tag(DIAMOND_CET, system=SYSTEM), horizon_seconds=6 * D
        )
        return [d for e, t in DIAMOND_EVENTS for d in matcher.feed(e, t)]

    def test_literal_matches_this_stream(self):
        matcher = StreamingMatcher(
            build_tag(DIAMOND_CET, system=SYSTEM), horizon_seconds=6 * D
        )
        for etype, time in DIAMOND_EVENTS[: self.CUT]:
            matcher.feed(etype, time)
        payload = json.loads(json.dumps(matcher.checkpoint()))
        assert payload == OBJECT_MATCHER_CHECKPOINT

    def test_uninterrupted_run_matches_the_object_matcher(self):
        assert json.loads(detections_as_json(self._uninterrupted())) == (
            OBJECT_MATCHER_DETECTIONS
        )

    def test_rebuilt_matcher_finishes_the_stream(self):
        resumed = streaming_matcher_from_checkpoint(
            OBJECT_MATCHER_CHECKPOINT, SYSTEM
        )
        assert resumed.live_anchors == 3
        rest = [
            d for e, t in DIAMOND_EVENTS[self.CUT:] for d in resumed.feed(e, t)
        ]
        assert detections_as_json(rest) == detections_as_json(
            self._uninterrupted()
        )

    def test_restore_onto_a_built_matcher(self):
        build = build_tag(DIAMOND_CET, system=SYSTEM)
        resumed = StreamingMatcher(build, horizon_seconds=6 * D)
        resumed.restore(OBJECT_MATCHER_CHECKPOINT)
        assert resumed.kernel is build.kernel
        # Written back from the build's one pattern encoding, unchanged.
        assert json.loads(json.dumps(resumed.checkpoint())) == (
            OBJECT_MATCHER_CHECKPOINT
        )
        rest = [
            d for e, t in DIAMOND_EVENTS[self.CUT:] for d in resumed.feed(e, t)
        ]
        assert detections_as_json(rest) == detections_as_json(
            self._uninterrupted()
        )

    def test_restore_refuses_another_pattern(self):
        matcher = StreamingMatcher(build_tag(CHAIN_CET, system=SYSTEM))
        with pytest.raises(SerializationError):
            matcher.restore(OBJECT_MATCHER_CHECKPOINT)


class TestOnePatternEncoding:
    """A build encodes its pattern once; checkpoints carry copies."""

    def test_churned_service_encodes_once_per_build(self, monkeypatch):
        from repro.io import serialize
        from repro.service import ServiceConfig, serve_events

        encoded = []
        encode = serialize.complex_event_type_to_dict

        def counted(cet):
            encoded.append(cet)
            return encode(cet)

        monkeypatch.setattr(
            serialize, "complex_event_type_to_dict", counted
        )
        build = build_tag(CHAIN_CET, system=SYSTEM)
        # Five tenants round-robin over one resident slot: every event
        # evicts one session (a checkpoint write) and rehydrates another
        # (a restore).
        events = [
            ("t%d" % (index % 5), "k", "abc"[index % 3], index * 600)
            for index in range(40)
        ]
        service = serve_events(
            build, events, config=ServiceConfig(max_resident_sessions=1)
        )
        registry = service.registry.stats()
        assert registry["evictions"] > 30 and registry["rehydrations"] > 30
        assert encoded == [CHAIN_CET]

    def test_editing_a_checkpoint_leaves_the_build_alone(self):
        build = build_tag(CHAIN_CET, system=SYSTEM)
        matcher = StreamingMatcher(build)
        matcher.feed("a", 0)
        edited = matcher.checkpoint()
        pristine = json.loads(json.dumps(edited))
        edited["pattern"]["assignment"]["A"] = "z"
        edited["pattern"]["structure"]["constraints"][0]["tcgs"][0]["n"] = 9
        assert matcher.checkpoint() == pristine
        StreamingMatcher(build).restore(pristine)
        with pytest.raises(SerializationError):
            StreamingMatcher(build).restore(edited)


class TestCheckpointRestore:
    EVENTS = [
        ("a", 0), ("noise", 30 * 60), ("a", H), ("b", H + 1800),
        ("b", 2 * H), ("c", 3 * H), ("a", 5 * H), ("b", 6 * H),
        ("c", 7 * H), ("noise", 8 * H),
    ]

    @pytest.mark.parametrize("cut", [1, 3, 5, 7, 9])
    def test_resume_mid_stream_is_byte_identical(
        self, system, chain_cet, cut
    ):
        uninterrupted = StreamingMatcher(build_tag(chain_cet))
        full = [d for e, t in self.EVENTS for d in uninterrupted.feed(e, t)]

        first = StreamingMatcher(build_tag(chain_cet))
        collected = [
            d for e, t in self.EVENTS[:cut] for d in first.feed(e, t)
        ]
        # Serialise through real JSON text: crash + restart semantics.
        payload = json.loads(json.dumps(first.checkpoint()))
        resumed = streaming_matcher_from_checkpoint(payload, system)
        collected += [
            d for e, t in self.EVENTS[cut:] for d in resumed.feed(e, t)
        ]
        assert detections_as_json(collected) == detections_as_json(full)

    def test_counters_and_parameters_survive(self, system, chain_cet):
        matcher = StreamingMatcher(
            build_tag(chain_cet),
            horizon_seconds=4 * H,
            max_live_anchors=17,
            overflow_policy="shed-oldest",
            max_lateness=H,
        )
        for etype, time in [("a", 0), ("b", H), ("x", 3 * H)]:
            matcher.feed(etype, time)
        restored = StreamingMatcher.from_checkpoint(
            matcher.checkpoint(), system
        )
        assert restored.horizon_seconds == 4 * H
        assert restored.max_live_anchors == 17
        assert restored.overflow_policy == "shed-oldest"
        assert restored.max_lateness == H
        assert restored.stats() == matcher.stats()

    def test_reorder_buffer_contents_survive(self, system, chain_cet):
        matcher = StreamingMatcher(build_tag(chain_cet), max_lateness=2 * H)
        matcher.feed("a", 0)
        matcher.feed("b", H)      # still buffered (watermark at -H .. 0)
        matcher.feed("c", 2 * H)  # buffered too
        assert matcher.pending_reordered > 0
        restored = StreamingMatcher.from_checkpoint(
            matcher.checkpoint(), system
        )
        assert restored.pending_reordered == matcher.pending_reordered
        finished = restored.flush()
        reference = matcher.flush()
        assert detections_as_json(finished) == detections_as_json(reference)

    def test_strict_matcher_round_trips_without_buffer(
        self, system, chain_cet
    ):
        matcher = StreamingMatcher(build_tag(chain_cet))
        matcher.feed("a", 100)
        restored = StreamingMatcher.from_checkpoint(
            matcher.checkpoint(), system
        )
        assert restored.max_lateness is None
        # Strict ordering still enforced relative to the restored clock.
        with pytest.raises(ValueError):
            restored.feed("b", 50)

    def test_unsupported_version_rejected(self, system, chain_cet):
        matcher = StreamingMatcher(build_tag(chain_cet))
        payload = matcher.checkpoint()
        payload["version"] = 99
        with pytest.raises(SerializationError):
            streaming_matcher_from_checkpoint(payload, system)

    def test_checkpoint_is_pure_json(self, chain_cet, tmp_path):
        matcher = StreamingMatcher(build_tag(chain_cet), max_lateness=H)
        for etype, time in self.EVENTS:
            matcher.feed(etype, time)
        path = tmp_path / "ckpt.json"
        from repro.io.serialize import dump_json, load_json

        dump_json(matcher.checkpoint(), str(path))
        restored = StreamingMatcher.from_checkpoint(load_json(str(path)))
        assert restored.stats() == matcher.stats()


@st.composite
def checkpoint_scenarios(draw):
    """An in-order stream over the chain alphabet, a cut point, and
    matcher parameters: everything a crash/restart needs."""
    count = draw(st.integers(min_value=0, max_value=30))
    time = draw(st.integers(min_value=0, max_value=2 * H))
    events = []
    for _ in range(count):
        symbol = draw(st.sampled_from(["a", "b", "c", "noise"]))
        events.append((symbol, time))
        time += draw(st.integers(min_value=0, max_value=3 * H))
    cut = draw(st.integers(min_value=0, max_value=count))
    max_lateness = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=4 * H))
    )
    horizon = draw(
        st.one_of(st.none(), st.integers(min_value=H, max_value=12 * H))
    )
    return events, cut, max_lateness, horizon


class TestCheckpointRoundTripProperty:
    """Hypothesis: checkpoint + restore at *any* cut point of *any*
    in-order stream is indistinguishable from never crashing."""

    @given(scenario=checkpoint_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_resume_equals_uninterrupted(self, scenario):
        events, cut, max_lateness, horizon = scenario

        def fresh():
            return StreamingMatcher(
                build_tag(CHAIN_CET, system=SYSTEM),
                horizon_seconds=horizon,
                max_lateness=max_lateness,
            )

        uninterrupted = fresh()
        full = [d for e, t in events for d in uninterrupted.feed(e, t)]
        full.extend(uninterrupted.flush())

        first = fresh()
        collected = [d for e, t in events[:cut] for d in first.feed(e, t)]
        payload = json.loads(json.dumps(first.checkpoint()))
        resumed = streaming_matcher_from_checkpoint(payload, SYSTEM)
        collected += [d for e, t in events[cut:] for d in resumed.feed(e, t)]
        collected.extend(resumed.flush())

        assert detections_as_json(collected) == detections_as_json(full)
        assert resumed.stats() == uninterrupted.stats()

@st.composite
def shedding_scenarios(draw):
    """A jittered, anchor-heavy stream plus a tiny anchor budget and a
    shedding policy: the stressed configuration of ISSUE 6, where a
    mid-stream checkpoint must carry the reorder buffer, the shed
    counters and the high-water timestamp."""
    count = draw(st.integers(min_value=0, max_value=40))
    max_lateness = draw(st.integers(min_value=0, max_value=2 * H))
    monotone = draw(st.integers(min_value=2 * H, max_value=4 * H))
    events = []
    for _ in range(count):
        # Weighted toward roots so max_live_anchors overflows often.
        symbol = draw(st.sampled_from(["a", "a", "a", "b", "c", "noise"]))
        monotone += draw(st.integers(min_value=0, max_value=H))
        jitter = draw(st.integers(min_value=0, max_value=3 * H))
        events.append((symbol, max(0, monotone - jitter)))
    cut = draw(st.integers(min_value=0, max_value=count))
    policy = draw(st.sampled_from(["shed-oldest", "shed-newest", "sample"]))
    max_live = draw(st.integers(min_value=1, max_value=3))
    return events, cut, max_lateness, policy, max_live


class TestShedCheckpointProperty:
    """Hypothesis (ISSUE 6 satellite): a matcher checkpointed
    mid-stream while *shedding* - anchors over budget, events in the
    reorder buffer, late drops counted - restores to the same
    detection set and the same counters as never crashing."""

    @given(scenario=shedding_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_resume_under_shedding_equals_uninterrupted(self, scenario):
        events, cut, max_lateness, policy, max_live = scenario

        def fresh():
            return StreamingMatcher(
                build_tag(CHAIN_CET, system=SYSTEM),
                max_lateness=max_lateness,
                overflow_policy=policy,
                max_live_anchors=max_live,
            )

        uninterrupted = fresh()
        full = [d for e, t in events for d in uninterrupted.feed(e, t)]
        full.extend(uninterrupted.flush())

        first = fresh()
        collected = [d for e, t in events[:cut] for d in first.feed(e, t)]
        mid_stats = first.stats()
        payload = json.loads(json.dumps(first.checkpoint()))
        resumed = streaming_matcher_from_checkpoint(payload, SYSTEM)
        # Everything operational survives the crash: pending reordered
        # events, shed/late counters, and the watermark lag.
        assert resumed.stats() == mid_stats
        collected += [d for e, t in events[cut:] for d in resumed.feed(e, t)]
        collected.extend(resumed.flush())

        assert detections_as_json(collected) == detections_as_json(full)
        assert resumed.stats() == uninterrupted.stats()


class TestWatermarkLagCheckpoint:
    def test_max_time_seen_round_trips(self, system, chain_cet):
        matcher = StreamingMatcher(build_tag(chain_cet), max_lateness=4 * H)
        matcher.feed("a", 10 * H)
        matcher.feed("b", 7 * H)  # late but within bounds
        assert matcher.watermark_lag > 0
        restored = StreamingMatcher.from_checkpoint(
            matcher.checkpoint(), system
        )
        assert restored.watermark_lag == matcher.watermark_lag
        assert restored._max_time_seen == matcher._max_time_seen

    def test_legacy_payload_falls_back_to_last_time(
        self, system, chain_cet
    ):
        """Checkpoints written before ``max_time_seen`` existed still
        restore; the lag resets to zero until the next event."""
        matcher = StreamingMatcher(build_tag(chain_cet))
        matcher.feed("a", 5 * H)
        payload = matcher.checkpoint()
        del payload["max_time_seen"]
        restored = streaming_matcher_from_checkpoint(payload, system)
        assert restored._max_time_seen == restored._last_time == 5 * H
        assert restored.watermark_lag == 0

    def test_shed_counters_round_trip(self, system, chain_cet):
        matcher = StreamingMatcher(
            build_tag(chain_cet),
            max_live_anchors=2,
            overflow_policy="shed-oldest",
            max_lateness=0,
        )
        for index in range(6):
            matcher.feed("a", index * H)
        matcher.feed("b", 2 * H)  # below the watermark: dropped
        assert matcher.anchors_shed > 0
        assert matcher.late_events_dropped > 0
        restored = StreamingMatcher.from_checkpoint(
            matcher.checkpoint(), system
        )
        assert restored.anchors_shed == matcher.anchors_shed
        assert restored.late_events_dropped == matcher.late_events_dropped


class TestCheckpointStability:
    @given(scenario=checkpoint_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_checkpoint_of_restored_matcher_is_stable(self, scenario):
        """checkpoint(restore(checkpoint(m))) == checkpoint(m): the
        payload is a fixpoint of the round trip."""
        events, cut, max_lateness, horizon = scenario
        matcher = StreamingMatcher(
            build_tag(CHAIN_CET, system=SYSTEM),
            horizon_seconds=horizon,
            max_lateness=max_lateness,
        )
        for etype, time in events[:cut]:
            matcher.feed(etype, time)
        payload = json.loads(json.dumps(matcher.checkpoint()))
        restored = streaming_matcher_from_checkpoint(payload, SYSTEM)
        assert json.loads(json.dumps(restored.checkpoint())) == payload
