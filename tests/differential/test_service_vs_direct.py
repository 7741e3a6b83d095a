"""Differential: the multi-tenant service vs standalone matchers.

Property (ISSUE 6): N tenants' interleaved streams pushed through
:class:`~repro.service.DetectionService` produce, per ``(tenant,
key)`` session, detections *bit-identical* to feeding each session's
stream through its own standalone
:class:`~repro.automata.StreamingMatcher` - including under forced
eviction/rehydration churn (``max_resident_sessions=1``) and circuit
breaker trips (invalid events tripping a threshold-2 breaker whose
cooldown is driven by a fake clock).
"""

import asyncio
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import StreamingMatcher, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.granularity.gregorian import SECONDS_PER_HOUR
from repro.resilience import EventValidationError
from repro.service import DetectionService, ServiceConfig

H = SECONDS_PER_HOUR

SYSTEM = standard_system()


def _chain_cet():
    hour = SYSTEM.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    return ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})


CHAIN_CET = _chain_cet()


def detections_as_json(detections):
    return json.dumps(
        [
            [d.anchor_time, d.detected_at, sorted(d.bindings.items())]
            for d in detections
        ],
        sort_keys=True,
    )


@st.composite
def multi_tenant_scenarios(draw):
    """Interleaved per-session streams over the chain alphabet.

    Each session's stream is in timestamp order and may contain
    invalid events (empty type) that the service must quarantine; the
    cross-session interleaving is a seeded stable shuffle, so each
    session's own order is preserved - the service guarantees nothing
    about cross-tenant order.
    """
    n_tenants = draw(st.integers(min_value=1, max_value=3))
    sessions = []
    for t in range(n_tenants):
        for k in range(draw(st.integers(min_value=1, max_value=2))):
            count = draw(st.integers(min_value=0, max_value=12))
            time = draw(st.integers(min_value=0, max_value=2 * H))
            events = []
            for _ in range(count):
                symbol = draw(st.sampled_from(
                    ["a", "b", "c", "noise", "", "a", "b", "c"]
                ))
                events.append((symbol, time))
                time += draw(st.integers(min_value=0, max_value=3 * H))
            sessions.append(("t%d" % t, "k%d" % k, events))
    shuffle_seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    slots = [
        index
        for index, (_, _, events) in enumerate(sessions)
        for _ in events
    ]
    random.Random(shuffle_seed).shuffle(slots)
    cursors = [0] * len(sessions)
    interleaved = []
    for index in slots:
        tenant, key, events = sessions[index]
        interleaved.append((tenant, key) + events[cursors[index]])
        cursors[index] += 1
    return sessions, interleaved


class _ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def direct_run(tenant_key_events):
    """Standalone matcher over one session's stream, invalid skipped."""
    matcher = StreamingMatcher(build_tag(CHAIN_CET, system=SYSTEM))
    detections = []
    for etype, time in tenant_key_events:
        try:
            detections.extend(matcher.feed(etype, time))
        except EventValidationError:
            continue
    return detections


class TestServiceVsDirect:
    @given(scenario=multi_tenant_scenarios())
    @settings(max_examples=75, deadline=None)
    def test_interleaved_tenants_bit_identical(self, scenario):
        sessions, interleaved = scenario
        clock = _ManualClock()
        config = ServiceConfig(
            max_resident_sessions=1,       # constant eviction churn
            breaker_failure_threshold=2,   # invalid events trip easily
            breaker_reset_seconds=30.0,
            breaker_clock=clock,
            queue_capacity=10_000,         # no shedding: exact replay
        )

        async def go():
            service = DetectionService(
                build_tag(CHAIN_CET, system=SYSTEM), config, system=SYSTEM
            )
            for record in interleaved:
                await service.submit(*record)
            # Tripped breakers park events; advance the cooldown until
            # every queue is empty (guaranteed: each round processes at
            # least the half-open probe).
            for _ in range(len(interleaved) + 1):
                await service.drain()
                if all(
                    service.parked(t) == 0 for t in service.tenants()
                ):
                    break
                clock.now += 30.0
            await service.flush()
            await service.close()
            return service

        service = asyncio.run(go())
        for tenant in service.tenants():
            assert service.parked(tenant) == 0
        active = sum(
            1 for _, _, events in sessions
            if any(etype for etype, _ in events)
        )
        if active > 1:
            assert service.registry.evictions > 0
        for tenant, key, events in sessions:
            got = [
                sd.detection for sd in service.detections
                if sd.tenant == tenant and sd.key == key
                and not sd.replayed
            ]
            assert detections_as_json(got) == detections_as_json(
                direct_run(events)
            ), (tenant, key)
        # Every invalid event is accounted for in the quarantine.
        invalid = sum(
            1 for _, _, events in sessions for e, _ in events if not e
        )
        assert len(service.quarantine) == invalid
