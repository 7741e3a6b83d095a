"""DetectionService: routing, isolation, backpressure, lifecycle."""

import json

import pytest

from repro.automata import StreamingMatcher
from repro.service import (
    CircuitBreaker,
    DetectionService,
    ServiceClosedError,
    ServiceConfig,
    TenantOverloadError,
    serve_events,
)

H = 3600
CHAIN = [("a", 0), ("b", H), ("c", 2 * H)]


def direct_detections(build, events):
    matcher = StreamingMatcher(build)
    return [d for e, t in events for d in matcher.feed(e, t)]


def as_json(detections):
    return json.dumps(
        [
            [d.anchor_time, d.detected_at, sorted(d.bindings.items())]
            for d in detections
        ],
        sort_keys=True,
    )


class TestRouting:
    def test_detections_match_direct_run_per_session(
        self, chain_build, system, run
    ):
        events = CHAIN + [("a", 3 * H), ("b", 4 * H), ("c", 5 * H)]
        expected = direct_detections(chain_build, events)

        async def go():
            service = DetectionService(chain_build, system=system)
            for tenant in ("t1", "t2"):
                for key in ("k1", "k2"):
                    for etype, time in events:
                        await service.submit(tenant, key, etype, time)
            await service.drain()
            await service.close()
            return service

        service = run(go())
        for tenant in ("t1", "t2"):
            for key in ("k1", "k2"):
                got = [
                    sd.detection for sd in service.detections
                    if sd.tenant == tenant and sd.key == key
                ]
                assert as_json(got) == as_json(expected)

    def test_sequence_numbers_are_per_session(
        self, chain_build, system, run
    ):
        async def go():
            service = DetectionService(chain_build, system=system)
            for etype, time in CHAIN:
                await service.submit("t", "k1", etype, time)
                await service.submit("t", "k2", etype, time)
            await service.drain()
            await service.close()
            return service

        service = run(go())
        assert {sd.seq for sd in service.detections} == {3}

    def test_submit_after_close_raises(self, chain_build, run):
        async def go():
            service = DetectionService(chain_build)
            await service.close()
            with pytest.raises(ServiceClosedError):
                await service.submit("t", "k", "a", 0)

        run(go())


class TestFaultIsolation:
    def test_bad_tenant_is_quarantined_not_fatal(
        self, chain_build, system, run
    ):
        async def go():
            service = DetectionService(
                chain_build,
                ServiceConfig(breaker_failure_threshold=100),
                system=system,
            )
            for etype, time in CHAIN:
                await service.submit("good", "k", etype, time)
                await service.submit("bad", "k", "", -5)
            await service.drain()
            await service.close()
            return service

        service = run(go())
        good = [sd for sd in service.detections if sd.tenant == "good"]
        assert len(good) == 1
        stats = service.stats()
        assert stats["tenants"]["bad"]["quarantined"] == 3
        assert stats["tenants"]["good"]["quarantined"] == 0
        assert len(service.quarantine) == 3
        assert all(record.reason for record in service.quarantine)

    def test_breaker_parks_then_drains_without_loss(
        self, chain_build, system, run, clock
    ):
        async def go():
            service = DetectionService(
                chain_build,
                ServiceConfig(
                    breaker_failure_threshold=2,
                    breaker_reset_seconds=30.0,
                    breaker_clock=clock,
                ),
                system=system,
            )
            # Two consecutive bad events trip the breaker ...
            for _ in range(2):
                await service.submit("t", "k", "", 0)
            # ... so the valid chain parks instead of processing.
            for etype, time in CHAIN:
                await service.submit("t", "k", etype, time)
            await service.drain()
            assert service.parked("t") == 3
            assert (
                service.stats()["tenants"]["t"]["breaker"]["state"]
                == "open"
            )
            # Cooldown elapses; the parked backlog drains in order.
            clock.advance(30.0)
            await service.drain()
            assert service.parked("t") == 0
            await service.close()
            return service

        service = run(go())
        got = [sd.detection for sd in service.detections]
        assert as_json(got) == as_json(
            direct_detections(chain_build, CHAIN)
        )
        assert service.stats()["tenants"]["t"]["breaker"]["trips"] == 1

    def test_tripped_tenant_does_not_block_others(
        self, chain_build, system, run, clock
    ):
        async def go():
            service = DetectionService(
                chain_build,
                ServiceConfig(
                    breaker_failure_threshold=1, breaker_clock=clock
                ),
                system=system,
            )
            await service.submit("noisy", "k", "", 0)  # trips immediately
            for etype, time in CHAIN:
                await service.submit("noisy", "k", etype, time)
                await service.submit("quiet", "k", etype, time)
            await service.drain()
            await service.close()
            return service

        service = run(go())
        quiet = [
            sd.detection for sd in service.detections
            if sd.tenant == "quiet"
        ]
        assert as_json(quiet) == as_json(
            direct_detections(chain_build, CHAIN)
        )
        assert service.parked("noisy") == 3


class TestBackpressure:
    def test_raise_policy_surfaces_overload(self, chain_build, run, clock):
        async def go():
            service = DetectionService(
                chain_build,
                ServiceConfig(
                    queue_capacity=2,
                    breaker_failure_threshold=1,
                    breaker_clock=clock,
                ),
            )
            # Trip the breaker so nothing drains, then fill the queue.
            await service.submit("t", "k", "", 0)
            await service.submit("t", "k", "a", 0)
            await service.submit("t", "k", "b", H)
            with pytest.raises(TenantOverloadError) as excinfo:
                await service.submit("t", "k", "c", 2 * H)
            assert excinfo.value.tenant == "t"
            await service.close()
            return service

        service = run(go())
        assert service.stats()["tenants"]["t"]["shed"] == 1

    @pytest.mark.parametrize("policy", ["shed-oldest", "shed-newest"])
    def test_shedding_policies_bound_the_queue(
        self, chain_build, run, clock, policy
    ):
        async def go():
            service = DetectionService(
                chain_build,
                ServiceConfig(
                    queue_capacity=2,
                    shed_policy=policy,
                    breaker_failure_threshold=1,
                    breaker_clock=clock,
                ),
            )
            await service.submit("t", "k", "", 0)  # trip: park everything
            for index in range(5):
                await service.submit("t", "k", "a", index * H)
            assert service.parked("t") == 2
            await service.close()
            return service

        service = run(go())
        assert service.stats()["tenants"]["t"]["shed"] == 3

    def test_hot_session_halves_effective_capacity(
        self, chain_build, system, run
    ):
        async def go():
            service = DetectionService(
                chain_build,
                ServiceConfig(
                    queue_capacity=8,
                    max_live_anchors=5,
                    overflow_policy="shed-oldest",
                ),
                system=system,
            )
            assert service.effective_capacity("t") == 8
            # Four unfinished anchors out of five allowed: 80% live.
            for index in range(4):
                await service.submit("t", "k", "a", index)
            await service.drain()
            assert service.effective_capacity("t") == 4
            await service.close()

        run(go())


class TestPerEventCost:
    """What one event costs the service's bookkeeping does not grow
    with the number of other tenants (counted in calls, not time)."""

    def _state_reads(self, build, run, monkeypatch, fleet):
        reads = []
        read_state = CircuitBreaker.state.fget

        def counted(breaker):
            reads.append(breaker)
            return read_state(breaker)

        async def go():
            service = DetectionService(build)
            for index in range(fleet):
                await service.submit("other%d" % index, "k", "a", index)
            with monkeypatch.context() as patch:
                patch.setattr(CircuitBreaker, "state", property(counted))
                for index in range(100):
                    await service.submit(
                        "probe", "k", "abc"[index % 3], index * 60
                    )
            await service.close()

        run(go())
        return len(reads)

    def test_breaker_reads_do_not_grow_with_the_fleet(
        self, chain_build, run, monkeypatch
    ):
        small = self._state_reads(chain_build, run, monkeypatch, 8)
        large = self._state_reads(chain_build, run, monkeypatch, 512)
        assert small > 0
        assert small == large


class TestLifecycle:
    def test_close_checkpoints_resident_sessions(
        self, chain_build, system, run
    ):
        async def go():
            service = DetectionService(chain_build, system=system)
            await service.submit("t", "k", "a", 0)
            await service.drain()
            await service.close()
            return service

        service = run(go())
        assert service.store.has("t", "k")
        assert service.store.load("t", "k")["seq"] == 1

    def test_close_is_idempotent(self, chain_build, run):
        async def go():
            service = DetectionService(chain_build)
            await service.close()
            await service.close()

        run(go())

    def test_flush_drains_reorder_buffers(self, chain_build, system):
        events = [
            ("t", "k", "a", 0),
            ("t", "k", "c", 2 * H),  # arrives before b
            ("t", "k", "b", H),
        ]
        service = serve_events(
            chain_build, events,
            config=ServiceConfig(max_lateness=2 * H), system=system,
        )
        assert len(service.detections) == 1
        assert service.detections[0].detection.anchor_time == 0

    def test_flush_without_lateness_leaves_sessions_alone(
        self, chain_build, run
    ):
        """Without ``max_lateness`` no matcher buffers anything, so
        flush must not rehydrate spilled sessions (nor evict others
        to make room for them)."""

        async def go():
            service = DetectionService(
                chain_build, ServiceConfig(max_resident_sessions=2)
            )
            for etype, time in CHAIN:
                for key in ("k1", "k2", "k3", "k4"):
                    await service.submit("t", key, etype, time)
            await service.drain()
            drained = service.registry.stats()
            detections = len(service.detections)
            await service.flush()
            return service, drained, detections

        service, drained, detections = run(go())
        assert drained["evictions"] > 0
        assert service.registry.stats() == drained
        assert len(service.detections) == detections == 4

    def test_serve_events_facade_reports_stats(self, chain_build, system):
        events = [("t", "k", e, t) for e, t in CHAIN]
        service = serve_events(chain_build, events, system=system)
        stats = service.stats()
        assert stats["closed"] is True
        assert stats["tenants"]["t"]["submitted"] == 3
        assert stats["detections"] == 1

    def test_invalid_config_rejected(self, chain_build):
        with pytest.raises(ValueError):
            DetectionService(
                chain_build, ServiceConfig(queue_capacity=0)
            )
        with pytest.raises(ValueError):
            DetectionService(
                chain_build, ServiceConfig(shed_policy="bogus")
            )
