"""Chaos acceptance: the service under injected faults.

The contract (ISSUE 6): with seeded fault injection - corrupt events,
worker crashes mid-feed, corrupted checkpoint files, a flooded hot
tenant - per-tenant detections remain bit-identical to direct
single-matcher runs, with at-least-once delivery (dedupe on the
service coordinates) across crash recovery.
"""

import json
import random

import pytest

from repro.automata import StreamingMatcher, build_tag
from repro.resilience import EventValidationError, FaultInjector
from repro.service import DetectionService, ServiceConfig

STEP = 60
MAX_DELAY = 10 * STEP


def make_stream(seed, n=300):
    rng = random.Random(seed)
    types = ["a", "b", "c", "n"]
    return [(rng.choice(types), i * STEP) for i in range(n)]


def dirty_reference(build, stream, max_lateness=MAX_DELAY):
    """What a direct single matcher detects on the same dirty stream
    (corrupt events skipped, reorder buffer flushed)."""
    matcher = StreamingMatcher(build, max_lateness=max_lateness)
    detections = []
    for etype, time in stream:
        try:
            detections.extend(matcher.feed(etype, time))
        except EventValidationError:
            continue
    detections.extend(matcher.flush())
    return detections


def as_json(detections):
    return json.dumps(
        [
            [d.anchor_time, d.detected_at, sorted(d.bindings.items())]
            for d in detections
        ],
        sort_keys=True,
    )


def service_config(**overrides):
    # High threshold: corruption should quarantine, not trip, in the
    # bit-identity scenarios (breaker trips are exercised separately).
    overrides.setdefault("breaker_failure_threshold", 10_000)
    overrides.setdefault("max_lateness", MAX_DELAY)
    return ServiceConfig(**overrides)


class TestChaosService:
    @pytest.mark.parametrize("seed", range(3))
    def test_faulted_tenants_stay_bit_identical(
        self, chain_build, system, run, seed
    ):
        """Three tenants, each with its own seeded dirty stream,
        multiplexed with forced eviction churn: every tenant's
        detections equal its direct single-matcher run."""
        streams = {}
        for index in range(3):
            injector = FaultInjector(
                seed * 10 + index,
                drop_rate=0.05,
                duplicate_rate=0.05,
                delay_rate=0.25,
                max_delay=MAX_DELAY,
                corrupt_rate=0.05,
            )
            streams["t%d" % index] = injector.inject(
                make_stream(seed * 10 + index)
            ).stream

        async def go():
            service = DetectionService(
                chain_build,
                service_config(max_resident_sessions=1),
                system=system,
            )
            length = max(len(s) for s in streams.values())
            for position in range(length):
                for tenant, stream in streams.items():
                    if position < len(stream):
                        etype, time = stream[position]
                        await service.submit(tenant, "k", etype, time)
            await service.flush()
            await service.close()
            return service

        service = run(go())
        assert service.registry.rehydrations > 0  # churn really happened
        for tenant, stream in streams.items():
            got = [
                sd.detection for sd in service.detections
                if sd.tenant == tenant and not sd.replayed
            ]
            assert as_json(got) == as_json(
                dirty_reference(chain_build, stream)
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_recovery_replays_to_identical_detections(
        self, chain_build, system, run, tmp_path, seed
    ):
        """Kill the workers mid-stream with no clean shutdown; a new
        service recovers from the checkpoint directory and the merged,
        deduped detections equal the uninterrupted direct run."""
        injector = FaultInjector(
            seed,
            duplicate_rate=0.05,
            delay_rate=0.2,
            max_delay=MAX_DELAY,
            corrupt_rate=0.05,
        )
        stream = injector.inject(make_stream(seed)).stream
        cut = len(stream) // 2
        ckpt_dir = str(tmp_path / "ckpt")

        def make_service():
            return DetectionService(
                chain_build,
                service_config(
                    checkpoint_dir=ckpt_dir, checkpoint_interval=17
                ),
                system=system,
            )

        async def first_half():
            service = make_service()
            for etype, time in stream[:cut]:
                await service.submit("t", "k", etype, time)
            await service.drain()
            # Crash: cancel the workers, never close or checkpoint.
            for state in service._tenants.values():
                if state.worker is not None:
                    state.worker.cancel()
            return list(service.detections)

        async def second_half():
            service = make_service()
            recovered = service.recover()
            assert all(sd.replayed for sd in recovered)
            for etype, time in stream[cut:]:
                await service.submit("t", "k", etype, time)
            await service.flush()
            await service.close()
            return service

        pre_crash = run(first_half())
        service = run(second_half())

        merged = {}
        for sd in pre_crash + service.detections:
            merged[sd.dedupe_key()] = sd
        got = [
            merged[key].detection
            for key in sorted(merged, key=lambda k: (k[2], k[3]))
        ]
        assert as_json(got) == as_json(
            dirty_reference(chain_build, stream)
        )

    def test_corrupted_checkpoint_falls_back_a_generation(
        self, chain_build, system, run, tmp_path
    ):
        """Corrupt the newest checkpoint file on disk: recovery falls
        back to the previous generation and replays the WAL gap, still
        reaching bit-identical detections."""
        stream = make_stream(99, n=120)
        ckpt_dir = str(tmp_path / "ckpt")

        def make_service():
            return DetectionService(
                chain_build,
                service_config(
                    checkpoint_dir=ckpt_dir, checkpoint_interval=13
                ),
                system=system,
            )

        async def run_stream():
            service = make_service()
            for etype, time in stream:
                await service.submit("t", "k", etype, time)
            await service.drain()
            for state in service._tenants.values():
                if state.worker is not None:
                    state.worker.cancel()
            return list(service.detections)

        pre_crash = run(run_stream())

        # Sabotage the newest generation on disk.
        crashed_store = make_service().store
        generations = crashed_store._generations("t", "k")
        assert len(generations) >= 2
        newest = crashed_store._gen_path("t", "k", generations[-1])
        text = open(newest).read()
        with open(newest, "w") as handle:
            handle.write(text[: len(text) // 2])

        async def recover():
            service = make_service()
            service.recover()
            await service.flush()
            await service.close()
            return service

        service = run(recover())
        merged = {}
        for sd in pre_crash + service.detections:
            merged[sd.dedupe_key()] = sd
        got = [
            merged[key].detection
            for key in sorted(merged, key=lambda k: (k[2], k[3]))
        ]
        assert as_json(got) == as_json(
            dirty_reference(chain_build, stream)
        )

    def test_hot_tenant_flood_does_not_disturb_others(
        self, chain_build, system, run
    ):
        """A tenant flooding far past its queue capacity (shed-oldest)
        degrades only itself; a quiet tenant's detections stay exact."""
        quiet = [("a", 0), ("b", STEP), ("c", 2 * STEP)]
        flood = [("a", i) for i in range(500)]

        async def go():
            service = DetectionService(
                chain_build,
                service_config(
                    max_lateness=None,
                    queue_capacity=4,
                    shed_policy="shed-oldest",
                    max_live_anchors=8,
                    overflow_policy="shed-oldest",
                    breaker_failure_threshold=1,
                    breaker_clock=lambda: 0.0,  # hot breaker never heals
                ),
                system=system,
            )
            # Park the hot tenant behind a tripped breaker so the
            # flood piles into its bounded queue.
            await service.submit("hot", "k", "", 0)
            for etype, time in flood:
                await service.submit("hot", "k", etype, time)
            for etype, time in quiet:
                await service.submit("quiet", "k", etype, time)
            await service.drain()
            await service.close()
            return service

        service = run(go())
        stats = service.stats()
        assert stats["tenants"]["hot"]["shed"] >= 490
        assert service.parked("hot") <= 4
        direct = StreamingMatcher(chain_build)
        expected = [d for e, t in quiet for d in direct.feed(e, t)]
        got = [
            sd.detection for sd in service.detections
            if sd.tenant == "quiet"
        ]
        assert as_json(got) == as_json(expected)
