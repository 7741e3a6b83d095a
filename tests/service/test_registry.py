"""LRU residency, spill, rehydration and WAL replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import StreamingMatcher, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.io.serialize import SerializationError
from repro.obs import configure, global_metrics, obs_enabled
from repro.service import MemoryCheckpointStore, SessionRegistry

H = 3600
EVENTS = [("a", 0), ("b", H), ("c", 2 * H)]


@pytest.fixture
def registry(chain_build):
    return SessionRegistry(
        MemoryCheckpointStore(),
        lambda: StreamingMatcher(chain_build),
        max_resident=2,
    )


def feed(registry, tenant, key, events):
    """Feed events the way the service does: WAL first, then matcher."""
    detections = []
    for etype, time in events:
        session, replayed = registry.acquire(tenant, key)
        assert not replayed
        session.seq += 1
        registry.store.append_wal(tenant, key, session.seq, etype, time)
        detections.extend(session.matcher.feed(etype, time))
    return detections


class TestResidency:
    def test_lru_eviction_order(self, registry):
        registry.acquire("t", "k1")
        registry.acquire("t", "k2")
        registry.acquire("t", "k1")  # k2 is now least recently used
        registry.acquire("t", "k3")  # forces one eviction
        assert registry.is_resident("t", "k1")
        assert not registry.is_resident("t", "k2")
        assert registry.is_resident("t", "k3")
        assert registry.evictions == 1

    def test_eviction_checkpoints_state(self, registry):
        feed(registry, "t", "k1", EVENTS[:2])
        registry.acquire("t", "k2")
        registry.acquire("t", "k3")  # evicts k1
        assert registry.store.has("t", "k1")
        assert not registry.is_resident("t", "k1")

    def test_rehydration_restores_detection_state(self, registry):
        feed(registry, "t", "k1", EVENTS[:2])  # a, b fed
        registry.acquire("t", "k2")
        registry.acquire("t", "k3")  # evicts k1
        # The chain completes across the eviction boundary.
        detections = feed(registry, "t", "k1", EVENTS[2:])
        assert len(detections) == 1
        assert detections[0].anchor_time == 0
        assert registry.rehydrations == 1

    def test_acquire_same_session_is_stable(self, registry):
        first, _ = registry.acquire("t", "k")
        second, _ = registry.acquire("t", "k")
        assert first is second


def _module_chain_build():
    """Module-level twin of the ``chain_build`` fixture, for Hypothesis
    tests (which cannot take function-scoped fixtures)."""
    system = standard_system()
    hour = system.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    cet = ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})
    return build_tag(cet, system=system)


CHAIN_BUILD = _module_chain_build()
TENANTS = ("t1", "t2", "t3")


class TestTenantIndex:
    """``resident_for_tenant`` reads a per-tenant index; it must always
    hold what a scan of the resident map finds."""

    @settings(max_examples=150, deadline=None)
    @given(
        max_resident=st.integers(1, 4),
        steps=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(TENANTS),
                st.sampled_from(("k1", "k2", "k3")),
            ),
            max_size=40,
        ),
    )
    def test_index_equals_a_scan(self, max_resident, steps):
        registry = SessionRegistry(
            MemoryCheckpointStore(),
            lambda: StreamingMatcher(CHAIN_BUILD),
            max_resident=max_resident,
        )
        for evict, tenant, key in steps:
            if not evict:
                registry.acquire(tenant, key)
            elif registry.is_resident(tenant, key):
                registry.evict(tenant, key)
            for t in TENANTS:
                indexed = registry.resident_for_tenant(t)
                scan = [
                    session
                    for (owner, _), session in registry._resident.items()
                    if owner == t
                ]
                assert len(indexed) == len(scan)
                assert {id(s) for s in indexed} == {id(s) for s in scan}


class TestOneCompiledPattern:
    """Rehydration restores onto the factory's matcher: no pattern is
    decoded and no TAG is built, and the session runs the registry's
    compiled pattern - never one a checkpoint names."""

    def test_rehydration_builds_nothing_and_shares_the_bank(
        self, registry, chain_build
    ):
        feed(registry, "t", "k1", EVENTS[:2])
        registry.acquire("t", "k2")
        registry.acquire("t", "k3")  # evicts k1
        previous = obs_enabled()
        configure(True)
        try:
            builds = global_metrics().get("repro_tag_builds_total")
            before = builds.value()
            session, _ = registry.acquire("t", "k1")
            assert builds.value() == before
        finally:
            configure(previous)
        assert registry.rehydrations == 1
        assert session.matcher.build is chain_build
        assert session.matcher.kernel is chain_build.kernel
        assert session.matcher.build.bank is chain_build.bank

    def test_checkpoint_of_another_pattern_raises(self, registry, system):
        hour = system.get("hour")
        other = build_tag(
            ComplexEventType(
                EventStructure(["A", "B"], {("A", "B"): [TCG(0, 1, hour)]}),
                {"A": "a", "B": "b"},
            ),
            system=system,
        )
        matcher = StreamingMatcher(other)
        matcher.feed("a", 0)
        registry.store.save("t", "k", 1, matcher.checkpoint())
        with pytest.raises(SerializationError):
            registry.acquire("t", "k")
        assert not registry.is_resident("t", "k")


class TestReplay:
    def test_wal_replay_reemits_detections_after_crash(self, chain_build):
        store = MemoryCheckpointStore()

        def factory():
            return StreamingMatcher(chain_build)

        crashed = SessionRegistry(store, factory)
        session, _ = crashed.acquire("t", "k")
        for etype, time in EVENTS:
            session.seq += 1
            store.append_wal("t", "k", session.seq, etype, time)
            session.matcher.feed(etype, time)
        # Checkpoint covered only the first event; the crash loses the
        # in-memory matcher but the WAL carries events 2 and 3.
        checkpointed = SessionRegistry(store, factory)
        early, _ = checkpointed.acquire("t2", "k")  # unrelated session
        store.save("t", "k", 1, _matcher_after(chain_build, EVENTS[:1]))

        fresh = SessionRegistry(store, factory)
        session, replayed = fresh.acquire("t", "k")
        assert session.seq == 3
        assert [seq for seq, _, _ in replayed] == [3]
        assert replayed[0][2].anchor_time == 0

    def test_wal_only_session_replays_from_scratch(self, chain_build):
        store = MemoryCheckpointStore()
        for seq, (etype, time) in enumerate(EVENTS, start=1):
            store.append_wal("t", "k", seq, etype, time)
        registry = SessionRegistry(
            store, lambda: StreamingMatcher(chain_build)
        )
        session, replayed = registry.acquire("t", "k")
        assert session.seq == 3
        assert len(replayed) == 1

    def test_maybe_checkpoint_respects_interval(self, registry):
        session, _ = registry.acquire("t", "k")
        session.seq = 5
        registry.maybe_checkpoint(session, interval=10)
        assert not registry.store.has("t", "k")
        session.seq = 10
        registry.maybe_checkpoint(session, interval=10)
        assert registry.store.has("t", "k")
        assert session.checkpointed_seq == 10


def _matcher_after(build, events):
    matcher = StreamingMatcher(build)
    for etype, time in events:
        matcher.feed(etype, time)
    return matcher.checkpoint()


class TestStats:
    def test_stats_counts(self, registry):
        registry.acquire("t", "k1")
        registry.acquire("t", "k2")
        registry.acquire("t", "k3")
        stats = registry.stats()
        assert stats["resident"] == 2
        assert stats["evicted"] == 1
        assert stats["evictions"] == 1
