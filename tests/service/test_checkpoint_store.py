"""Generational checkpoint stores: durability, fallback, WAL."""

import json
import marshal
import os

import pytest

from repro.automata import StreamingMatcher
from repro.service import (
    CheckpointCorruptError,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    ServiceConfig,
    open_store,
    serve_events,
)


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointStore()
    return DirectoryCheckpointStore(str(tmp_path / "ckpt"))


def corrupt_latest(store, tenant, key):
    """Truncate the newest generation, whatever the backend."""
    if isinstance(store, MemoryCheckpointStore):
        store.corrupt_latest(tenant, key)
        return
    gen = store._generations(tenant, key)[-1]
    path = store._gen_path(tenant, key, gen)
    text = open(path).read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])


MATCHER = {"fake": "matcher-state"}
HOUR = 3600


def churn(chain_build, store):
    """One resident session over four interleaved keys: every event
    evicts one session and rehydrates another, mid-chain."""
    events = [
        ("t", key, etype, time + 60 * offset)
        for etype, time in (("a", 0), ("b", HOUR), ("c", 2 * HOUR))
        for offset, key in enumerate(("k1", "k2", "k3", "k4"))
    ]
    return serve_events(
        chain_build,
        events,
        config=ServiceConfig(max_resident_sessions=1, max_lateness=60),
        store=store,
    )


class TestRoundTrip:
    def test_save_load(self, store):
        store.save("t", "k", 5, MATCHER)
        payload = store.load("t", "k")
        assert payload["seq"] == 5
        assert payload["matcher"] == MATCHER
        assert payload["tenant"] == "t" and payload["key"] == "k"

    def test_missing_session_loads_none(self, store):
        assert store.load("t", "nope") is None
        assert not store.has("t", "nope")

    def test_generations_pruned_to_keep(self, store):
        for seq in range(1, 6):
            store.save("t", "k", seq, MATCHER)
        assert len(store._generations("t", "k")) == store.keep_generations
        assert store.load("t", "k")["seq"] == 5

    def test_discard_forgets_everything(self, store):
        store.save("t", "k", 1, MATCHER)
        store.append_wal("t", "k", 2, "a", 100)
        store.discard("t", "k")
        assert store.load("t", "k") is None
        assert store.wal_suffix("t", "k", 0) == []

    def test_sessions_enumerates_coordinates(self, store):
        store.save("t1", "k1", 1, MATCHER)
        store.save("t2", "k2", 1, MATCHER)
        assert store.sessions() == [("t1", "k1"), ("t2", "k2")]


class TestWal:
    def test_append_and_suffix(self, store):
        for seq in range(1, 5):
            store.append_wal("t", "k", seq, "a", seq * 100)
        assert store.wal_suffix("t", "k", 2) == [
            (3, "a", 300), (4, "a", 400),
        ]

    def test_save_truncates_through_oldest_retained(self, store):
        for seq in range(1, 4):
            store.append_wal("t", "k", seq, "a", seq * 100)
        store.save("t", "k", 3, MATCHER)
        for seq in range(4, 7):
            store.append_wal("t", "k", seq, "b", seq * 100)
        store.save("t", "k", 6, MATCHER)
        # Two generations retained (seq 3 and 6): the WAL must keep
        # everything after seq 3 so a fallback to the older generation
        # can still replay to the present.
        assert store.wal_suffix("t", "k", 3) == [
            (4, "b", 400), (5, "b", 500), (6, "b", 600),
        ]
        # A third save drops the seq-3 generation and its WAL prefix.
        store.save("t", "k", 6, MATCHER)
        assert store.wal_suffix("t", "k", 3) == []


class TestCorruption:
    def test_fallback_to_previous_generation(self, store):
        store.save("t", "k", 3, MATCHER)
        store.save("t", "k", 6, {"newer": True})
        corrupt_latest(store, "t", "k")
        payload = store.load("t", "k")
        assert payload["seq"] == 3
        assert payload["matcher"] == MATCHER

    def test_all_generations_corrupt_raises(self, store):
        store.save("t", "k", 3, MATCHER)
        corrupt_latest(store, "t", "k")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            store.load("t", "k")
        assert excinfo.value.tenant == "t"
        assert excinfo.value.key == "k"

    def test_wrong_shape_json_is_treated_as_corrupt(self, store):
        store.save("t", "k", 3, MATCHER)
        store.save("t", "k", 6, MATCHER)
        if isinstance(store, MemoryCheckpointStore):
            gen = store._generations("t", "k")[-1]
            store._data[("t", "k")][gen] = (
                6, marshal.dumps(["not", "a", "dict"]),
            )
        else:
            gen = store._generations("t", "k")[-1]
            with open(store._gen_path("t", "k", gen), "w") as handle:
                json.dump(["not", "a", "dict"], handle)
        assert store.load("t", "k")["seq"] == 3


class TestSaveWalFloor:
    """``save`` truncates the WAL through the lowest seq its retained
    generations cover: its own from the ``seq`` argument, the older
    ones read back, skipping any it cannot read."""

    def test_entries_newer_than_the_seq_survive(self, store):
        for seq in range(1, 6):
            store.append_wal("t", "k", seq, "a", seq * 100)
        store.save("t", "k", 3, MATCHER)
        assert store.wal_suffix("t", "k", 0) == [(4, "a", 400), (5, "a", 500)]

    def test_unreadable_older_generation_is_skipped(self, store):
        for seq in range(1, 8):
            store.append_wal("t", "k", seq, "a", seq * 100)
        store.save("t", "k", 3, MATCHER)
        corrupt_latest(store, "t", "k")
        store.save("t", "k", 6, MATCHER)
        assert store.wal_suffix("t", "k", 0) == [(7, "a", 700)]
        assert store.load("t", "k")["seq"] == 6


class TestDirectoryStore:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path / "ckpt"))
        store.save("t", "k", 1, MATCHER)
        session_dir = store._session_dir("t", "k")
        assert not [
            name for name in os.listdir(session_dir)
            if name.endswith(".tmp")
        ]

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "ckpt")
        first = DirectoryCheckpointStore(root)
        first.save("t", "k", 2, MATCHER)
        first.append_wal("t", "k", 3, "a", 100)
        reopened = DirectoryCheckpointStore(root)
        assert reopened.load("t", "k")["seq"] == 2
        assert reopened.wal_suffix("t", "k", 2) == [(3, "a", 100)]
        assert reopened.sessions() == [("t", "k")]

    def test_torn_wal_tail_is_skipped(self, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path / "ckpt"))
        store.append_wal("t", "k", 1, "a", 100)
        with open(store._wal_path("t", "k"), "a") as handle:
            handle.write('[2, "b"')  # crash mid-append
        assert store.wal_suffix("t", "k", 0) == [(1, "a", 100)]

    def test_open_store_picks_backend(self, tmp_path):
        assert isinstance(open_store(None), MemoryCheckpointStore)
        assert isinstance(
            open_store(str(tmp_path / "d")), DirectoryCheckpointStore
        )


class TestMemoryStorePayloads:
    """The memory store keeps marshal bytes, which take tuples and
    other non-JSON values as readily as JSON ones, so no save proves
    that a checkpoint is JSON any more; this does."""

    def test_churned_checkpoints_are_json_and_stay_as_saved(
        self, chain_build
    ):
        store = MemoryCheckpointStore()
        saved = {}
        write = store._write_generation

        def record(tenant, key, gen, payload):
            as_json = json.loads(json.dumps(payload))
            assert payload == as_json
            saved[(tenant, key, gen)] = as_json
            write(tenant, key, gen, payload)

        store._write_generation = record
        service = churn(chain_build, store)
        assert service.registry.rehydrations > 0
        assert saved
        for tenant, key in store.sessions():
            newest = store._generations(tenant, key)[-1]
            payload = store.load(tenant, key)
            matcher = StreamingMatcher(chain_build, max_lateness=60)
            matcher.restore(payload["matcher"])
            matcher.feed("a", 3 * HOUR)
            matcher.flush()
            assert store.load(tenant, key) == saved[(tenant, key, newest)]

    def test_save_knows_older_seqs_without_reading_them_back(
        self, chain_build
    ):
        """Each save truncates the WAL through the lowest seq of its
        retained generations.  The memory store wrote them all, so it
        takes their seqs from the slots: no generation is decoded during
        a save, and the WAL after every save is the one that reading
        the generations back gives."""
        store = MemoryCheckpointStore()
        saving, reads, older = [], [], []
        read, save = store._read_generation, store.save

        def counted_read(tenant, key, gen):
            if saving:
                reads.append((tenant, key, gen))
            return read(tenant, key, gen)

        def checked_save(tenant, key, seq, matcher_checkpoint):
            wal = store._read_wal(tenant, key)
            older.append(len(store._generations(tenant, key)))
            saving.append(True)
            try:
                save(tenant, key, seq, matcher_checkpoint)
            finally:
                saving.pop()
            floor = min(
                read(tenant, key, gen)["seq"]
                for gen in store._generations(tenant, key)
            )
            assert store._read_wal(tenant, key) == [
                entry for entry in wal if entry[0] > floor
            ]

        store._read_generation = counted_read
        store.save = checked_save
        churn(chain_build, store)
        assert any(older), "no save found an older generation"
        assert reads == []
