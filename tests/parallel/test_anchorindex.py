"""Anchor screening over the columnar posting lists.

:class:`~repro.store.columnar.ColumnarEventStore` answers the anchor
screen's question - *is there an event of type E with a timestamp in
[lo, hi]?* - from per-type posting lists.  These checks hold
:meth:`~repro.store.columnar.ColumnarEventStore.screen_anchors` against
brute force, the screened matcher against the unscreened one, and
:meth:`~repro.store.eventstore.EventStore.columnar` against a rebuilt
view after every kind of write.
"""

import random

from repro.automata.builder import build_tag
from repro.automata.matching import TagMatcher
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.core.api import compile_pattern
from repro.mining.events import EventSequence
from repro.obs import global_metrics
from repro.store import ColumnarEventStore, EventStore


class TestColumnarWindowQueries:
    def test_screen_without_requirements_is_passthrough(self):
        view = ColumnarEventStore.from_events([("a", 10)])
        assert view.screen_anchors([10, 400], ()) == [True, True]
        # viable_positions hands the positions back unchanged without
        # running a screen at all.
        screens = global_metrics().get("repro_columnar_screens_total")
        before = screens.value()
        assert view.viable_positions([7, 3, 9], [400, 10, 900], ()) == [
            7,
            3,
            9,
        ]
        assert screens.value() == before

    def test_screen_preserves_order_and_refutes_soundly(self):
        events = [("r", 0), ("a", 50), ("r", 1000), ("r", 2000), ("a", 2040)]
        view = ColumnarEventStore.from_events(events)
        # Anchors out of time order: the mask follows the input order.
        mask = view.screen_anchors([2000, 0, 1000], [("a", 0, 100)])
        # Roots at t=0 and t=2000 have an "a" within 100 s; t=1000 not.
        assert mask == [True, True, False]
        # The same screen as positions: survivors in input order.
        assert view.viable_positions(
            [3, 0, 2], [2000, 0, 1000], [("a", 0, 100)]
        ) == [3, 0]


class TestMatcherAnchorRequirements:
    def test_screen_never_changes_the_matched_set(self, system):
        hour = system.get("hour")
        structure = EventStructure(
            ["R", "A"], {("R", "A"): [TCG(0, 1, hour)]}
        )
        rng = random.Random(3)
        events = sorted(
            [("r", rng.randrange(0, 200_000)) for _ in range(30)]
            + [("a", rng.randrange(0, 200_000)) for _ in range(30)],
            key=lambda event: event[1],
        )
        sequence = EventSequence(events)
        cet = ComplexEventType(structure, {"R": "r", "A": "a"})
        plain = TagMatcher(build_tag(cet, system=system))
        screened = compile_pattern(structure, cet.assignment, system)
        assert screened.anchor_requirements
        assert len(screened.viable_root_positions(sequence)) < len(
            plain.viable_root_positions(sequence)
        )
        assert list(screened.matching_roots(sequence)) == list(
            plain.matching_roots(sequence)
        )
        assert screened.count_occurrences(
            sequence
        ) == plain.count_occurrences(sequence)

    def test_compile_pattern_derives_requirements(self, system):
        hour = system.get("hour")
        structure = EventStructure(
            ["R", "A"], {("R", "A"): [TCG(0, 2, hour)]}
        )
        matcher = compile_pattern(structure, {"R": "r", "A": "a"}, system)
        ((etype, lo, hi),) = matcher.anchor_requirements
        assert etype == "a"
        assert lo <= 0 and hi >= 3600  # the window covers 0..2 hours


def _assert_view_matches_rebuild(store):
    view = store.columnar()
    rebuilt = ColumnarEventStore.from_sequence(store.snapshot())
    assert len(view) == len(rebuilt)
    assert view.types() == rebuilt.types()
    for etype in rebuilt.types():
        assert view.postings(etype) == rebuilt.postings(etype)
    return view


class TestStoreIndexMaintenance:
    def test_incremental_append_matches_rebuilt_index(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "debug")
        store = EventStore()
        rng = random.Random(5)
        t = 0
        for _ in range(120):
            t += rng.randrange(0, 50)
            store.append(rng.choice(["a", "b"]), t)
        _assert_view_matches_rebuild(store)

    def test_out_of_order_append_still_yields_a_correct_index(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS", "debug")
        store = EventStore()
        for etype, time in [("a", 100), ("b", 50), ("a", 75), ("b", 200)]:
            store.append(etype, time)
        view = _assert_view_matches_rebuild(store)
        assert view.postings("b") == ((0, 3), (50, 200))
        assert view.postings("a") == ((1, 2), (75, 100))

    def test_snapshot_index_sees_extended_events(self):
        store = EventStore()
        store.extend([("a", 10), ("a", 20)])
        assert store.columnar().count("a") == 2
        store.extend([("a", 30)])
        assert store.columnar().count("a") == 3
        _assert_view_matches_rebuild(store)
