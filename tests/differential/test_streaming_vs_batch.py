"""Differential oracle: StreamingMatcher vs the batch TagMatcher.

The online matcher must detect exactly the anchors the batch scan
finds on the same (time-sorted) sequence, with the same bindings,
under strict and lazy semantics, with and without a horizon - and keep
doing so when events arrive out of order within a ``max_lateness``
bound, because the reorder buffer re-sorts them before the automaton
sees anything.  Both run the one dense advance kernel; the b-day
clock of the diamond has gaps, so strict and lazy runs differ.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata import StreamingMatcher, TagMatcher, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.granularity.gregorian import SECONDS_PER_HOUR
from repro.mining.events import EventSequence

H = SECONDS_PER_HOUR

SYSTEM = standard_system()


def _chain_cet() -> ComplexEventType:
    hour = SYSTEM.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    return ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})


def _diamond_cet() -> ComplexEventType:
    bday = SYSTEM.get("b-day")
    hour = SYSTEM.get("hour")
    week = SYSTEM.get("week")
    structure = EventStructure(
        ["X0", "X1", "X2", "X3"],
        {
            ("X0", "X1"): [TCG(1, 1, bday)],
            ("X1", "X3"): [TCG(0, 1, week)],
            ("X0", "X2"): [TCG(0, 5, bday)],
            ("X2", "X3"): [TCG(0, 8, hour)],
        },
    )
    return ComplexEventType(
        structure, {"X0": "a", "X1": "b", "X2": "c", "X3": "d"}
    )


CETS = {"chain": _chain_cet(), "diamond": _diamond_cet()}

ALPHABET = ["a", "b", "c", "d", "noise"]


@st.composite
def event_streams(draw, min_gap: int = 0, max_events: int = 25):
    """A time-sorted list of (etype, time) over the shared alphabet."""
    count = draw(st.integers(min_value=0, max_value=max_events))
    time = draw(st.integers(min_value=0, max_value=3 * H))
    events = []
    for _ in range(count):
        symbol = draw(st.sampled_from(ALPHABET))
        events.append((symbol, time))
        time += draw(st.integers(min_value=min_gap, max_value=3 * H))
    return events


D = 24 * H

#: A diamond occurrence across a b-day gap (b-day covers days 0-4 of
#: each week): the root on day 4, noise on day 5, the rest on day 7.
#: Lazy runs detect it; a strict run dies at the noise.
ACROSS_GAP = [
    ("a", 4 * D + 10 * H), ("noise", 5 * D + 10 * H),
    ("b", 7 * D + 10 * H), ("c", 7 * D + 11 * H), ("d", 7 * D + 12 * H),
]


def _batch_anchor_times(cet, events, strict=False, horizon=None):
    sequence = EventSequence(events)
    matcher = TagMatcher(
        build_tag(cet, system=SYSTEM), strict=strict, horizon_seconds=horizon
    )
    return sorted(
        sequence[index].time for index in matcher.matching_roots(sequence)
    )


def _occurrences(pairs):
    """``(anchor_time, bindings)`` pairs as a sorted multiset (roots
    may tie, so two detections can share an anchor time)."""
    return sorted(
        (anchor_time, sorted(bindings.items()))
        for anchor_time, bindings in pairs
    )


def _batch_occurrences(cet, events):
    sequence = EventSequence(events)
    matcher = TagMatcher(build_tag(cet, system=SYSTEM))
    return _occurrences(
        (sequence[index].time, matcher.bindings_at(sequence, index))
        for index in matcher.matching_roots(sequence)
    )


@pytest.mark.parametrize("pattern", sorted(CETS))
class TestStreamingEqualsBatch:
    @given(
        events=event_streams(),
        strict=st.booleans(),
        horizon=st.one_of(st.none(), st.integers(0, 3 * D)),
    )
    @example(events=ACROSS_GAP, strict=False, horizon=None)
    @example(events=ACROSS_GAP, strict=True, horizon=None)
    @example(events=ACROSS_GAP, strict=False, horizon=2 * D)
    @settings(max_examples=200, deadline=None)
    def test_same_anchors_in_order_delivery(
        self, pattern, events, strict, horizon
    ):
        cet = CETS[pattern]
        streaming = StreamingMatcher(
            build_tag(cet, system=SYSTEM),
            strict=strict,
            horizon_seconds=horizon,
        )
        detections = streaming.feed_sequence(EventSequence(events))
        detections.extend(streaming.flush())
        assert sorted(d.anchor_time for d in detections) == (
            _batch_anchor_times(cet, events, strict, horizon)
        )

    @given(events=event_streams())
    @settings(max_examples=200, deadline=None)
    def test_detection_bindings_are_occurrences(self, pattern, events):
        """Every streamed detection's bindings satisfy every TCG of the
        pattern, and equal the stored scan's bindings at the same roots
        (so the two matchers agree on *what* they found, not just on
        how many anchors)."""
        cet = CETS[pattern]
        structure = cet.structure
        streaming = StreamingMatcher(build_tag(cet, system=SYSTEM))
        detections = streaming.feed_sequence(EventSequence(events))
        detections.extend(streaming.flush())
        for detection in detections:
            bindings = detection.bindings
            assert bindings[structure.root] == detection.anchor_time
            for (x, y), tcgs in structure.constraints.items():
                for constraint in tcgs:
                    assert constraint.is_satisfied(bindings[x], bindings[y])
        assert _occurrences(
            (d.anchor_time, d.bindings) for d in detections
        ) == _batch_occurrences(cet, events)

    @given(events=event_streams(min_gap=1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_anchors_under_bounded_reordering(
        self, pattern, events, data
    ):
        """Deliveries jittered by at most ``max_lateness`` seconds are
        re-sorted by the reorder buffer: same detections as the batch
        scan of the sorted sequence, nothing dropped."""
        cet = CETS[pattern]
        lateness = data.draw(st.integers(min_value=0, max_value=2 * H))
        jitter = [
            data.draw(st.integers(min_value=0, max_value=lateness))
            for _ in events
        ]
        delivery = [
            event
            for _, event in sorted(
                zip(jitter, events), key=lambda pair: pair[1][1] + pair[0]
            )
        ]
        streaming = StreamingMatcher(
            build_tag(cet, system=SYSTEM), max_lateness=lateness
        )
        detections = []
        for etype, time in delivery:
            detections.extend(streaming.feed(etype, time))
        detections.extend(streaming.flush())
        assert streaming.late_events_dropped == 0
        assert sorted(d.anchor_time for d in detections) == (
            _batch_anchor_times(cet, events)
        )

    def test_shuffled_beyond_lateness_drops_but_never_invents(self, pattern):
        """Arbitrary shuffling with a finite buffer may lose matches,
        but every detection that survives is one the batch scan finds."""
        cet = CETS[pattern]
        rng = random.Random(11)
        events = [
            (rng.choice(ALPHABET), t * H // 2) for t in range(40)
        ]
        delivery = list(events)
        rng.shuffle(delivery)
        streaming = StreamingMatcher(
            build_tag(cet, system=SYSTEM), max_lateness=H
        )
        detections = []
        for etype, time in delivery:
            detections.extend(streaming.feed(etype, time))
        detections.extend(streaming.flush())
        batch_times = _batch_anchor_times(cet, events)
        for detection in detections:
            assert detection.anchor_time in batch_times
