"""Directed tests of the kernel's configuration dedup keys.

:meth:`~repro.automata.dense.BankKernel.advance` drops a configuration
when one with the same state and the same reset ticks is already in the
next frontier.  It does so at three sites: the carry of a configuration
that stays put, the successor a transition creates, and the replay of
the carry over the configurations a wake visited before its first
transition fired.  Keying any site on the state alone merges
configurations whose clocks were reset at different ticks, and the
dropped one may be the only one that can still complete the pattern.

Each log below needs the dropped configuration, and both production
paths - ``occurs_at``/``bindings_at`` on a stored sequence and
:class:`~repro.automata.StreamingMatcher` - must report the binding
:meth:`~repro.automata.TagMatcher.match_from` reports.
"""

import pytest

from repro.automata import StreamingMatcher, TagMatcher, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity.gregorian import SECONDS_PER_HOUR
from repro.mining.events import Event, EventSequence

H = SECONDS_PER_HOUR


def _cet(system, a_to_b, b_to_c):
    """R -> A [0,2]h, A -> B ``a_to_b``, B -> C ``b_to_c`` and
    A -> C [4,4]h: C's hour pins A to one hour."""
    hour = system.get("hour")
    structure = EventStructure(
        ["R", "A", "B", "C"],
        {
            ("R", "A"): [TCG(0, 2, hour)],
            ("A", "B"): [TCG(*a_to_b, hour)],
            ("B", "C"): [TCG(*b_to_c, hour)],
            ("A", "C"): [TCG(4, 4, hour)],
        },
    )
    return ComplexEventType(
        structure, {"R": "r", "A": "a", "B": "b", "C": "c"}
    )


#: (name, A -> B, B -> C, log as (type, hour) pairs, expected bindings
#: in hours).
CASES = [
    # a@0 opens the ({R, A}, A at hour 0) configuration.  At a@1 the
    # root's successor reaches {R, A} with A at hour 1 before the hour-0
    # copy is carried, and at a@1.5 the hour-1 copy is carried first:
    # a successor or carry key without the ticks drops the hour-0 copy,
    # the only one C's hour accepts.
    (
        "successor-and-carry",
        (0, 5),
        (0, 5),
        [("r", 0), ("a", 0), ("a", 1), ("a", 1.5), ("b", 2), ("c", 4)],
        {"R": 0, "A": 0, "B": 2, "C": 4},
    ),
    # At b@2 the first transition fires from the third configuration,
    # ({R, A}, A at hour 0): the ({R, A}, A at hour 1) one before it is
    # too close for A -> B's lower bound.  The replay re-carries both;
    # keyed on the state alone, it keeps the hour-1 copy and drops the
    # hour-0 one, which only b@4 - the B that C's hour accepts - can
    # extend.
    (
        "replay",
        (2, 5),
        (0, 0),
        [("r", 0), ("a", 0), ("a", 1), ("b", 2), ("b", 4), ("c", 4)],
        {"R": 0, "A": 0, "B": 4, "C": 4},
    ),
]


def _sequence(log):
    return EventSequence([Event(etype, int(hour * H)) for etype, hour in log])


@pytest.mark.parametrize(
    "a_to_b, b_to_c, log, expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
class TestDedupKeys:
    def test_reference_binds_the_dropped_configuration(
        self, system, a_to_b, b_to_c, log, expected
    ):
        matcher = TagMatcher(build_tag(_cet(system, a_to_b, b_to_c)))
        result = matcher.match_from(_sequence(log), 0)
        assert result.matched
        assert result.bindings == {
            variable: hour * H for variable, hour in expected.items()
        }

    def test_stored_sequence_matches_the_reference(
        self, system, a_to_b, b_to_c, log, expected
    ):
        matcher = TagMatcher(build_tag(_cet(system, a_to_b, b_to_c)))
        sequence = _sequence(log)
        reference = matcher.match_from(sequence, 0)
        assert matcher.occurs_at(sequence, 0)
        assert matcher.bindings_at(sequence, 0) == reference.bindings
        assert list(matcher.matching_roots(sequence)) == [0]

    def test_stream_matches_the_reference(
        self, system, a_to_b, b_to_c, log, expected
    ):
        build = build_tag(_cet(system, a_to_b, b_to_c))
        sequence = _sequence(log)
        reference = TagMatcher(build).match_from(sequence, 0)
        stream = StreamingMatcher(build)
        detections = stream.feed_sequence(sequence) + stream.flush()
        assert [d.bindings for d in detections] == [reference.bindings]
        assert detections[0].anchor_time == 0
