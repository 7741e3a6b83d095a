"""Stored-log ingest held against the per-row reader and the paper's
step-2 rule.

``read_events`` streams a CSV log into a type-id column and a time
column, and ``EventSequence`` keeps those columns (its postings are
the ones its columnar view reads); ``reduce_sequence`` decides step 2
per event type over whole posting-time columns.  The references in
:mod:`tests.differential.reference` do the same work the slow way:
every row listed and turned into an :class:`Event`, the events sorted
and indexed one by one, and each event kept or dropped through each
granularity's own ``tick_of``.  A ``discover`` call over a read log
builds no :class:`Event` at all.
"""

import csv
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import TCG, EventStructure
from repro.granularity import (
    BusinessDayType,
    BusinessMonthType,
    BusinessWeekType,
    UniformType,
    hour,
    minute,
    standard_system,
)
from repro.granularity.gregorian import SECONDS_PER_DAY
from repro.granularity.periodic import PeriodicPatternType
from repro.io.csvlog import CsvFormatError, read_events
from repro.io.serialize import load_json, problem_from_dict
from repro.mining.discovery import discover
from repro.mining.events import Event, EventSequence
from repro.mining.pruning import reduce_sequence
from repro.resilience import Quarantine

from .reference import (
    reference_read_events,
    reference_reduce,
    reference_sequence,
)

DAY = SECONDS_PER_DAY
EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "data"
)


def assert_sequence_is(sequence, events):
    """``sequence`` holds ``events`` sorted stably by time: event by
    event, by position, per type, and in its columnar view."""
    ordered, postings = reference_sequence(events)
    assert len(sequence) == len(ordered)
    assert list(sequence) == ordered
    assert [sequence[i] for i in range(len(ordered))] == ordered
    assert [sequence.type_at(i) for i in range(len(ordered))] == [
        event.etype for event in ordered
    ]
    assert [sequence.time_at(i) for i in range(len(ordered))] == [
        event.time for event in ordered
    ]
    assert sequence.types() == set(postings)
    view = sequence.columnar()
    assert view.time_column() == [event.time for event in ordered]
    assert view.types() == sorted(postings)
    for etype in sorted(postings) + ["absent"]:
        expected = postings.get(etype, ((), ()))
        assert sequence.postings(etype) == expected
        assert view.postings(etype) == expected
        # One string object per distinct type.
        assert len({id(sequence.type_at(i)) for i in expected[0]}) <= 1
    assert [view.event_at(i) for i in range(len(ordered))] == [
        tuple(event) for event in ordered
    ]


# ----------------------------------------------------------------------
# (a) The streamed reader vs the per-row reader
# ----------------------------------------------------------------------
TYPES = ["a", "b", "c", "x y", "é"]


def integer_stamps():
    return st.one_of(
        st.integers(min_value=0, max_value=40),  # ties, out of order
        st.integers(min_value=0, max_value=10**7),
    ).map(str)


@st.composite
def calendar_stamps(draw):
    """``YYYY-MM-DD[ HH:MM[:SS]]``, invalid dates and times included."""
    stamp = "%04d-%02d-%02d" % (
        draw(st.integers(min_value=1998, max_value=2030)),
        draw(st.integers(min_value=0, max_value=13)),
        draw(st.integers(min_value=0, max_value=31)),
    )
    if draw(st.booleans()):
        stamp += "%s%02d:%02d" % (
            draw(st.sampled_from([" ", "T"])),
            draw(st.integers(min_value=0, max_value=25)),
            draw(st.integers(min_value=0, max_value=61)),
        )
        if draw(st.booleans()):
            stamp += ":%02d" % draw(st.integers(min_value=0, max_value=61))
    return stamp


def stamps():
    padding = st.sampled_from(["", " ", "  ", "\t"])
    return st.one_of(
        integer_stamps(),
        calendar_stamps(),
        st.tuples(padding, integer_stamps(), padding).map("".join),
        st.sampled_from(
            ["", " ", "abc", "-5", "1.5", "12a", "+3", "0x10",
             "١٢٣", "１２", "²", "1 2"]
        ),
    )


def type_cells():
    return st.one_of(
        st.sampled_from(TYPES),
        st.tuples(
            st.sampled_from(["", " ", "\t"]),
            st.sampled_from(TYPES),
            st.sampled_from(["", " "]),
        ).map("".join),
        st.sampled_from(["", "  "]),
    )


def rows():
    return st.one_of(
        st.tuples(type_cells(), stamps()).map(list),
        st.tuples(
            type_cells(), stamps(), st.text(alphabet='xy ,"', max_size=3)
        ).map(list),
        st.tuples(type_cells()).map(list),
        st.sampled_from([[], [""], ["  "]]),
    )


@st.composite
def csv_logs(draw):
    """``(text, has_header)``: a CSV log, with or without a header row,
    and the reader's header setting (auto-detect, yes or no)."""
    body = draw(st.lists(rows(), max_size=25))
    if draw(st.booleans()):
        body.insert(0, ["event_type", "timestamp"])
    handle = io.StringIO()
    writer = csv.writer(
        handle, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))
    )
    for row in body:
        writer.writerow(row)
    return handle.getvalue(), draw(st.sampled_from([None, True, False]))


def _records(quarantine):
    return [(entry.line, entry.reason, entry.raw) for entry in quarantine]


@given(case=csv_logs())
@settings(max_examples=300, deadline=None)
def test_strict_read_equals_per_row_reader(case):
    _check_strict_read(*case)


@pytest.mark.parametrize(
    "stamp",
    ["7", "²", "١٢٣", "１２", " 7", "7 ", "", "1.5", "-3", "2001-02-03"],
)
def test_known_type_rows_read_as_per_row_reader(stamp):
    """A second row of a known type with a clean cell layout, whatever
    its stamp: the fast row path must answer as the per-row reader."""
    text = "a,1\na,%s\n" % stamp
    _check_strict_read(text, None)
    _check_quarantined_read(text, None)


def _check_strict_read(text, has_header):
    try:
        events = reference_read_events(io.StringIO(text), has_header)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as raised:
            read_events(io.StringIO(text), has_header=has_header)
        assert str(raised.value) == str(exc)
        return
    sequence = read_events(io.StringIO(text), has_header=has_header)
    assert_sequence_is(sequence, events)
    assert_sequence_is(EventSequence(events), events)


@given(case=csv_logs())
@settings(max_examples=300, deadline=None)
def test_quarantined_read_equals_per_row_reader(case):
    _check_quarantined_read(*case)


def _check_quarantined_read(text, has_header):
    expected_quarantine, quarantine = Quarantine(), Quarantine()
    events = reference_read_events(
        io.StringIO(text), has_header, expected_quarantine
    )
    sequence = read_events(
        io.StringIO(text), has_header=has_header, quarantine=quarantine
    )
    assert _records(quarantine) == _records(expected_quarantine)
    assert_sequence_is(sequence, events)
    assert_sequence_is(EventSequence(events), events)


def event_lists(max_size=30):
    return st.lists(
        st.builds(
            Event,
            st.sampled_from(TYPES),
            st.one_of(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=10**6),
            ),
        ),
        max_size=max_size,
    )


@given(first=event_lists(), second=event_lists(), shift=st.integers(0, 50))
@settings(max_examples=150, deadline=None)
def test_derived_sequences_equal_per_event_rebuild(first, second, shift):
    """Every constructor goes through the column constructor, and each
    derived sequence holds what sorting its events one by one gives."""
    sequence = EventSequence(first)
    ordered, _ = reference_sequence(first)
    assert_sequence_is(sequence, first)
    assert_sequence_is(
        sequence.filtered(lambda event: event.time % 3 != 0),
        [event for event in ordered if event.time % 3 != 0],
    )
    assert_sequence_is(
        sequence.merged_with(EventSequence(second)),
        ordered + reference_sequence(second)[0],
    )
    assert_sequence_is(
        sequence.shifted(shift),
        [Event(event.etype, event.time + shift) for event in ordered],
    )
    mapping = {"a": "b", "x y": "z"}
    assert_sequence_is(
        sequence.relabelled(mapping),
        [Event(mapping.get(e.etype, e.etype), e.time) for e in ordered],
    )
    positions = list(range(0, len(ordered), 2))
    assert_sequence_is(
        sequence.gathered(positions), [ordered[i] for i in positions]
    )


# ----------------------------------------------------------------------
# (b) Per-type step-2 reduction vs the per-event rule
# ----------------------------------------------------------------------
@st.composite
def holiday_bdays(draw):
    workdays = draw(
        st.one_of(
            st.just((0, 1, 2, 3, 4)),
            st.sets(
                st.integers(min_value=0, max_value=6), min_size=1
            ).map(sorted),
        )
    )
    holidays = draw(
        st.lists(
            st.integers(min_value=0, max_value=3000), max_size=6, unique=True
        )
    )
    return BusinessDayType(workdays=workdays, holidays=holidays)


@st.composite
def reduction_cases(draw):
    """``(structure, events, allowed)``: a rooted structure whose TCGs
    mix b-day (with holidays), business-month, b-week, hour, minute,
    working hours and a phase-shifted hour; events over the holiday
    stretch; a candidate set (or None) per variable."""
    bday = draw(holiday_bdays())
    granularities = [
        bday,
        BusinessMonthType(bday=bday),
        BusinessWeekType(bday=bday),
        hour(),
        minute(),
        PeriodicPatternType("work-hours", DAY, [(9 * 3600, 8 * 3600)]),
        UniformType("late-hour", 3600, phase=draw(st.integers(1, 5 * DAY))),
    ]
    names = ["V%d" % i for i in range(draw(st.integers(2, 4)))]
    constraints = {}
    for i in range(1, len(names)):
        parent = names[draw(st.integers(0, i - 1))]
        m = draw(st.integers(0, 2))
        constraints[(parent, names[i])] = [
            TCG(m, m + draw(st.integers(0, 3)), granularity)
            for granularity in draw(
                st.lists(st.sampled_from(granularities), min_size=1,
                         max_size=2)
            )
        ]
    structure = EventStructure(names, constraints)
    types = ["a", "b", "c", "d"]
    events = draw(
        st.lists(
            st.builds(
                Event,
                st.sampled_from(types),
                st.one_of(
                    st.integers(min_value=0, max_value=3100 * DAY),
                    st.integers(min_value=0, max_value=14 * DAY),
                ),
            ),
            max_size=60,
        )
    )
    allowed = {
        name: draw(
            st.one_of(
                st.none(),
                st.frozensets(st.sampled_from(types + ["zz"])),
            )
        )
        for name in names
    }
    return structure, events, allowed


@given(case=reduction_cases())
@settings(max_examples=120, deadline=None)
def test_reduce_sequence_equals_per_event_rule(case):
    structure, events, allowed = case
    sequence = EventSequence(events)
    reduced = reduce_sequence(structure, sequence, allowed)
    assert_sequence_is(
        reduced, reference_reduce(structure, list(sequence), allowed)
    )


# ----------------------------------------------------------------------
# (c) The mining path builds no Event
# ----------------------------------------------------------------------
def _integer_log():
    """ALERT -> ACK within hours -> PAGE the next day, with noise and a
    header: the fast row path of ``read_events``."""
    lines = ["event_type,timestamp"]
    for k in range(30):
        t = k * 2 * DAY + 9 * 3600
        lines += [
            "ALERT,%d" % t,
            "NOISE,%d" % (t + 600),
            "ACK,%d" % (t + 3600),
            "PAGE,%d" % (t + DAY),
        ]
    return "\n".join(lines) + "\n"


def _calendar_log():
    with open(os.path.join(EXAMPLES, "events.csv")) as handle:
        return handle.read()


@pytest.mark.parametrize("screen_depth", [0, 1, 2])
@pytest.mark.parametrize(
    "log", [_integer_log, _calendar_log], ids=["integer", "calendar"]
)
def test_discover_over_a_read_log_builds_no_event(
    monkeypatch, log, screen_depth
):
    system = standard_system()
    problem = problem_from_dict(
        load_json(os.path.join(EXAMPLES, "problem.json")), system
    )
    text = log()
    built = []
    new = Event.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Event, "__new__", counting)
    sequence = read_events(io.StringIO(text))
    assert len(sequence) > 0
    outcome = discover(problem, sequence, system, screen_depth=screen_depth)
    assert built == []
    assert outcome.solutions
