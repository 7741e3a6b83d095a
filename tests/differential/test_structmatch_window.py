"""Differential oracle: the tick-windowed Section-3 matcher vs the naive one.

:func:`~repro.automata.structmatch.find_occurrence` stops a variable's
candidate list at the first event whose tick lies past
``tick(t_P) + n`` for a TCG ``[m, n]`` on ``(P, X)``;
:func:`~tests.differential.reference.naive_find_occurrence` lists every
event of the type from the predecessor's timestamp on.  The window is
exact only because ticks never decrease over covered instants, so the
properties draw every granularity of the standard system - gapped
business types and variable-length months and years included - plus
the grouped quarter the calendar workload uses.  Timestamps repeat
(no ``unique=True``) and come at several scales, so windows end on
tick boundaries, inside gaps and between tied events.  The bindings
themselves are compared, not just whether one exists.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mining.pruning as pruning
from repro.automata.structmatch import find_occurrence
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.granularity.combinators import GroupedType
from repro.mining.events import EventSequence
from repro.mining.pruning import consistency_gate, screen_candidate_pairs

from .reference import naive_find_occurrence

SYSTEM = standard_system()
SYSTEM.register(GroupedType(SYSTEM.get("month"), 3, "quarter"))
GRANULARITIES = [SYSTEM.get(label) for label in SYSTEM.labels()]

HOUR = 3600
DAY = 24 * HOUR
#: Event spacings from one second to about a month: each puts several
#: events in some ticks and crosses the boundaries of others.
SCALES = [1, 60, 1800, HOUR, 6 * HOUR, DAY, 3 * DAY, 7 * DAY, 30 * DAY]
TYPES = ("a", "b", "c")

WINDOW = settings(max_examples=200, deadline=None)


@st.composite
def tcgs(draw):
    """One or two TCGs with ``m`` up to 2 over any drawn granularity.

    ``m`` leans to 0 so that structures of several arcs still match
    often enough for the bindings to be compared, not just the Nones.
    """
    count = draw(st.integers(min_value=1, max_value=2))
    result = []
    for _ in range(count):
        m = draw(st.sampled_from([0, 0, 0, 1, 2]))
        span = draw(st.integers(min_value=0, max_value=3))
        result.append(TCG(m, m + span, draw(st.sampled_from(GRANULARITIES))))
    return result


@st.composite
def structures(draw):
    """Rooted DAGs of 2-5 variables, 1-2 TCGs per arc."""
    n = draw(st.integers(min_value=2, max_value=5))
    names = ["X%d" % i for i in range(n)]
    arcs = set()
    for i in range(1, n):
        arcs.add((names[draw(st.integers(min_value=0, max_value=i - 1))],
                  names[i]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        arcs.add((names[a], names[b]))
    return EventStructure(
        names, {arc: draw(tcgs()) for arc in sorted(arcs)}
    )


@st.composite
def sequences(draw, cet, types=TYPES, max_noise=12):
    """Noise events plus one to three planted copies of ``cet``.

    Times are multiples of a drawn scale (repeats allowed) after a
    drawn offset, so windows start anywhere in a week or a year.  A
    planted variable sits zero to three steps after its latest
    predecessor; whether the copy satisfies the TCGs depends on where
    those steps fall against each granularity's ticks and gaps.
    """
    scale = draw(st.sampled_from(SCALES))
    offset = draw(st.integers(min_value=0, max_value=400 * DAY))
    step = st.integers(min_value=0, max_value=12)
    events = [
        (draw(st.sampled_from(types)), offset + draw(step) * scale)
        for _ in range(draw(st.integers(min_value=0, max_value=max_noise)))
    ]
    structure = cet.structure
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        times = {structure.root: offset + draw(step) * scale}
        for variable in structure.topological_order()[1:]:
            times[variable] = max(
                times[p] for p in structure.predecessors(variable)
            ) + draw(st.integers(min_value=0, max_value=3)) * scale
        events.extend(
            (cet.event_type(variable), time)
            for variable, time in times.items()
        )
    return EventSequence(events)


@st.composite
def complex_types(draw):
    structure = draw(structures())
    assignment = {
        variable: draw(st.sampled_from(TYPES))
        for variable in structure.variables
    }
    return ComplexEventType(structure, assignment)


@st.composite
def matching_cases(draw):
    cet = draw(complex_types())
    return cet, draw(sequences(cet))


class TestWindowedBinding:
    @given(case=matching_cases())
    @WINDOW
    def test_binding_equals_naive_enumeration(self, case):
        cet, sequence = case
        for index in range(len(sequence)):
            assert find_occurrence(
                cet, sequence, index
            ) == naive_find_occurrence(cet, sequence, index)

    def test_tie_example_binds_every_variable(self):
        # A -> B [0,0] hour, A -> C [0,1] hour over a sequence whose
        # tied pair is stored in the order contradicting the binding.
        hour = SYSTEM.get("hour")
        structure = EventStructure(
            ["A", "B", "C"],
            {("A", "B"): [TCG(0, 0, hour)], ("A", "C"): [TCG(0, 1, hour)]},
        )
        cet = ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})
        sequence = EventSequence([("b", 500), ("a", 500), ("c", 900)])
        expected = {"A": 1, "B": 0, "C": 2}
        assert naive_find_occurrence(cet, sequence, 1) == expected
        assert find_occurrence(cet, sequence, 1) == expected

    def test_uncovered_candidate_does_not_end_the_window(self):
        # Day 4 is a Friday: the Saturday "b" lies in a b-day gap, and
        # the window goes on to Monday, one b-day after the root.
        bday = SYSTEM.get("b-day")
        structure = EventStructure(["A", "B"], {("A", "B"): [TCG(0, 1, bday)]})
        cet = ComplexEventType(structure, {"A": "a", "B": "b"})
        sequence = EventSequence(
            [("a", 4 * DAY), ("b", 5 * DAY), ("b", 7 * DAY)]
        )
        expected = {"A": 0, "B": 2}
        assert naive_find_occurrence(cet, sequence, 0) == expected
        assert find_occurrence(cet, sequence, 0) == expected


@st.composite
def screened_chains(draw):
    """R -> X -> Y chains shaped like the default mining workload's,
    propagated so the induced sub-structures carry derived TCGs in
    several granularities."""
    first, second = (
        TCG(
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=1, max_value=3)),
            draw(st.sampled_from(GRANULARITIES)),
        )
        for _ in range(2)
    )
    structure = EventStructure(
        ["R", "X", "Y"], {("R", "X"): [first], ("X", "Y"): [second]}
    )
    consistent, result = consistency_gate(structure, SYSTEM)
    planted = ComplexEventType(
        structure,
        {"R": "r", "X": draw(st.sampled_from(TYPES)),
         "Y": draw(st.sampled_from(TYPES))},
    )
    sequence = draw(sequences(planted, types=("r",) + TYPES))
    confidence = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return consistent, result, sequence, confidence


class TestPairScreen:
    @given(case=screened_chains())
    @WINDOW
    def test_kept_pairs_equal_naive_screen(self, case):
        consistent, result, sequence, confidence = case
        if not consistent:
            return
        roots = list(sequence.occurrence_indices("r"))
        survivors = {"X": set(TYPES), "Y": set(TYPES)}

        def screen():
            return screen_candidate_pairs(
                result, sequence, roots, len(roots), survivors, "r",
                confidence,
            )

        windowed = screen()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pruning, "find_occurrence", naive_find_occurrence)
            naive = screen()
        assert windowed == naive
