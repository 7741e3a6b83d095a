"""Differential oracle: the depth-2 pair screen against its definition.

:func:`~repro.mining.pruning.screen_candidate_pairs` screens each type
pair's roots with the anchor screen, runs the tick-windowed Section-3
matcher on the rest, and stops the type pair once its hits clear the
threshold or can no longer clear it.
:func:`~tests.differential.reference.reference_pair_screen` runs the
naive matcher on every (pair, root).  The logs are the ones that break
shortcuts: timestamps on a coarse grid, so roots and candidates tie,
and same-type bursts, so a variable's window holds many candidates of
which few satisfy the other bound.  A second property holds whole
discovery: the pair screen is sound, so ``discover`` at depth 2 reports
exactly the solutions and frequencies of depth 1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.mining import EventDiscoveryProblem, discover
from repro.mining.events import EventSequence
from repro.mining.pruning import consistency_gate, screen_candidate_pairs

from .reference import reference_pair_screen, solution_map

SYSTEM = standard_system()
GRANULARITIES = [
    SYSTEM.get(label)
    for label in ("minute", "hour", "day", "b-day", "week", "month")
]
TYPES = ("a", "b", "c")

HOUR = 3600
DAY = 24 * HOUR
#: Grid steps: every drawn log puts several events on one instant.
SCALES = [60, 1800, HOUR, 6 * HOUR, DAY]

SCREEN = settings(max_examples=120, deadline=None)


@st.composite
def structures(draw):
    """Rooted DAGs of 3-4 variables, root R, 1-2 TCGs per arc."""
    names = ["R", "X", "Y", "Z"][: draw(st.integers(3, 4))]
    arcs = set()
    for i in range(1, len(names)):
        arcs.add((names[draw(st.integers(0, i - 1))], names[i]))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, len(names) - 2))
        b = draw(st.integers(a + 1, len(names) - 1))
        arcs.add((names[a], names[b]))

    def tcgs():
        result = []
        for _ in range(draw(st.integers(1, 2))):
            m = draw(st.sampled_from([0, 0, 1]))
            span = draw(st.integers(0, 2))
            granularity = draw(st.sampled_from(GRANULARITIES))
            result.append(TCG(m, m + span, granularity))
        return result

    return EventStructure(names, {arc: tcgs() for arc in sorted(arcs)})


@st.composite
def tied_logs(draw, cet):
    """Roots, noise, bursts and planted copies of ``cet`` on a grid.

    A burst is 2-12 events of one type, all on one grid instant or on
    consecutive seconds.  A planted variable sits zero to two steps
    after its latest predecessor, so copies tie with their roots.
    """
    scale = draw(st.sampled_from(SCALES))
    offset = draw(st.integers(0, 60)) * DAY
    step = st.integers(0, 10)
    events = [
        (draw(st.sampled_from(("r",) + TYPES)), offset + draw(step) * scale)
        for _ in range(draw(st.integers(1, 10)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        etype = draw(st.sampled_from(TYPES))
        start = offset + draw(step) * scale
        spread = draw(st.sampled_from([0, 1]))
        events.extend(
            (etype, start + k * spread)
            for k in range(draw(st.integers(2, 12)))
        )
    structure = cet.structure
    for _ in range(draw(st.integers(1, 3))):
        times = {structure.root: offset + draw(step) * scale}
        for variable in structure.topological_order()[1:]:
            times[variable] = max(
                times[p] for p in structure.predecessors(variable)
            ) + draw(st.integers(0, 2)) * scale
        events.extend(
            (cet.event_type(variable), time)
            for variable, time in times.items()
        )
    return EventSequence(events)


@st.composite
def screen_cases(draw):
    structure = draw(structures())
    assignment = {
        variable: draw(st.sampled_from(TYPES))
        for variable in structure.variables
    }
    assignment[structure.root] = "r"
    sequence = draw(tied_logs(ComplexEventType(structure, assignment)))
    confidence = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8]))
    return structure, sequence, confidence


class TestPairScreenReference:
    @given(case=screen_cases())
    @SCREEN
    def test_kept_pairs_equal_reference_screen(self, case):
        structure, sequence, confidence = case
        consistent, result = consistency_gate(structure, SYSTEM)
        if not consistent:
            return
        roots = list(sequence.occurrence_indices("r"))
        survivors = {
            variable: set(TYPES)
            for variable in structure.variables
            if variable != structure.root
        }
        arguments = (
            result, sequence, roots, len(roots), survivors, "r", confidence
        )
        assert screen_candidate_pairs(*arguments) == reference_pair_screen(
            *arguments
        )

    @given(case=screen_cases())
    @SCREEN
    def test_depth_two_discovers_what_depth_one_does(self, case):
        structure, sequence, confidence = case
        problem = EventDiscoveryProblem(structure, confidence, "r")
        at_two = discover(problem, sequence, SYSTEM)
        at_one = discover(problem, sequence, SYSTEM, screen_depth=1)
        assert solution_map(at_two) == solution_map(at_one)
