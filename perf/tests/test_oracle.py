"""The oracle agrees with the program's Section-3 reference semantics.

``find_occurrence`` (repro.automata.structmatch) binds variables by
backtracking over the whole sequence; the oracle bisects per-type
windows.  On small tie-free instances of every workload shape both
must answer every (candidate, root) question the same way.
"""

import random

import pytest

import oracle
from repro.automata.structmatch import find_occurrence
from repro.constraints.structure import ComplexEventType
from repro.granularity.registry import standard_system
from repro.io.serialize import (
    complex_event_type_from_dict,
    granularity_from_dict,
    problem_from_dict,
)
from repro.mining.events import Event, EventSequence
from workloads import QUARTER, WORKLOADS, _label

MINE = [name for name, w in WORKLOADS.items() if w.kind == "mine"]
SERVE = [name for name, w in WORKLOADS.items() if w.kind == "serve"]


@pytest.mark.parametrize("name", MINE)
@pytest.mark.parametrize("seed", [1, 2])
def test_mine_occurrences_match_find_occurrence(name, seed):
    inputs = WORKLOADS[name].inputs(seed, scale=0.03)
    system = standard_system()
    problem = problem_from_dict(inputs.spec, system)
    sequence = EventSequence(Event(etype, t) for etype, t in inputs.rows)
    table = oracle.times_by_type(inputs.rows)
    structure = oracle.Structure(inputs.spec["structure"])
    roots = sequence.occurrence_indices(problem.reference_type)
    assert roots
    checked = 0
    for assignment in oracle.candidate_assignments(inputs.spec, set(table)):
        cet = ComplexEventType(problem.structure, assignment)
        for index in roots:
            expected = find_occurrence(cet, sequence, index) is not None
            got = oracle.occurs(structure, assignment, table,
                                sequence[index].time)
            assert got == expected, (assignment, sequence[index])
            checked += expected
    assert checked, "the instance should contain some occurrences"


@pytest.mark.parametrize("name", SERVE)
def test_serve_detections_match_find_occurrence(name):
    inputs = WORKLOADS[name].inputs(3, scale=0.05)
    cet = complex_event_type_from_dict(inputs.spec, standard_system())
    sessions = {}
    for tenant, key, etype, t in inputs.rows:
        sessions.setdefault((tenant, key), []).append(Event(etype, t))
    expected = []
    for (tenant, key), events in sessions.items():
        sequence = EventSequence(events)
        for index in sequence.occurrence_indices(cet.assignment["A"]):
            if find_occurrence(cet, sequence, index) is not None:
                expected.append((tenant, key, sequence[index].time))
    got = oracle.serve_detections(inputs.spec, inputs.rows)
    assert got == sorted(expected)


@pytest.mark.parametrize(
    "spec",
    [_label("hour"), _label("minute"), _label("month"),
     _label("business-month"), QUARTER],
    ids=lambda spec: spec["label"],
)
def test_ticks_match_the_program(spec):
    program = granularity_from_dict(spec, standard_system())
    mine = oracle.granularity(spec)
    rng = random.Random(spec["label"])
    forty_years = 40 * 366 * 86400
    instants = [rng.randrange(forty_years) for _ in range(3000)]
    for t in [0, 86399, 86400] + instants:
        assert mine.tick(t) == program.tick_of(t), t
        k = mine.tick(t)
        if k is not None:
            assert mine.first(k) <= t <= mine.last(k)


def test_tcg_needs_order_and_coverage():
    bmonth = (0, 0, oracle.granularity(_label("business-month")))
    monday, saturday = 0, 5 * 86400
    assert oracle.tcg_holds(bmonth, monday, monday + 3600)
    assert not oracle.tcg_holds(bmonth, monday + 3600, monday)
    assert not oracle.tcg_holds(bmonth, monday, saturday)
