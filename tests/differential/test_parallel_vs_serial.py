"""Serial vs parallel discovery: the bit-identical-results guarantee.

The parallel engine's contract is that sharding, anchor screening and
worker fan-out are pure execution strategy: for ANY shard size, worker
count and event layout (including matches that straddle shard
boundaries), ``discover(parallel=N)`` returns the same assignments,
frequencies and work counters as the serial engine.  Hypothesis
searches for a counterexample; the pool tests then confirm the same on
real forked workers.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import TCG, EventStructure
from repro.granularity import standard_system
from repro.mining import EventDiscoveryProblem, EventSequence, discover
from repro.parallel import fork_available

SYSTEM = standard_system()
LABELS = ["hour", "day"]


def _assignment_keys(outcome):
    return sorted(
        str(sorted(assignment.items()))
        for assignment in outcome.solution_assignments()
    )


def _frequency_map(outcome):
    return {
        str(sorted(cet.assignment.items())): freq
        for cet, freq in outcome.frequencies.items()
    }


def _assert_equivalent(serial, parallel):
    assert _assignment_keys(serial) == _assignment_keys(parallel)
    assert _frequency_map(serial) == _frequency_map(parallel)
    assert serial.candidates_evaluated == parallel.candidates_evaluated
    assert serial.automaton_starts == parallel.automaton_starts
    assert serial.stats == parallel.stats
    assert serial == parallel  # parallelism report is excluded by design


@st.composite
def parallel_cases(draw):
    shape = draw(st.sampled_from(["chain2", "chain3", "fan"]))
    if shape == "chain2":
        names = ["R", "A"]
        arcs = [("R", "A")]
    elif shape == "chain3":
        names = ["R", "A", "B"]
        arcs = [("R", "A"), ("A", "B")]
    else:
        names = ["R", "A", "B"]
        arcs = [("R", "A"), ("R", "B")]
    constraints = {}
    for arc in arcs:
        label = draw(st.sampled_from(LABELS))
        m = draw(st.integers(min_value=0, max_value=2))
        span = draw(st.integers(min_value=0, max_value=3))
        constraints[arc] = [TCG(m, m + span, SYSTEM.get(label))]
    structure = EventStructure(names, constraints)
    types = ["t%d" % i for i in range(draw(st.integers(1, 3)))]
    # Hour-grained slots: tight enough that shard boundaries regularly
    # fall inside a root's horizon window (the straddling case).
    slots = draw(
        st.lists(
            st.integers(min_value=0, max_value=12 * 24),
            min_size=4,
            max_size=28,
            unique=True,
        )
    )
    events = [
        ("r" if draw(st.booleans()) else draw(st.sampled_from(types)), s * 3600)
        for s in sorted(slots)
    ]
    confidence = draw(st.sampled_from([0.2, 0.5, 0.8]))
    problem = EventDiscoveryProblem(structure, confidence, "r")
    workers = draw(st.integers(min_value=2, max_value=4))
    shard_size = draw(st.sampled_from(["auto", 1, 2, 3, 7]))
    screen_depth = draw(st.sampled_from([0, 1, 2]))
    return problem, EventSequence(events), workers, shard_size, screen_depth


class TestParallelSerialEquivalenceHypothesis:
    @given(case=parallel_cases())
    @settings(max_examples=200, deadline=None)
    def test_discover_is_bit_identical(self, case):
        problem, sequence, workers, shard_size, screen_depth = case
        serial = discover(
            problem, sequence, SYSTEM, screen_depth=screen_depth
        )
        # Forcing the inline executor keeps 200 examples fast; the task
        # grid, sharding, screening and merge logic are identical to
        # the pool path (TestRealWorkerPool covers the fork boundary).
        with mock.patch(
            "repro.parallel.engine.fork_available", return_value=False
        ):
            parallel = discover(
                problem,
                sequence,
                SYSTEM,
                screen_depth=screen_depth,
                parallel=workers,
                shard_size=shard_size,
            )
        if parallel.parallelism is not None:
            # None means the pipeline exited before the scan (no
            # reference events, inconsistency, or screening emptied a
            # pool) - equivalence still holds below.
            assert parallel.parallelism["executor"] == "inline"
        _assert_equivalent(serial, parallel)


@pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform"
)
class TestRealWorkerPool:
    def _case(self):
        hour = SYSTEM.get("hour")
        structure = EventStructure(
            ["R", "A", "B"],
            {
                ("R", "A"): [TCG(0, 2, hour)],
                ("A", "B"): [TCG(0, 2, hour)],
            },
        )
        events = []
        for i in range(20):
            t = i * 10_000
            events.append(("r", t))
            if i % 2 == 0:
                events.append(("a", t + 3_000))
            if i % 3 != 2:
                events.append(("b", t + 6_500))
        sequence = EventSequence(sorted(events, key=lambda e: e[1]))
        return EventDiscoveryProblem(structure, 0.2, "r"), sequence

    @pytest.mark.parametrize("shard_size", ["auto", 1, 3])
    def test_two_worker_pool_is_bit_identical(self, shard_size):
        problem, sequence = self._case()
        serial = discover(problem, sequence, SYSTEM)
        parallel = discover(
            problem,
            sequence,
            SYSTEM,
            parallel=2,
            shard_size=shard_size,
        )
        assert parallel.parallelism["executor"] == "pool"
        assert parallel.parallelism["workers"] == 2
        _assert_equivalent(serial, parallel)
