"""Differential oracle: columnar matching vs the object reference.

Production matching over a stored sequence runs dense transition
tables over the columnar view; it is only allowed to exist because it
is *bit-identical* to the object NDFA simulation,
:meth:`~repro.automata.matching.TagMatcher.match_from`, root by root:
same match sets, same bindings, same mining outcomes.  The anchor
screen's posting-list answers are held against brute force over the
sequence, and the plan's clock columns (tick columns and strict-kill
positions) against the scalar clock, element by element.  Hypothesis
generates the stores and the patterns and shrinks any disagreement to
a minimal counterexample; the ``closure_kernel`` fixture runs the
matching and mining properties with numpy present and hidden (CI
additionally runs the whole suite on a machine without numpy), and the
anchor-screen properties, pure column arithmetic, run once.

Duplicate timestamps are generated on purpose (times are drawn with
replacement) and horizons are drawn from *realised event-time
differences*, so deadline comparisons land exactly on event boundaries
- the straddling cases where an off-by-one in the bisection cut would
show up.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata import TagMatcher, build_tag
from repro.automata.dense import ColumnPlan, DenseBatch, compile_dense
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import ConversionCache, standard_system
from repro.granularity.normalform import clock_tick_of
from repro.granularity.periodic import PeriodicPatternType
from repro.mining.discovery import EventDiscoveryProblem, discover
from repro.mining.events import Event, EventSequence
from repro.store import ColumnarEventStore

from ..strategies import rooted_dags
from .reference import (
    Unlowered,
    reference_outcomes,
    reference_roots,
    reference_solutions,
    solution_map,
)

SYSTEM = standard_system()

RELAXED = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@st.composite
def stores_and_patterns(draw):
    """A random pattern plus a random store, duplicates included."""
    structure = draw(rooted_dags(max_nodes=4))
    types = ["e%d" % i for i in range(draw(st.integers(1, 3)))]
    assignment = {
        variable: draw(st.sampled_from(types))
        for variable in structure.variables
    }
    # Times drawn WITH replacement on a coarse grid: duplicate
    # timestamps are likely, which is exactly the tie-handling the
    # plan's bisect cuts must get right.
    slots = draw(
        st.lists(st.integers(0, 400), min_size=2, max_size=25)
    )
    events = [
        Event(draw(st.sampled_from(types + ["noise"])), slot * 1800)
        for slot in slots
    ]
    sequence = EventSequence(events)
    # Horizons drawn from realised time differences (plus a +-1 jitter
    # sometimes) make the deadline land exactly on event boundaries.
    horizon = None
    if draw(st.booleans()) and len(sequence) >= 2:
        i = draw(st.integers(0, len(sequence) - 2))
        j = draw(st.integers(i + 1, len(sequence) - 1))
        jitter = draw(st.sampled_from([-1, 0, 0, 0, 1]))
        horizon = max(0, sequence[j].time - sequence[i].time + jitter)
    strict = draw(st.booleans())
    return ComplexEventType(structure, assignment), sequence, horizon, strict


# ----------------------------------------------------------------------
# Property 1: match sets and bindings
# ----------------------------------------------------------------------
class TestMatchSets:
    @given(case=stores_and_patterns())
    @RELAXED
    def test_match_sets_and_bindings_identical(self, closure_kernel, case):
        cet, sequence, horizon, strict = case
        matcher = TagMatcher(
            build_tag(cet, system=SYSTEM),
            strict=strict,
            horizon_seconds=horizon,
        )
        reference = reference_outcomes(matcher, sequence)
        for index, (matched, bindings) in reference.items():
            assert matcher.occurs_at(sequence, index) == matched, (
                "index %d: production=%s reference=%s"
                % (index, not matched, matched)
            )
            assert matcher.bindings_at(sequence, index) == bindings
        assert list(matcher.matching_roots(sequence)) == [
            index for index, (matched, _) in reference.items() if matched
        ]

    @given(case=stores_and_patterns())
    @RELAXED
    def test_anchor_screen_preserves_match_set(self, closure_kernel, case):
        """Sound requirements must not drop roots: the screened
        matching_roots equals the unscreened reference (here with the
        trivially sound whole-span window for each non-root
        variable)."""
        cet, sequence, horizon, strict = case
        if not len(sequence):
            return
        lo, hi = sequence.span()
        width = hi - lo
        requirements = [
            (cet.assignment[variable], -width, width)
            for variable in cet.structure.variables
            if variable != cet.structure.root
        ]
        build = build_tag(cet, system=SYSTEM)
        screened = TagMatcher(
            build,
            strict=strict,
            horizon_seconds=horizon,
            anchor_requirements=requirements,
        )
        plain = TagMatcher(build, strict=strict, horizon_seconds=horizon)
        got = list(screened.matching_roots(sequence))
        assert got == reference_roots(plain, sequence)


# ----------------------------------------------------------------------
# Property 2: posting lists, window queries and the anchor screen
# ----------------------------------------------------------------------
@st.composite
def stores_and_windows(draw):
    types = ["e%d" % i for i in range(draw(st.integers(1, 4)))]
    slots = draw(st.lists(st.integers(0, 500), min_size=0, max_size=40))
    events = [
        Event(draw(st.sampled_from(types)), slot * 900)
        for slot in slots
    ]
    sequence = EventSequence(events)
    windows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(types + ["absent"]),
                st.integers(-1000, 500 * 900),
                st.integers(-1000, 500 * 900),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return sequence, windows


def _brute_positions(sequence, etype, start, stop):
    return tuple(
        index
        for index in sequence.occurrence_indices(etype)
        if start <= sequence[index].time <= stop
    )


class TestAnchorScreen:
    @given(case=stores_and_windows())
    @RELAXED
    def test_postings_and_window_queries_identical(self, case):
        sequence, windows = case
        view = ColumnarEventStore.from_sequence(sequence)
        assert sorted(view.types()) == sorted(sequence.types())
        for etype in sequence.types():
            positions, times = view.postings(etype)
            assert positions == sequence.occurrence_indices(etype)
            assert times == tuple(sequence[p].time for p in positions)
            assert (positions, times) == sequence.postings(etype)
        for etype, start, stop in windows:
            expected = _brute_positions(sequence, etype, start, stop)
            assert sequence.count_type_in_window(
                etype, start, stop
            ) == len(expected)
            assert sequence.has_type_in_window(
                etype, start, stop
            ) == bool(expected)

    @given(case=stores_and_windows())
    @RELAXED
    def test_screen_anchors_equals_per_anchor_viability(self, case):
        sequence, windows = case
        if not len(sequence):
            return
        view = ColumnarEventStore.from_sequence(sequence)
        times = [e.time for e in sequence]
        requirements = [
            (etype, min(lo, hi), max(lo, hi))
            for etype, lo, hi in windows[:3]
        ]
        # Sorted anchors walk the postings; reversed and interleaved
        # ones step backwards and must re-bisect.
        for anchor_times in (times, times[::-1], times[1::2] + times[::2]):
            expected = [
                all(
                    sequence.has_type_in_window(etype, time + lo, time + hi)
                    for etype, lo, hi in requirements
                )
                for time in anchor_times
            ]
            assert view.screen_anchors(anchor_times, requirements) == expected
            # Sets sharing requirements (and so their masks) still get
            # each set's own survivors.
            prefixes = [requirements[:count] for count in range(4)]
            positions = range(len(anchor_times))
            assert view.viable_position_sets(
                positions, anchor_times, prefixes
            ) == [
                [
                    i
                    for i in positions
                    if all(
                        sequence.has_type_in_window(
                            etype, anchor_times[i] + lo, anchor_times[i] + hi
                        )
                        for etype, lo, hi in prefix
                    )
                ]
                for prefix in prefixes
            ]


# ----------------------------------------------------------------------
# Property 3: mining outcomes
# ----------------------------------------------------------------------
@st.composite
def mining_cases(draw):
    hour = SYSTEM.get("hour")
    m1 = draw(st.integers(0, 2))
    m2 = draw(st.integers(0, 2))
    structure = EventStructure(
        ["X0", "X1", "X2"],
        {
            ("X0", "X1"): [TCG(m1, m1 + draw(st.integers(0, 2)), hour)],
            ("X1", "X2"): [TCG(m2, m2 + draw(st.integers(0, 2)), hour)],
        },
    )
    types = ["ref", "a", "b"]
    slots = draw(st.lists(st.integers(0, 60), min_size=3, max_size=25))
    events = [
        Event(draw(st.sampled_from(types)), slot * 1800)
        for slot in slots
    ]
    confidence = draw(st.sampled_from([0.0, 0.25, 0.5]))
    pools = draw(
        st.sampled_from(
            [
                {"X1": frozenset(["a", "b"]), "X2": None},
                # One type per pool: a frontier of at most one.
                {"X1": frozenset(["a"]), "X2": frozenset(["b"])},
            ]
        )
    )
    return structure, EventSequence(events), confidence, pools


class TestMiningParity:
    @given(case=mining_cases())
    @RELAXED
    def test_mining_outcomes_identical(self, closure_kernel, case):
        structure, sequence, confidence, pools = case
        problem = EventDiscoveryProblem(
            structure=structure,
            min_confidence=confidence,
            reference_type="ref",
            candidates=pools,
        )
        outcome = discover(problem, sequence, SYSTEM)
        assert solution_map(outcome) == reference_solutions(
            problem, sequence, SYSTEM
        )


# ----------------------------------------------------------------------
# Property 4: clock columns over calendar granularities
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clock_types():
    """Clock granularities with different coverage: ``b-day`` and
    ``month`` (exact cover, with and without gaps), ``business-month``
    (lowers without exact cover) and a 09:00-17:00 daily shift wrapped
    in :class:`Unlowered` (no form)."""
    system = standard_system(cache=ConversionCache())
    shift = PeriodicPatternType("shift", 86400, [(9 * 3600, 8 * 3600)])
    return tuple(
        system.get(label) for label in ("b-day", "month", "business-month")
    ) + (Unlowered(shift),)


@st.composite
def clock_cases(draw):
    """A two-arc chain over two drawn clock granularities (indices into
    :func:`clock_types`) on quarter-day slots across three years, so
    weekends, month ends and duplicate timestamps are all likely."""
    arcs = [
        (
            draw(st.integers(0, 3)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
        )
        for _ in range(2)
    ]
    slots = draw(st.lists(st.integers(0, 4400), min_size=2, max_size=30))
    events = [
        (draw(st.sampled_from(["A", "B", "C", "noise"])), slot * 21600)
        for slot in slots
    ]
    return arcs, events, draw(st.booleans())


class TestClockColumns:
    @given(case=clock_cases())
    @RELAXED
    def test_plan_columns_equal_scalar_clock(
        self, closure_kernel, clock_types, case
    ):
        arcs, events, strict = case
        (g1, m1, w1), (g2, m2, w2) = arcs
        structure = EventStructure(
            ["X0", "X1", "X2"],
            {
                ("X0", "X1"): [TCG(m1, m1 + w1, clock_types[g1])],
                ("X1", "X2"): [TCG(m2, m2 + w2, clock_types[g2])],
            },
        )
        cet = ComplexEventType(structure, {"X0": "A", "X1": "B", "X2": "C"})
        matcher = TagMatcher(build_tag(cet), strict=strict)
        sequence = EventSequence([Event(etype, t) for etype, t in events])
        store = sequence.columnar()
        batch = DenseBatch([compile_dense(matcher.tag)])
        plan = ColumnPlan(batch, store, strict=True)
        for ttype, column in zip(batch.clock_types, plan.ticks):
            assert column == [clock_tick_of(ttype, t) for t in plan.times]
        assert plan.strict_bad == [
            position
            for position in range(len(store))
            if any(
                clock_tick_of(ttype, store.time_at(position)) is None
                for ttype in batch.clock_types
            )
        ]
        for index, (matched, bindings) in reference_outcomes(
            matcher, sequence
        ).items():
            assert matcher.occurs_at(sequence, index) == matched
            assert matcher.bindings_at(sequence, index) == bindings


# ----------------------------------------------------------------------
# Targeted edges: horizon straddling, duplicates, granularity gaps
# ----------------------------------------------------------------------
def _chain_cet(gap_lo, gap_hi, granularity="hour"):
    g = SYSTEM.get(granularity)
    structure = EventStructure(
        ["X0", "X1"], {("X0", "X1"): [TCG(gap_lo, gap_hi, g)]}
    )
    return ComplexEventType(structure, {"X0": "A", "X1": "B"})


class TestTargetedEdges:
    def assert_parity(self, matcher, sequence):
        expected = reference_roots(matcher, sequence)
        assert list(matcher.matching_roots(sequence)) == expected
        return expected

    def test_deadline_exactly_on_match_event(self, closure_kernel):
        cet = _chain_cet(0, 2)
        sequence = EventSequence(
            [Event("A", 0), Event("B", 7200)]
        )
        # deadline == the B event's time: included on both paths.
        matcher = TagMatcher(
            build_tag(cet, system=SYSTEM), horizon_seconds=7200
        )
        assert self.assert_parity(matcher, sequence) == [0]
        # one second short: excluded on both paths.
        matcher = TagMatcher(
            build_tag(cet, system=SYSTEM), horizon_seconds=7199
        )
        assert self.assert_parity(matcher, sequence) == []

    def test_duplicate_timestamps_at_deadline(self, closure_kernel):
        cet = _chain_cet(1, 1)
        sequence = EventSequence(
            [
                Event("A", 0),
                Event("B", 3600),
                Event("B", 3600),
                Event("A", 3600),
                Event("B", 7200),
            ]
        )
        for horizon in (3600, 3599, 7200, None):
            matcher = TagMatcher(
                build_tag(cet, system=SYSTEM), horizon_seconds=horizon
            )
            self.assert_parity(matcher, sequence)

    def test_strict_granularity_gap_kills_runs_on_both_paths(
        self, closure_kernel
    ):
        """b-day gaps: a weekend event kills strict runs (even though
        nothing consumes it) and is ignored by lazy runs."""
        day = 86400
        cet = _chain_cet(1, 5, granularity="b-day")
        sequence = EventSequence(
            [
                Event("A", 0),  # Monday
                Event("noise", 5 * day),  # Saturday: the gap
                Event("B", 7 * day),  # next Monday
            ]
        )
        for strict in (False, True):
            matcher = TagMatcher(
                build_tag(cet, system=SYSTEM), strict=strict
            )
            roots = self.assert_parity(matcher, sequence)
            assert roots == ([] if strict else [0])

    def test_strict_uncovered_root_rejected_on_both_paths(
        self, closure_kernel
    ):
        day = 86400
        cet = _chain_cet(1, 5, granularity="b-day")
        sequence = EventSequence(
            [Event("A", 5 * day), Event("B", 7 * day)]  # Saturday root
        )
        for strict in (False, True):
            matcher = TagMatcher(
                build_tag(cet, system=SYSTEM), strict=strict
            )
            self.assert_parity(matcher, sequence)

    def test_eventstore_columnar_view_and_invalidation(
        self, closure_kernel
    ):
        from repro.store import EventStore

        store = EventStore()
        store.append("A", 10, {"k": 1})
        store.append("B", 20)
        view = store.columnar()
        assert len(view) == 2
        assert view.event_at(0) == ("A", 10)  # attributes are not columns
        assert view.event_at(1) == (store.get(1).etype, store.get(1).time)
        assert store.columnar() is view  # cached
        store.append("A", 30)
        fresh = store.columnar()
        assert fresh is not view  # any write invalidates
        assert len(fresh) == 3
