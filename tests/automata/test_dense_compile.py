"""Property tests: dense TAG compilation replays the interpreter.

``compile_dense()`` renumbers states/symbols/clocks into transition
tables; these tests hold the compiled automaton to *state-trajectory*
equality with the interpreted :meth:`repro.automata.tag.TAG.step` -
every frontier along a run must match configuration for configuration
(which catches off-by-one guard evaluation and wrong reset wiring, not
just final match verdicts).  Coverage: the stock paper patterns, 200
builder-generated TAGs, and 200 raw random TAGs whose guards use the
full Phi(C) closure (Or / Not / nested And) that the builder never
emits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import TAG, TagMatcher, Transition, build_tag
from repro.automata.clocks import (
    And,
    Atom,
    Clock,
    Not,
    Or,
    TrueConstraint,
    evaluate_clocks,
)
from repro.automata.dense import DenseGuard, DenseTAG, compile_dense
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system

from benchmarks import harness

from ..strategies import rooted_dags

SYSTEM = standard_system()

RELAXED = settings(max_examples=200, deadline=None)


# ----------------------------------------------------------------------
# Trajectory replay
# ----------------------------------------------------------------------
def _to_dense_config(dense: DenseTAG, config):
    return (
        dense.state_index[config.state],
        tuple(
            config.reset_times[name] for name in dense.clock_names
        ),
    )


def _replay_trajectories(tag: TAG, word, strict: bool):
    """Step the interpreter and the table side by side over a timed
    word, comparing every frontier (deduped the matcher's way)."""
    dense = compile_dense(tag)
    start_time = word[0][1] if word else 0
    frontier = [tag.initial_configuration(start_time)]
    dense_frontier = [
        _to_dense_config(dense, config) for config in frontier
    ]
    for symbol, timestamp in word:
        successors = []
        seen = set()
        for config in frontier:
            for successor in tag.step(config, symbol, timestamp, strict):
                key = successor.frozen_key()
                if key not in seen:
                    seen.add(key)
                    successors.append(successor)
        dense_successors = []
        dense_seen = set()
        for state, resets in dense_frontier:
            for successor in dense.step(
                state, resets, symbol, timestamp, strict
            ):
                if successor not in dense_seen:
                    dense_seen.add(successor)
                    dense_successors.append(successor)
        expected = [
            _to_dense_config(dense, config) for config in successors
        ]
        assert dense_successors == expected, (
            "frontier diverged on (%s, %d)" % (symbol, timestamp)
        )
        # Acceptance must agree configuration for configuration.
        assert [
            config.state in tag.accepting for config in successors
        ] == [
            state in dense.accepting for state, _ in dense_successors
        ]
        frontier = successors
        dense_frontier = dense_successors
        if not frontier:
            break


@st.composite
def timed_words(draw, symbols, max_len=12, max_step=180000):
    length = draw(st.integers(0, max_len))
    time = draw(st.integers(0, 86400))
    word = []
    for _ in range(length):
        time += draw(st.integers(0, max_step))
        word.append((draw(st.sampled_from(symbols)), time))
    return word


# ----------------------------------------------------------------------
# Stock paper patterns
# ----------------------------------------------------------------------
def _stock_tags():
    chain = EventStructure(
        ["X0", "X1"], {("X0", "X1"): [TCG(0, 3, SYSTEM.get("hour"))]}
    )
    cases = []
    for name, structure, types in [
        ("figure-1a", harness.figure_1a(SYSTEM), ["a", "b", "c", "d"]),
        ("figure-1b", harness.figure_1b(SYSTEM), ["a", "b", "a", "b"]),
        ("chain", chain, ["a", "b"]),
    ]:
        assignment = dict(zip(structure.variables, types))
        cet = ComplexEventType(structure, assignment)
        cases.append((name, build_tag(cet, system=SYSTEM).tag))
    return cases


STOCK = _stock_tags()


class TestStockPatterns:
    @pytest.mark.parametrize(
        "name,tag", STOCK, ids=[name for name, _ in STOCK]
    )
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_stock_trajectories_equal(self, name, tag, data):
        symbols = sorted(tag.alphabet) + ["noise"]
        word = data.draw(timed_words(symbols))
        strict = data.draw(st.booleans())
        _replay_trajectories(tag, word, strict)

    @pytest.mark.parametrize(
        "name,tag", STOCK, ids=[name for name, _ in STOCK]
    )
    def test_dense_structure_is_bijective(self, name, tag):
        dense = compile_dense(tag)
        assert len(dense.states) == len(tag.states)
        assert set(dense.states) == set(tag.states)
        assert set(dense.symbols) == set(tag.alphabet)
        assert set(dense.clock_names) == set(tag.clocks)
        assert sum(len(ts) for ts in dense.by_source) == len(
            tag.transitions
        )
        # Per-state transition order preserved exactly.
        for state_id, state in enumerate(dense.states):
            assert [
                dense.states[t.target] for t in dense.by_source[state_id]
            ] == [t.target for t in tag.transitions_from(state)]


# ----------------------------------------------------------------------
# Builder-generated TAGs
# ----------------------------------------------------------------------
@st.composite
def built_tags(draw):
    structure = draw(rooted_dags(max_nodes=5))
    types = ["e%d" % i for i in range(draw(st.integers(1, 3)))]
    assignment = {
        variable: draw(st.sampled_from(types))
        for variable in structure.variables
    }
    cet = ComplexEventType(structure, assignment)
    return build_tag(cet, system=SYSTEM).tag


class TestGeneratedTags:
    @given(data=st.data())
    @RELAXED
    def test_built_tag_trajectories_equal(self, data):
        tag = data.draw(built_tags())
        symbols = sorted(tag.alphabet) + ["noise"]
        word = data.draw(timed_words(symbols))
        strict = data.draw(st.booleans())
        _replay_trajectories(tag, word, strict)


# ----------------------------------------------------------------------
# Raw random TAGs: the full guard closure
# ----------------------------------------------------------------------
@st.composite
def guards(draw, clock_names, depth=2):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return TrueConstraint()
        return Atom(
            draw(st.sampled_from(clock_names)),
            draw(st.sampled_from(["le", "ge"])),
            draw(st.integers(0, 6)),
        )
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(guards(clock_names, depth - 1)))
    parts = tuple(
        draw(guards(clock_names, depth - 1))
        for _ in range(draw(st.integers(1, 3)))
    )
    return And(parts) if kind == "and" else Or(parts)


@st.composite
def raw_tags(draw):
    granularities = [
        SYSTEM.get("hour"),
        SYSTEM.get("day"),
        SYSTEM.get("b-day"),
        SYSTEM.get("week"),
    ]
    n_states = draw(st.integers(1, 4))
    states = ["s%d" % i for i in range(n_states)]
    symbols = ["a", "b", "c"][: draw(st.integers(1, 3))]
    clock_names = ["c%d" % i for i in range(draw(st.integers(1, 3)))]
    clocks = [
        Clock(name, draw(st.sampled_from(granularities)))
        for name in clock_names
    ]
    transitions = []
    for _ in range(draw(st.integers(0, 8))):
        transitions.append(
            Transition(
                source=draw(st.sampled_from(states)),
                target=draw(st.sampled_from(states)),
                symbol=draw(st.sampled_from(symbols + ["*"])),
                resets=frozenset(
                    draw(
                        st.lists(
                            st.sampled_from(clock_names),
                            max_size=len(clock_names),
                            unique=True,
                        )
                    )
                ),
                guard=draw(guards(clock_names)),
            )
        )
    accepting = draw(
        st.lists(st.sampled_from(states), max_size=n_states, unique=True)
    )
    return TAG(
        alphabet=symbols,
        states=states,
        start_states=[states[0]],
        clocks=clocks,
        transitions=transitions,
        accepting=accepting,
    )


class TestRawTags:
    @given(data=st.data())
    @RELAXED
    def test_raw_tag_trajectories_equal(self, data):
        tag = data.draw(raw_tags())
        symbols = sorted(tag.alphabet) + ["noise"]
        word = data.draw(timed_words(symbols))
        strict = data.draw(st.booleans())
        _replay_trajectories(tag, word, strict)

    @given(data=st.data())
    @RELAXED
    def test_dense_guard_equals_object_guard(self, data):
        """DenseGuard (flat atoms or node tree) equals the object
        guard on every valuation, including undefined clock values."""
        clock_names = ["c0", "c1", "c2"]
        guard = data.draw(guards(clock_names, depth=3))
        clock_index = {name: i for i, name in enumerate(clock_names)}
        dense_guard = DenseGuard(guard, clock_index)
        values = [
            data.draw(
                st.one_of(st.none(), st.integers(0, 8))
            )
            for _ in clock_names
        ]
        mapping = dict(zip(clock_names, values))
        assert dense_guard.evaluate(values) == guard.evaluate(mapping)

    @given(data=st.data())
    @RELAXED
    def test_holds_equals_evaluate_on_tick_differences(self, data):
        """The runtime's tick form of a guard: clock c valued
        now_ticks[c] - reset_ticks[c], undefined when either tick is."""
        clock_names = ["c0", "c1", "c2"]
        guard = data.draw(guards(clock_names, depth=3))
        dense_guard = DenseGuard(
            guard, {name: i for i, name in enumerate(clock_names)}
        )
        tick = st.one_of(st.none(), st.integers(-4, 8))
        reset_ticks = [data.draw(tick) for _ in clock_names]
        now_ticks = [data.draw(tick) for _ in clock_names]
        values = [
            None if reset is None or now is None else now - reset
            for reset, now in zip(reset_ticks, now_ticks)
        ]
        assert dense_guard.holds(reset_ticks, now_ticks) == (
            dense_guard.evaluate(values)
        )


class TestCompileDenseEntryPoint:
    def test_tag_method_matches_function(self):
        tag = STOCK[0][1]
        via_method = tag.compile_dense()
        assert isinstance(via_method, DenseTAG)
        assert via_method.states == compile_dense(tag).states
