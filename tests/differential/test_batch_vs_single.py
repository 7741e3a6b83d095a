"""Differential oracle: banked frontier scanning vs the object reference.

The banked :class:`~repro.automata.dense.DenseBatch` tables and the
:class:`~repro.automata.dense.BatchRuntime` sweep are the only
stored-sequence matching runtime, so every production entry point -
``match_many`` on one-member and many-member banks, per-matcher
``matching_roots``, ``batch_matching_roots``, ``discover`` and
``parallel_scan`` - is held against the object NDFA simulation
(:meth:`~repro.automata.matching.TagMatcher.match_from`) root by root:
same match sets, same bindings, same support counts, same solutions.
Hypothesis generates candidate frontiers (one or several assignments of
one structure, mixed granularities, duplicate timestamps) and shrinks
any disagreement; the ``kernel`` fixture replays every property under
both the numpy and the pure-Python ``array`` columnar kernels.

The chaos half of the suite covers worker failures on the pool path:
a worker exception surfaces in the parent with the worker's traceback,
a worker that dies breaks the pool instead of hanging the parent, and
either way the parent's scan context is cleared.
"""

import glob
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.parallel.engine as engine
import repro.store.columnar as columnar_module
from repro.automata.builder import build_tag
from repro.automata.dense import (
    BatchRuntime,
    DenseBatch,
    compile_dense,
    compile_dense_batch,
)
from repro.automata.matching import TagMatcher, batch_matching_roots
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.mining.discovery import EventDiscoveryProblem, discover
from repro.mining.events import EventSequence
from repro.mining.pruning import consistency_gate, seconds_windows
from repro.obs import global_metrics
from repro.parallel import fork_available, parallel_scan

from .reference import (
    reference_outcomes,
    reference_roots,
    reference_solutions,
    solution_map,
)

SYSTEM = standard_system()

KERNELS = ["numpy", "fallback"]

RELAXED = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """Run the test under one columnar kernel (numpy or ``array``)."""
    if request.param == "numpy":
        if columnar_module._np is None:
            pytest.skip("numpy unavailable")
    else:
        monkeypatch.setattr(columnar_module, "_np", None)
    return request.param


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@st.composite
def frontier_cases(draw):
    """A candidate frontier over one structure plus a random store.

    A one-type pool makes a frontier of one, the shape every single
    pattern query runs as a one-member bank.
    """
    shape = draw(st.sampled_from(["chain2", "chain3", "fan"]))
    if shape == "chain2":
        names, arcs = ["R", "A"], [("R", "A")]
    elif shape == "chain3":
        names, arcs = ["R", "A", "B"], [("R", "A"), ("A", "B")]
    else:
        names, arcs = ["R", "A", "B"], [("R", "A"), ("R", "B")]
    constraints = {}
    for arc in arcs:
        label = draw(st.sampled_from(["minute", "hour", "day"]))
        m = draw(st.integers(0, 2))
        span = draw(st.integers(0, 3))
        constraints[arc] = [TCG(m, m + span, SYSTEM.get(label))]
    structure = EventStructure(names, constraints)
    types = ["t%d" % i for i in range(draw(st.integers(1, 3)))]
    # The frontier: every assignment of the non-root variables to the
    # type pool, all anchored on "r" - the multi-candidate shape the
    # batch compiler banks together.
    frontier = [{"R": "r"}]
    for variable in names[1:]:
        frontier = [
            dict(assignment, **{variable: t})
            for assignment in frontier
            for t in types
        ]
    slots = draw(
        st.lists(st.integers(0, 300), min_size=3, max_size=30)
    )
    events = [
        (
            "r" if draw(st.booleans()) else draw(st.sampled_from(types)),
            slot * 900,
        )
        for slot in slots
    ]
    sequence = EventSequence(sorted(events, key=lambda e: e[1]))
    horizon = draw(st.sampled_from([None, 3600, 90_000, 400_000]))
    strict = draw(st.booleans())
    return structure, frontier, sequence, horizon, strict


def _build_matchers(structure, frontier, horizon, strict):
    return [
        TagMatcher(
            build_tag(
                ComplexEventType(structure, assignment), system=SYSTEM
            ),
            strict=strict,
            horizon_seconds=horizon,
        )
        for assignment in frontier
    ]


# ----------------------------------------------------------------------
# Match sets and bindings
# ----------------------------------------------------------------------
class TestMatchSets:
    @given(case=frontier_cases())
    @RELAXED
    def test_batched_match_sets_equal_single(self, kernel, case):
        """batch_matching_roots and the per-matcher matching_roots
        (one-member banks) both equal the reference, for any
        frontier/store/kernel combination."""
        structure, frontier, sequence, horizon, strict = case
        matchers = _build_matchers(structure, frontier, horizon, strict)
        reference = [reference_roots(m, sequence) for m in matchers]
        assert batch_matching_roots(matchers, sequence) == reference
        assert [list(m.matching_roots(sequence)) for m in matchers] == (
            reference
        )

    @given(case=frontier_cases())
    @RELAXED
    def test_match_many_bindings_equal_reference(self, kernel, case):
        """Per-root outcomes - including variable bindings - from
        many-member and one-member banks equal each member's
        match_from."""
        structure, frontier, sequence, horizon, strict = case
        matchers = _build_matchers(structure, frontier, horizon, strict)
        store = sequence.columnar()
        root_symbol = matchers[0].build.root_symbol
        expected = [reference_outcomes(m, sequence) for m in matchers]
        denses = [compile_dense(m.tag) for m in matchers]
        banks = compile_dense_batch(denses) + [
            ((p,), DenseBatch([dense])) for p, dense in enumerate(denses)
        ]
        for positions, batch in banks:
            runtime = BatchRuntime(
                batch,
                store,
                root_symbol,
                structure.root,
                strict=strict,
                horizon_seconds=horizon,
            )
            for root in expected[0]:
                outcomes = runtime.match_many(root)
                for k, p in enumerate(positions):
                    assert outcomes[k] == expected[p][root]

    @given(case=frontier_cases())
    @RELAXED
    def test_bank_work_counters_equal_member_sum(self, kernel, case):
        """A bank reports the transitions, skips and guard rejections
        of its members' runs exactly: members that share a frontier
        replay one wake's outcome, and the replay adds that wake's
        counts again, so the totals equal the one-member banks' sum."""
        structure, frontier, sequence, horizon, strict = case
        matchers = _build_matchers(structure, frontier, horizon, strict)
        store = sequence.columnar()
        root_symbol = matchers[0].build.root_symbol
        roots = list(reference_outcomes(matchers[0], sequence))
        registry = global_metrics()
        names = [
            "repro_tag_transitions_total",
            "repro_tag_skips_total",
            "repro_tag_guard_rejections_total",
        ]

        def work(banks):
            before = [registry.get(name).value() for name in names]
            for batch in banks:
                runtime = BatchRuntime(
                    batch,
                    store,
                    root_symbol,
                    structure.root,
                    strict=strict,
                    horizon_seconds=horizon,
                )
                for root in roots:
                    runtime.match_many(root)
            return [
                registry.get(name).value() - value
                for name, value in zip(names, before)
            ]

        denses = [compile_dense(m.tag) for m in matchers]
        banked = work([batch for _, batch in compile_dense_batch(denses)])
        assert banked == work([DenseBatch([dense]) for dense in denses])


# ----------------------------------------------------------------------
# Mining fingerprints
# ----------------------------------------------------------------------
@st.composite
def mining_cases(draw):
    hour = SYSTEM.get("hour")
    structure = EventStructure(
        ["R", "A", "B"],
        {
            ("R", "A"): [TCG(0, draw(st.integers(1, 3)), hour)],
            ("A", "B"): [TCG(0, draw(st.integers(1, 3)), hour)],
        },
    )
    types = ["r"] + ["t%d" % i for i in range(draw(st.integers(1, 3)))]
    slots = draw(
        st.lists(st.integers(0, 96), min_size=4, max_size=26, unique=True)
    )
    events = [
        (draw(st.sampled_from(types)), slot * 1800)
        for slot in sorted(slots)
    ]
    confidence = draw(st.sampled_from([0.0, 0.25, 0.5]))
    # Pinning both pools to one type gives a frontier of at most one.
    candidates = (
        {"A": frozenset([types[1]]), "B": frozenset([types[-1]])}
        if draw(st.booleans())
        else {}
    )
    problem = EventDiscoveryProblem(structure, confidence, "r", candidates)
    return problem, EventSequence(events)


class TestMiningFingerprints:
    @given(case=mining_cases())
    @RELAXED
    def test_discover_equals_reference(self, kernel, case):
        problem, sequence = case
        outcome = discover(problem, sequence, SYSTEM)
        assert solution_map(outcome) == reference_solutions(
            problem, sequence, SYSTEM
        )

    @given(case=frontier_cases(), shard_size=st.sampled_from([1, 3, "auto"]))
    @RELAXED
    def test_parallel_scan_equals_reference(self, kernel, case, shard_size):
        """Per-candidate hits of the (group, shard) task grid, screened
        through the propagated windows, equal the reference's."""
        structure, frontier, sequence, horizon, strict = case
        matchers = _build_matchers(structure, frontier, horizon, strict)
        consistent, propagation = consistency_gate(structure, SYSTEM)
        windows = seconds_windows(propagation) if consistent else {}
        roots = list(sequence.occurrence_indices("r"))
        # Without fork the grid runs in-process, which keeps the
        # examples fast; TestWorkerCrashChaos crosses the fork.
        with mock.patch(
            "repro.parallel.engine.fork_available", return_value=False
        ):
            results, report = parallel_scan(
                sequence,
                SYSTEM,
                structure,
                frontier,
                windows,
                roots,
                horizon,
                strict=strict,
                workers=2,
                shard_size=shard_size,
            )
        assert [result.hits for result in results] == [
            len(reference_roots(m, sequence)) for m in matchers
        ]
        assert report["tasks"] == report["batch_groups"] * report["shards"]


# ----------------------------------------------------------------------
# Worker failures on the pool path
# ----------------------------------------------------------------------
def _pool_scan():
    """A two-task grid (one group x two shards) on two forked workers."""
    hour = SYSTEM.get("hour")
    structure = EventStructure(["R", "A"], {("R", "A"): [TCG(0, 1, hour)]})
    sequence = EventSequence(
        [("r", 0), ("a", 1800), ("r", 40_000), ("a", 41_000)]
    )
    return parallel_scan(
        sequence,
        SYSTEM,
        structure,
        [{"R": "r", "A": "a"}, {"R": "r", "A": "b"}],
        {"A": (0, 7200)},
        [0, 2],
        7200,
        workers=2,
        shard_size=1,
    )


def _failure_within(seconds):
    """The exception :func:`_pool_scan` raises, which must come within
    ``seconds``: a parent that hangs on a failed worker fails here."""
    outcome = {}

    def run():
        try:
            _pool_scan()
        except Exception as exc:  # handed to the test thread
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "the parent hung on a failed worker"
    return outcome.get("error")


@pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform"
)
class TestWorkerCrashChaos:
    def test_worker_error_surfaces_in_parent(self, monkeypatch):
        def fail(ctx, group_index, shard_index):
            raise ValueError("task failed in pid %d" % os.getpid())

        monkeypatch.setattr(engine, "_execute_task", fail)
        error = _failure_within(30)
        assert isinstance(error, ValueError)
        assert int(str(error).rsplit(" ", 1)[1]) != os.getpid()
        # The worker's traceback travels as the cause.
        assert "Traceback" in str(error.__cause__)
        assert "in fail" in str(error.__cause__)
        assert engine._CTX is None
        assert engine._RUNTIMES == {}

    def test_worker_exit_breaks_the_pool(self, monkeypatch):
        def die(ctx, group_index, shard_index):
            os._exit(17)  # no cleanup, no result

        monkeypatch.setattr(engine, "_execute_task", die)
        assert isinstance(_failure_within(30), BrokenProcessPool)
        assert engine._CTX is None
        assert engine._RUNTIMES == {}

    def test_pool_scan_leaves_no_segments(self):
        before = set(glob.glob("/dev/shm/psm_*"))
        results, report = _pool_scan()
        assert report["executor"] == "pool"
        assert report["tasks"] == 2
        assert [r.hits for r in results] == [2, 0]
        assert set(glob.glob("/dev/shm/psm_*")) == before
        assert engine._CTX is None
        assert engine._RUNTIMES == {}
