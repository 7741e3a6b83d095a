"""Tests for the Simple Temporal Problem solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.constraints.stp as stp_module
from repro.constraints import (
    INF,
    STP,
    EngineUnavailable,
    InconsistentSTP,
    have_numpy,
    solve_intervals,
)
from repro.obs import configure, global_metrics, obs_enabled


class TestBasics:
    def test_single_constraint(self):
        stp = STP(["a", "b"])
        stp.add("a", "b", 2, 5)
        stp.closure()
        assert stp.interval("a", "b") == (2, 5)
        assert stp.interval("b", "a") == (-5, -2)

    def test_chain_composition(self):
        stp = STP(["a", "b", "c"])
        stp.add("a", "b", 1, 2)
        stp.add("b", "c", 3, 4)
        stp.closure()
        assert stp.interval("a", "c") == (4, 6)

    def test_intersection_tightens(self):
        stp = STP(["a", "b", "c"])
        stp.add("a", "b", 0, 10)
        stp.add("a", "c", 0, 3)
        stp.add("c", "b", 0, 3)
        stp.closure()
        assert stp.interval("a", "b") == (0, 6)

    def test_multiple_adds_intersect(self):
        stp = STP(["a", "b"])
        stp.add("a", "b", 0, 10)
        stp.add("a", "b", 5, 20)
        stp.closure()
        assert stp.interval("a", "b") == (5, 10)

    def test_unconstrained_pair_infinite(self):
        stp = STP(["a", "b"])
        stp.closure()
        lo, hi = stp.interval("a", "b")
        assert hi == INF
        assert lo == -INF


class TestInconsistency:
    def test_negative_cycle_detected(self):
        stp = STP(["a", "b"])
        stp.add("a", "b", 5, 10)
        stp.add("b", "a", 5, 10)
        with pytest.raises(InconsistentSTP):
            stp.closure()

    def test_empty_interval_rejected_on_add(self):
        stp = STP(["a", "b"])
        with pytest.raises(InconsistentSTP):
            stp.add("a", "b", 5, 3)

    def test_three_way_conflict(self):
        stp = STP(["a", "b", "c"])
        stp.add("a", "b", 5, 5)
        stp.add("b", "c", 5, 5)
        stp.add("a", "c", 0, 9)
        with pytest.raises(InconsistentSTP):
            stp.closure()


class TestFiniteIntervals:
    def test_only_forward_pairs_reported(self):
        stp = STP(["a", "b"])
        stp.add("a", "b", 2, 5)
        stp.closure()
        finite = stp.finite_intervals()
        assert finite == {("a", "b"): (2, 5)}

    def test_zero_interval_reported_both_ways(self):
        stp = STP(["a", "b"])
        stp.add("a", "b", 0, 0)
        stp.closure()
        finite = stp.finite_intervals()
        assert finite[("a", "b")] == (0, 0)
        assert finite[("b", "a")] == (0, 0)

    def test_solve_intervals_consistent(self):
        result = solve_intervals(
            ["a", "b", "c"],
            {("a", "b"): (1, 2), ("b", "c"): (1, 2)},
        )
        assert result[("a", "c")] == (2, 4)

    def test_solve_intervals_inconsistent(self):
        result = solve_intervals(
            ["a", "b"],
            {("a", "b"): (1, 2), ("b", "a"): (1, 2)},
        )
        assert result is None


class TestProperties:
    @given(
        bounds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_closure_preserves_solutions(self, bounds):
        """A concrete assignment satisfying the inputs satisfies the
        closed network (minimality is checked on the chain shape)."""
        names = ["v%d" % i for i in range(len(bounds) + 1)]
        stp = STP(names)
        assignment = {names[0]: 0}
        for i, (lo, span) in enumerate(bounds):
            stp.add(names[i], names[i + 1], lo, lo + span)
            assignment[names[i + 1]] = assignment[names[i]] + lo
        stp.closure()
        for (x, y), (lo, hi) in stp.finite_intervals().items():
            diff = assignment[y] - assignment[x]
            assert lo <= diff <= hi


@pytest.fixture
def obs_on():
    previous = obs_enabled()
    configure(True)
    yield
    configure(previous)


def _full_closures():
    """``repro_stp_closures_total{kind="full"}`` by kernel."""
    counts = {}
    for name in ("python", "numpy"):
        metric = global_metrics().get(
            "repro_stp_closures_total", {"kind": "full", "kernel": name}
        )
        counts[name] = 0 if metric is None else metric.value()
    return counts


def _closures_by_kernel(kernel, n):
    """Close an ``n``-variable chain; the full closures each kernel ran."""
    before = _full_closures()
    stp = STP(range(n), kernel=kernel)
    for i in range(n - 1):
        stp.add(i, i + 1, 1, 2)
    stp.closure()
    assert stp.interval(0, n - 1) == (n - 1, 2 * (n - 1))
    after = _full_closures()
    return {name: after[name] - before[name] for name in after}


class TestKernelChoice:
    @pytest.mark.skipif(not have_numpy(), reason="numpy not importable")
    def test_auto_runs_numpy_from_the_crossover_and_numpy_forces_it(
        self, obs_on
    ):
        n = stp_module._NUMPY_MIN_VARIABLES
        assert _closures_by_kernel("auto", n - 1) == {"python": 1, "numpy": 0}
        assert _closures_by_kernel("auto", n) == {"python": 0, "numpy": 1}
        assert _closures_by_kernel("numpy", 3) == {"python": 0, "numpy": 1}
        assert _closures_by_kernel("python", n) == {"python": 1, "numpy": 0}

    def test_without_numpy_auto_is_python_and_numpy_refused(
        self, obs_on, monkeypatch
    ):
        monkeypatch.setattr(stp_module, "_np", None)
        n = stp_module._NUMPY_MIN_VARIABLES
        assert STP(["a"], kernel="auto").kernel == "python"
        assert _closures_by_kernel("auto", n) == {"python": 1, "numpy": 0}
        with pytest.raises(EngineUnavailable):
            STP(["a"], kernel="numpy")
