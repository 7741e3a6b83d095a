"""Differential oracle: fast-path propagation vs the pure-Python
reference.

The fast engines (persistent matrices + incremental re-closure, with
or without the numpy kernel) are only allowed to exist because they
are *exactly* equal to the paper-faithful reference loop - same derived
intervals, same consistency verdicts - on every input.  These
properties enforce that contract case by case, plus the metamorphic
and soundness properties that hold for any correct implementation:

* tightening an input arc never loosens a derived interval;
* a brute-force witness of the original structure satisfies every
  derived constraint (Theorem 2 soundness).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    STP,
    TCG,
    EventStructure,
    InconsistentSTP,
    check_consistency_exact,
    have_numpy,
    propagate,
)
from repro.constraints.propagation import resolve_engine
from repro.granularity import standard_system
from repro.granularity.gregorian import SECONDS_PER_DAY

from ..strategies import rooted_dags

SYSTEM = standard_system()

FAST_ENGINES = [
    "fallback",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not have_numpy(), reason="numpy not importable"
        ),
    ),
]


@pytest.mark.parametrize("engine", FAST_ENGINES)
class TestEnginesExactlyEqual:
    """The core oracle: bit-identical intervals and verdicts."""

    @given(structure=rooted_dags())
    @settings(max_examples=200, deadline=None)
    def test_equal_on_random_structures(self, engine, structure):
        reference = propagate(structure, SYSTEM, engine="python")
        fast = propagate(structure, SYSTEM, engine=engine)
        assert fast.consistent == reference.consistent
        assert fast.groups == reference.groups
        assert fast.engine == engine
        assert reference.engine == "python"

    @given(structure=rooted_dags(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_after_injected_contradiction(self, engine, structure, data):
        """Inconsistent inputs refute identically (same verdict; the
        groups at the point of detection also agree)."""
        variables = structure.variables
        x = variables[0]
        y = variables[-1]
        constraints = dict(structure.constraints)
        arc = (x, y)
        extra = TCG(0, 0, SYSTEM.get("hour"))
        constraints[arc] = list(constraints.get(arc, ())) + [extra]
        structure = EventStructure(variables, constraints)
        reference = propagate(structure, SYSTEM, engine="python")
        fast = propagate(structure, SYSTEM, engine=engine)
        assert fast.consistent == reference.consistent
        assert fast.groups == reference.groups


class TestKernelsExactlyEqual:
    """The STP layer underneath: numpy closure == python closure."""

    @pytest.mark.skipif(not have_numpy(), reason="numpy not importable")
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_closure_matrices_identical(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        names = ["v%d" % i for i in range(n)]
        n_arcs = data.draw(st.integers(min_value=0, max_value=2 * n))
        constraints = []
        for _ in range(n_arcs):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            j = data.draw(st.integers(min_value=0, max_value=n - 1))
            if i == j:
                continue
            lo = data.draw(st.integers(min_value=-50, max_value=50))
            span = data.draw(st.integers(min_value=0, max_value=60))
            constraints.append(((names[i], names[j]), lo, lo + span))
        outcomes = {}
        for kernel in ("python", "numpy"):
            stp = STP(names, kernel=kernel)
            try:
                for (x, y), lo, hi in constraints:
                    stp.add(x, y, lo, hi)
                stp.closure()
            except InconsistentSTP:
                outcomes[kernel] = "inconsistent"
            else:
                outcomes[kernel] = stp._dist
        assert outcomes["python"] == outcomes["numpy"]

    @pytest.mark.skipif(not have_numpy(), reason="numpy not importable")
    def test_large_magnitudes_fall_back_to_exact_python(self):
        """Bounds past the float64 exact-integer range must not go
        through float arithmetic; the kernel guard falls back."""
        big = 2 ** 55
        stp = STP(["a", "b", "c"], kernel="numpy")
        stp.add("a", "b", big, big + 1)
        stp.add("b", "c", big, big + 1)
        assert not stp._numpy_exact()
        stp.closure()
        assert stp.interval("a", "c") == (2 * big, 2 * big + 2)


@pytest.mark.parametrize("engine", FAST_ENGINES)
class TestMetamorphicTightening:
    """Tightening any input arc never loosens any derived interval."""

    @given(structure=rooted_dags(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_tightened_outputs_nested(self, engine, structure, data):
        base = propagate(structure, SYSTEM, engine=engine)
        if not base.consistent:
            return
        arcs = sorted(structure.constraints)
        arc = arcs[data.draw(st.integers(0, len(arcs) - 1))]
        original = structure.constraints[arc][0]
        lo_bump = data.draw(st.integers(0, original.n - original.m))
        hi_cut = data.draw(
            st.integers(0, original.n - original.m - lo_bump)
        )
        tightened = TCG(
            original.m + lo_bump,
            original.n - hi_cut,
            original.granularity,
        )
        constraints = dict(structure.constraints)
        constraints[arc] = [tightened] + list(constraints[arc][1:])
        result = propagate(
            EventStructure(structure.variables, constraints),
            SYSTEM,
            engine=engine,
        )
        if not result.consistent:
            return  # tightening may reveal an inconsistency; never hides one
        for label, group in base.groups.items():
            new_group = result.groups.get(label, {})
            for pair, (lo, hi) in group.items():
                assert pair in new_group
                new_lo, new_hi = new_group[pair]
                assert new_lo >= lo
                assert new_hi <= hi


@pytest.mark.parametrize("engine", FAST_ENGINES)
class TestSoundnessVsBruteForce:
    """Theorem 2 soundness against the exact backtracking search."""

    @given(structure=rooted_dags(max_nodes=4))
    @settings(max_examples=200, deadline=None)
    def test_witness_satisfies_derived_constraints(self, engine, structure):
        result = propagate(structure, SYSTEM, engine=engine)
        report = check_consistency_exact(
            structure,
            SYSTEM,
            window_seconds=120 * SECONDS_PER_DAY,
            max_nodes=200_000,
        )
        if not report.completed or report.witness is None:
            return
        # A structure with a genuine occurrence can never be refuted.
        assert result.consistent
        witness = report.witness
        for x in structure.variables:
            for y in structure.variables:
                if x == y or not structure.has_path(x, y):
                    continue
                for derived in result.derived_tcgs(x, y):
                    assert derived.is_satisfied(witness[x], witness[y]), (
                        "witness %r violates derived %s on (%s, %s)"
                        % (witness, derived, x, y)
                    )


def test_resolve_engine_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_engine("cuda")


def test_auto_resolves_to_an_available_engine():
    resolved = resolve_engine("auto")
    assert resolved == ("auto" if have_numpy() else "fallback")


def test_counters_reported(system):
    """The fast path reports its closure and cache counters."""
    structure = EventStructure(
        ["a", "b"], {("a", "b"): [TCG(0, 3, system.get("day"))]}
    )
    result = propagate(structure, SYSTEM, engine="fallback")
    assert result.closures_full >= 1
    assert result.closures_incremental >= 0
    assert (
        result.conversion_cache_hits + result.conversion_cache_misses
        == result.conversions_performed
    )
