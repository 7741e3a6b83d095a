"""Differential oracle: production propagation vs the paper's loop.

:func:`~repro.constraints.propagate` keeps one STP per granularity
group across iterations and re-closes only the arcs that tightened;
:func:`~tests.differential.reference.reference_propagate` rebuilds and
fully closes every group each iteration, with its own grouping, closure
and conversion step.  Production is only allowed to exist because it is
*exactly* equal to the reference - same derived intervals, same
consistency verdicts - on every input, whichever kernel its closures
run (the ``closure_kernel`` fixture forces each one; the size-rule
class leaves the choice to production).  These properties enforce that
contract case by case, plus the metamorphic and soundness properties
that hold for any correct implementation:

* tightening an input arc never loosens a derived interval;
* a brute-force witness of the original structure satisfies every
  derived constraint (Theorem 2 soundness).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.constraints.stp as stp_module
from repro.constraints import (
    STP,
    TCG,
    EventStructure,
    InconsistentSTP,
    check_consistency_exact,
    have_numpy,
    propagate,
)
from repro.granularity import standard_system
from repro.granularity.gregorian import SECONDS_PER_DAY

from ..strategies import rooted_dags
from .reference import reference_propagate

SYSTEM = standard_system()

#: ``closure_kernel`` is function-scoped: it patches the kernel choice
#: once, for every example of the test.
KERNEL_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def assert_equal_to_reference(structure, **kwargs):
    """Production and reference agree on verdict and every group."""
    production = propagate(structure, SYSTEM, **kwargs)
    reference = reference_propagate(structure, SYSTEM, **kwargs)
    assert production.consistent == reference.consistent
    assert production.groups == reference.groups
    return production


class TestEnginesExactlyEqual:
    """The core oracle: bit-identical intervals and verdicts, with every
    closure on numpy and every closure on the python loop."""

    @given(structure=rooted_dags())
    @KERNEL_SETTINGS
    def test_equal_on_random_structures(self, closure_kernel, structure):
        assert_equal_to_reference(structure)

    @given(structure=rooted_dags(), data=st.data())
    @KERNEL_SETTINGS
    def test_equal_after_injected_contradiction(
        self, closure_kernel, structure, data
    ):
        """Inconsistent inputs refute identically (same verdict; the
        groups at the point of detection also agree)."""
        variables = structure.variables
        x = variables[0]
        y = variables[-1]
        constraints = dict(structure.constraints)
        arc = (x, y)
        extra = TCG(0, 0, SYSTEM.get("hour"))
        constraints[arc] = list(constraints.get(arc, ())) + [extra]
        assert_equal_to_reference(EventStructure(variables, constraints))

    @given(structure=rooted_dags())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_equal_with_a_seconds_target(self, closure_kernel, structure):
        """Mining's call shape: ``second`` joins as an extra target."""
        assert_equal_to_reference(
            structure, extra_granularities=[SYSTEM.get("second")]
        )


class TestSizeRule:
    """Both sides of the kernel's size rule, as production picks it:
    structures from ``_NUMPY_MIN_VARIABLES`` variables up close on
    numpy (when it is installed), smaller ones on the python loop."""

    @given(structure=rooted_dags(max_nodes=14))
    @settings(max_examples=60, deadline=None)
    def test_default_propagate_equals_reference(self, structure):
        assert_equal_to_reference(structure)

    @pytest.mark.skipif(not have_numpy(), reason="numpy not importable")
    def test_large_structures_close_on_numpy(self, monkeypatch):
        closed = []
        numpy_closure = STP._closure_numpy

        def spy(stp):
            closed.append(len(stp.variables))
            numpy_closure(stp)

        monkeypatch.setattr(STP, "_closure_numpy", spy)
        n = stp_module._NUMPY_MIN_VARIABLES
        names = ["v%d" % i for i in range(n + 2)]
        hour = SYSTEM.get("hour")
        day = SYSTEM.get("day")
        constraints = {
            (names[i], names[i + 1]): [TCG(0, 5, hour if i % 2 else day)]
            for i in range(len(names) - 1)
        }
        result = assert_equal_to_reference(
            EventStructure(names, constraints)
        )
        assert result.consistent
        assert closed and set(closed) == {n + 2}


def _closed_matrix(names, constraints, numpy):
    """The closed distance matrix with every closure on one kernel, or
    ``"inconsistent"``."""
    with pytest.MonkeyPatch.context() as patch:
        if numpy:
            patch.setattr(stp_module, "_NUMPY_MIN_VARIABLES", 0)
        else:
            patch.setattr(stp_module, "_np", None)
        stp = STP(names)
        try:
            for (x, y), lo, hi in constraints:
                stp.add(x, y, lo, hi)
            stp.closure()
        except InconsistentSTP:
            return "inconsistent"
        return stp._dist


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
        assert _closed_matrix(names, constraints, numpy=False) == (
            _closed_matrix(names, constraints, numpy=True)
        )

    @pytest.mark.skipif(not have_numpy(), reason="numpy not importable")
    def test_large_magnitudes_fall_back_to_exact_python(self):
        """Bounds past the float64 exact-integer range must not go
        through float arithmetic; the kernel guard falls back even
        where the size rule picks numpy."""
        big = 2 ** 55
        names = ["v%d" % i for i in range(stp_module._NUMPY_MIN_VARIABLES)]
        stp = STP(names)
        stp.add("v0", "v1", big, big + 1)
        stp.add("v1", "v2", big, big + 1)
        assert not stp._numpy_exact()
        stp.closure()
        assert stp.interval("v0", "v2") == (2 * big, 2 * big + 2)


class TestMetamorphicTightening:
    """Tightening any input arc never loosens any derived interval."""

    @given(structure=rooted_dags(), data=st.data())
    @KERNEL_SETTINGS
    def test_tightened_outputs_nested(self, closure_kernel, structure, data):
        base = propagate(structure, SYSTEM)
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
            EventStructure(structure.variables, constraints), SYSTEM
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


class TestSoundnessVsBruteForce:
    """Theorem 2 soundness against the exact backtracking search."""

    @given(structure=rooted_dags(max_nodes=4))
    @KERNEL_SETTINGS
    def test_witness_satisfies_derived_constraints(
        self, closure_kernel, structure
    ):
        result = propagate(structure, SYSTEM)
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


def test_counters_reported(system):
    """Production reports its closure and cache counters."""
    structure = EventStructure(
        ["a", "b"], {("a", "b"): [TCG(0, 3, system.get("day"))]}
    )
    result = propagate(structure, SYSTEM)
    assert result.closures_full >= 1
    assert result.closures_incremental >= 0
    assert (
        result.conversion_cache_hits + result.conversion_cache_misses
        == result.conversions_performed
    )
