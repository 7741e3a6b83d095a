"""Regenerate the paper-vs-measured summary in one run.

A standalone (non-pytest) harness that recomputes the headline numbers
of every experiment and prints them as the tables EXPERIMENTS.md
records.  Useful for a quick end-to-end validation:

    python benchmarks/make_report.py
"""

import random
import sys
import time

from repro.constraints import TCG, EventStructure, distance_values, propagate
from repro.granularity import standard_system
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.hardness import (
    SubsetSumInstance,
    crt_compatible_subset_exists,
    decide_via_reduction,
    has_subset_sum,
)
from repro.mining import EventDiscoveryProblem, discover, naive_discover

# Run as a script, this file's directory is on sys.path.
from harness import figure_1a, figure_1b, stock_feed

D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR


def x1(system):
    print("== X1: Figure 1(a) derived constraints ==")
    result = propagate(figure_1a(system), system)
    derived = result.intervals("X0", "X3")
    print("  Mon-Fri b-week: week %s  hour %s" % (
        derived.get("week"), derived.get("hour")))
    sixday = standard_system(workdays=(0, 1, 2, 3, 4, 5))
    result6 = propagate(figure_1a(sixday), sixday)
    derived6 = result6.intervals("X0", "X3")
    print("  Mon-Sat b-week: week %s  hour %s" % (
        derived6.get("week"), derived6.get("hour")))
    print("  paper quotes:   week (0, 1)  hour (1, 175) -- the hour")
    print("  bound matches EXACTLY under the six-day convention; the")
    print("  week hull {0,1} is confirmed by exact enumeration (X1).")


def x2(system):
    print("\n== X2: Figure 1(b) hidden disjunction ==")
    gadget = figure_1b(system)
    hull = propagate(gadget, system).interval("X0", "X2", "month")
    values = distance_values(
        gadget, system, "X0", "X2", "month", 3 * 366 * D
    )
    print("  propagation hull: %s   exact set: %s   paper: [0,12] / {0,12}"
          % (hull, values))


def x3(system):
    print("\n== X3: SUBSET SUM reduction ==")
    for numbers, target in [((3, 5, 7), 12), ((3, 5, 7), 11), ((2, 3, 4), 9)]:
        instance = SubsetSumInstance(numbers, target)
        outcome = decide_via_reduction(instance, system)
        print(
            "  %s target %2d: oracle=%-5s gadget=%-5s refined=%-5s nodes=%d"
            % (
                numbers,
                target,
                has_subset_sum(instance),
                outcome.consistent,
                crt_compatible_subset_exists(instance),
                outcome.nodes_explored,
            )
        )


def x7_x9(system):
    print("\n== X7/X9: Example 2 discovery, naive vs optimised ==")
    sequence, planted = stock_feed(
        system, n_roots=40, seed=1996, noise_events_per_root=8
    )
    problem = EventDiscoveryProblem(
        figure_1a(system), 0.8, "IBM-rise", {"X3": frozenset(["IBM-fall"])}
    )
    t0 = time.perf_counter()
    naive = naive_discover(problem, sequence, system)
    naive_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    optimised = discover(problem, sequence, system)
    optimised_seconds = time.perf_counter() - t0
    assert sorted(map(str, naive.solution_assignments())) == sorted(
        map(str, optimised.solution_assignments())
    )
    print(
        "  planted %d/40; solutions agree (%d found)"
        % (planted, len(optimised.solutions))
    )
    print(
        "  naive    : %3d candidates %5d starts %6.2fs"
        % (naive.candidates_evaluated, naive.automaton_starts, naive_seconds)
    )
    print(
        "  optimised: %3d candidates %5d starts %6.2fs"
        % (
            optimised.candidates_evaluated,
            optimised.automaton_starts,
            optimised_seconds,
        )
    )


def x8(system):
    print("\n== X8: same-day TCG vs fixed windows ==")
    from repro.core import compile_pattern
    from repro.mining import EventSequence, SerialEpisode, occurs_within

    rng = random.Random(88)
    events, truth = [], {}
    for day_index in range(120):
        base = day_index * D
        if rng.random() < 0.5:
            anchor = base + 8 * H
            events += [("alarm", anchor), ("reset", anchor + 12 * H)]
            truth[anchor] = True
        else:
            anchor = base + 23 * H
            events += [("alarm", anchor), ("reset", anchor + 5 * H)]
            truth[anchor] = False
    sequence = EventSequence(events)
    pair = EventStructure(
        ["A", "B"], {("A", "B"): [TCG(0, 0, system.get("day"))]}
    )
    matcher = compile_pattern(pair, {"A": "alarm", "B": "reset"}, system)

    def score(predict):
        tp = fp = fn = 0
        for index in sequence.occurrence_indices("alarm"):
            anchor = sequence[index].time
            predicted = predict(index)
            if predicted and truth[anchor]:
                tp += 1
            elif predicted:
                fp += 1
            elif truth[anchor]:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        return precision, recall

    precision, recall = score(lambda i: matcher.occurs_at(sequence, i))
    print("  TCG [0,0]day : precision %.2f recall %.2f" % (precision, recall))
    episode = SerialEpisode(("alarm", "reset"))
    for hours in (5, 12, 24):
        precision, recall = score(
            lambda i, w=hours * H: occurs_within(sequence, episode, i, w)
        )
        print(
            "  window %3dh  : precision %.2f recall %.2f"
            % (hours, precision, recall)
        )


def main():
    system = standard_system()
    x1(system)
    x2(system)
    x3(system)
    x7_x9(system)
    x8(system)
    print("\nreport complete.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
