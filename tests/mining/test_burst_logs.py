"""Same-day bursts that used to stall the default mining path.

Pattern R->A [0,0]day, A->B [1,1]day with candidates ``a`` and ``b``
over one ``r``, a burst of ``a`` and ``b`` on the root's day and one
``x`` three days later.  No B can follow an A by one day, so nothing
is frequent; the shape is hard only for a search that cuts candidate
windows at one TCG bound, or a scan that keeps one configuration per
reset instant where guards see one tick:

- at 2,402 rows the depth-2 pair screen used to spend its whole search
  budget on the (A, B) pair and skip it undecided;
- at 8,002 rows a depth-1 scan used to hold one configuration per
  ``a`` event, so any configuration cap below the burst size raised.

Both are decided exactly now; no assertion reads a clock.
"""

import pytest

from repro.automata import build_tag
from repro.automata.dense import BatchRuntime
from repro.automata.structmatch import find_occurrence
from repro.cli import main
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity.gregorian import SECONDS_PER_DAY
from repro.io.serialize import dump_json, problem_to_dict
from repro.mining import (
    EventDiscoveryProblem,
    EventSequence,
    consistency_gate,
    discover,
    screen_candidate_pairs,
)
from repro.parallel.engine import compile_groups

D = SECONDS_PER_DAY


def burst_case(system, per_type):
    day = system.get("day")
    structure = EventStructure(
        ["R", "A", "B"],
        {("R", "A"): [TCG(0, 0, day)], ("A", "B"): [TCG(1, 1, day)]},
    )
    problem = EventDiscoveryProblem(
        structure, 0.5, "r", {"A": frozenset("ab"), "B": frozenset("ab")}
    )
    rows = [("r", 0)]
    rows += [("a", 10 + i) for i in range(per_type)]
    rows += [("b", 10 + per_type + i) for i in range(per_type)]
    rows.append(("x", 3 * D))
    return problem, rows


class TestDefaultScreenOnABurst:
    @pytest.fixture
    def case(self, system):
        problem, rows = burst_case(system, 1200)
        assert len(rows) == 2402
        return problem, rows

    def test_the_pair_is_decided_not_skipped(self, system, case):
        problem, rows = case
        sequence = EventSequence(rows)
        ok, propagation = consistency_gate(problem.structure, system)
        assert ok
        roots = list(sequence.occurrence_indices("r"))
        allowed = screen_candidate_pairs(
            propagation,
            sequence,
            roots,
            len(roots),
            {"A": {"a", "b"}, "B": {"a", "b"}},
            "r",
            problem.min_confidence,
        )
        assert allowed == {("A", "B"): set()}
        outcome = discover(problem, sequence, system)
        assert outcome.stats.pairs_screened == 1
        assert outcome.stats.pairs_kept == 0
        assert outcome.candidates_evaluated == 0
        assert outcome.solutions == []

    def test_cli_default_flags_print_what_depth_one_prints(
        self, tmp_path, capsys, case
    ):
        problem, rows = case
        spec = str(tmp_path / "problem.json")
        log = tmp_path / "events.csv"
        dump_json(problem_to_dict(problem), spec)
        log.write_text(
            "event_type,timestamp\n"
            + "".join("%s,%d\n" % row for row in rows)
        )
        assert main(["mine", spec, str(log)]) == 0
        default = capsys.readouterr().out
        assert main(["mine", spec, str(log), "--screen-depth", "1"]) == 0
        assert capsys.readouterr().out == default


class TestScanOnABurst:
    @pytest.fixture
    def case(self, system):
        problem, rows = burst_case(system, 4000)
        assert len(rows) == 8002
        return problem, EventSequence(rows)

    def test_configuration_cap_of_eight_completes(self, system, case):
        """4,000 ``a`` events share one day tick, so a bank holds one
        configuration per state and reset tick, not one per ``a``."""
        problem, sequence = case
        structure = problem.structure
        builds = [
            build_tag(
                ComplexEventType(structure, {"R": "r", "A": ea, "B": eb}),
                system=system,
            )
            for ea in "ab"
            for eb in "ab"
        ]
        roots = list(sequence.occurrence_indices("r"))
        hits = {}
        for members, bank, root_symbol in compile_groups(builds):
            runtime = BatchRuntime(
                bank,
                sequence.columnar(),
                root_symbol,
                structure.root,
                max_configurations=8,
            )
            for member, matched in zip(
                members, runtime.scan_roots([roots] * len(members))
            ):
                hits[member] = matched
        assert hits == {member: [] for member in range(4)}
        # The Section-3 matcher agrees.
        for build in builds:
            cet = build.complex_event_type
            assert find_occurrence(cet, sequence, roots[0]) is None
