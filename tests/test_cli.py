"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.automata import TagMatcher, build_tag
from repro.cli import main
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import normalform, standard_system
from repro.granularity.gregorian import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.io import (
    complex_event_type_to_dict,
    dump_json,
    problem_to_dict,
    structure_to_dict,
    write_events,
)
from repro.mining import EventDiscoveryProblem, EventSequence

D, H = SECONDS_PER_DAY, SECONDS_PER_HOUR


@pytest.fixture
def pair_structure(system):
    return EventStructure(
        ["A", "B"], {("A", "B"): [TCG(0, 0, system.get("day"))]}
    )


@pytest.fixture
def structure_file(tmp_path, pair_structure):
    path = str(tmp_path / "structure.json")
    dump_json(structure_to_dict(pair_structure), path)
    return path


@pytest.fixture
def pattern_file(tmp_path, pair_structure):
    cet = ComplexEventType(pair_structure, {"A": "login", "B": "logout"})
    path = str(tmp_path / "pattern.json")
    dump_json(complex_event_type_to_dict(cet), path)
    return path


@pytest.fixture
def events_file(tmp_path):
    sequence = EventSequence(
        [
            ("login", 8 * H),
            ("logout", 20 * H),          # same day -> match
            ("login", D + 23 * H),
            ("logout", 2 * D + 1 * H),   # crosses midnight -> no match
        ]
    )
    path = str(tmp_path / "events.csv")
    write_events(sequence, path)
    return path


class TestCheck:
    def test_consistent(self, structure_file, capsys):
        assert main(["check", structure_file]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_verbose_prints_derived(self, structure_file, capsys):
        assert main(["check", structure_file, "-v"]) == 0
        out = capsys.readouterr().out
        assert "A -> B" in out

    def test_inconsistent(self, tmp_path, system, capsys):
        bad = EventStructure(
            ["A", "B"],
            {
                ("A", "B"): [
                    TCG(10, 10, system.get("day")),
                    TCG(0, 0, system.get("week")),
                ]
            },
        )
        path = str(tmp_path / "bad.json")
        dump_json(structure_to_dict(bad), path)
        assert main(["check", path]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out


class TestMatch:
    def test_match_reports_bindings_and_frequency(
        self, pattern_file, events_file, capsys
    ):
        assert main(["match", pattern_file, events_file]) == 0
        out = capsys.readouterr().out
        assert "match at t=%d" % (8 * H) in out
        assert "1/2 login occurrences matched" in out
        assert "frequency 0.500" in out

    def test_printed_bindings_equal_reference(
        self, tmp_path, system, pair_structure, pattern_file, capsys
    ):
        """Each printed binding comes from the production scan; it must
        equal the object reference's ``match_from`` on the same root."""
        sequence = EventSequence(
            [
                ("login", 1 * H),
                ("logout", 2 * H),
                ("logout", 3 * H),
                ("login", D + 5 * H),
                ("login", D + 6 * H),
                ("logout", D + 7 * H),
                ("login", 2 * D + 23 * H),
                ("logout", 3 * D + 1 * H),   # crosses midnight
            ]
        )
        path = str(tmp_path / "many.csv")
        write_events(sequence, path)
        assert main(["match", pattern_file, path]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("match at t="):
                head, blob = line.split(": ", 1)
                printed[int(head[len("match at t="):])] = json.loads(blob)
        cet = ComplexEventType(pair_structure, {"A": "login", "B": "logout"})
        matcher = TagMatcher(build_tag(cet, system=system))
        expected = {}
        for index in sequence.occurrence_indices("login"):
            result = matcher.match_from(sequence, index)
            if result.matched:
                expected[sequence[index].time] = result.bindings
        assert printed == expected
        assert sorted(printed) == [1 * H, D + 5 * H, D + 6 * H]


class TestMine:
    def test_mine_finds_solution(
        self, tmp_path, pair_structure, events_file, capsys
    ):
        problem = EventDiscoveryProblem(pair_structure, 0.3, "login")
        path = str(tmp_path / "problem.json")
        dump_json(problem_to_dict(problem), path)
        assert main(["mine", path, events_file]) == 0
        out = capsys.readouterr().out
        solutions = [json.loads(line.split("  ", 1)[1])
                     for line in out.strip().splitlines() if "  " in line]
        assert {"A": "login", "B": "logout"} in solutions


class TestConvert:
    def test_convert_day_to_seconds(self, capsys):
        assert main(["convert", "0", "0", "day", "second"]) == 0
        assert "[0,86399]second" in capsys.readouterr().out

    def test_convert_with_expression(self, capsys):
        assert main(["convert", "1", "1", "group(month,3)", "month"]) == 0
        out = capsys.readouterr().out
        assert "3-month" in out and "month" in out

    def test_infeasible_conversion(self, capsys):
        assert main(["convert", "0", "1", "day", "b-day"]) == 1
        assert "no implied constraint" in capsys.readouterr().out

    def test_uncovered_source_names_feasibility(self, capsys):
        assert main(["convert", "0", "1", "second", "business-month"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("no implied constraint: ")
        assert "business-month does not cover every instant of second" in out
        assert "A.1 feasibility" in out

    def test_unbounded_conversion_names_search_cap(self, capsys):
        # 601 years exceed the 2**24-tick search cap of the second table.
        assert main(["convert", "0", "600", "year", "second"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("no implied constraint: ")
        assert "no finite bound within the search cap" in out

    def test_empty_conversion_names_empty_interval(self, capsys, monkeypatch):
        # Figure 3 never yields an empty interval from well-formed
        # tables, so the outcome is injected.
        from repro.granularity import ConversionOutcome, GranularitySystem

        monkeypatch.setattr(
            GranularitySystem,
            "convert",
            lambda *args, **kwargs: ConversionOutcome(None, empty=True),
        )
        assert main(["convert", "0", "1", "day", "week"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("no implied constraint: ")
        assert "the implied interval is empty" in out

    def test_parse_error(self, capsys):
        assert main(["convert", "0", "1", "lunar(3)", "day"]) == 2


class TestErrorHandling:
    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/structure.json"]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_payload_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"variables": ["A"]}')
        assert main(["check", str(path)]) == 2

    def test_bad_csv_exits_2(self, tmp_path, pattern_file, capsys):
        events = tmp_path / "bad.csv"
        # First row may pass as a header; the second row is malformed.
        events.write_text("event_type,timestamp\nonly-one-column\n")
        assert main(["match", pattern_file, str(events)]) == 2

    def test_unknown_bench_profile_exits_2(self, capsys):
        assert main(["bench", "--profile", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown profile 'nope'")
        assert err.count("\n") == 1


class TestMineReport:
    def test_report_flag(self, tmp_path, pair_structure, events_file, capsys):
        problem = EventDiscoveryProblem(pair_structure, 0.3, "login")
        path = str(tmp_path / "problem.json")
        dump_json(problem_to_dict(problem), path)
        assert main(["mine", path, events_file, "--report"]) == 0
        out = capsys.readouterr().out
        assert "freq" in out and "anchors" in out


class TestParserRobustness:
    def test_parsing_mine_leaves_the_bench_harness_unimported(self):
        """Only ``repro bench`` loads the harness; a fresh interpreter
        that builds the parser and parses a mine command never does."""
        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser().parse_args(['mine', 'p.json', 'e.csv'])\n"
            "print([m for m in sys.modules if m.startswith('repro.bench')])"
        )
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_paths(self, capsys):
        for args in (["--help"], ["mine", "--help"], ["convert", "--help"]):
            with pytest.raises(SystemExit) as excinfo:
                main(args)
            assert excinfo.value.code == 0
            assert capsys.readouterr().out

    def test_bad_screen_depth_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["mine", "p.json", "e.csv", "--screen-depth", "7"])


class TestAnalyze:
    def test_tightness_and_disjunctions(self, tmp_path, system, capsys):
        month = system.get("month")
        year = system.get("year")
        gadget = EventStructure(
            ["X0", "X1", "X2", "X3"],
            {
                ("X0", "X1"): [TCG(11, 11, month), TCG(0, 0, year)],
                ("X0", "X2"): [TCG(0, 12, month)],
                ("X2", "X3"): [TCG(11, 11, month), TCG(0, 0, year)],
            },
        )
        path = str(tmp_path / "gadget.json")
        dump_json(structure_to_dict(gadget), path)
        assert main(
            [
                "analyze",
                path,
                "--granularity",
                "month",
                "--window-days",
                "1098",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "X0 -> X2" in out
        assert "hidden disjunctions" in out
        assert "[0, 12]" in out

    def test_no_disjunctions_message(self, structure_file, capsys):
        assert main(
            ["analyze", structure_file, "--window-days", "30"]
        ) == 0
        assert "no hidden disjunctions" in capsys.readouterr().out


class TestGenerate:
    def test_generate_then_mine_roundtrip(
        self, tmp_path, pair_structure, pattern_file, capsys
    ):
        out_csv = str(tmp_path / "generated.csv")
        assert main(
            [
                "generate",
                pattern_file,
                out_csv,
                "--roots",
                "10",
                "--confidence",
                "1.0",
                "--seed",
                "3",
                "--noise",
                "chatter,ping",
            ]
        ) == 0
        # The generated log feeds straight back into `match`.
        assert main(["match", pattern_file, out_csv]) == 0
        out = capsys.readouterr().out
        assert "10/10 login occurrences matched" in out


class TestDot:
    def test_structure_dot(self, structure_file, capsys):
        assert main(["dot", structure_file]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_pattern_tag_dot(self, pattern_file, capsys):
        assert main(["dot", pattern_file, "--tag"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "login" in out

    def test_pattern_structure_dot(self, pattern_file, capsys):
        assert main(["dot", pattern_file]) == 0
        assert '"A"' in capsys.readouterr().out


class TestGranInfo:
    def test_compiled_type_prints_normal_form(self, capsys):
        assert main(["gran", "info", "b-day"]) == 0
        out = capsys.readouterr().out
        assert "granularity: b-day" in out
        assert "normal form: algebra" in out
        assert "compiled by: business-overlay" in out
        assert "period: 5 ticks / 604800 seconds" in out
        assert "exact instant cover: yes" in out

    def test_structural_type(self, capsys):
        assert main(["gran", "info", "group(minute,15)"]) == 0
        out = capsys.readouterr().out
        assert "normal form: algebra" in out
        assert "compiled by: group" in out
        assert "period: 1 ticks / 900 seconds" in out

    def test_month_reports_gregorian_cycle(self, capsys):
        assert main(["gran", "info", "month"]) == 0
        out = capsys.readouterr().out
        assert "normal form: algebra" in out
        assert "compiled by: gregorian-cycle" in out
        assert "period: 4800 ticks / 12622780800 seconds" in out
        assert "exact instant cover: yes" in out

    def test_non_lowering_type_reports_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(normalform, "MAX_PERIOD_TICKS", 4799)
        assert main(["gran", "info", "month"]) == 0
        out = capsys.readouterr().out
        assert "normal form: none" in out
        assert "reason: over-budget" in out
        assert "backend: sweep" in out

    def test_backend_is_the_types_choice(self, capsys):
        assert main(["gran", "info", "month"]) == 0
        out = capsys.readouterr().out
        assert "backend: compiled\n" in out
        assert "REPRO_" not in out

    def test_parse_error_exits_2(self, capsys):
        assert main(["gran", "info", "lunar(3)"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["gran"])


@pytest.fixture
def tenant_events_file(tmp_path):
    path = str(tmp_path / "tenants.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "tenant,event_type,timestamp,sequence_key\n"
            "acme,login,%d,web\n"
            "beta,login,%d,web\n"
            "acme,logout,%d,web\n"
            "beta,logout,%d,web\n"
            % (8 * H, 9 * H, 20 * H, D + H)
        )
    return path


class TestServe:
    def test_routes_per_tenant(
        self, pattern_file, tenant_events_file, capsys
    ):
        assert main(["serve", pattern_file, tenant_events_file]) == 0
        captured = capsys.readouterr()
        # acme's pair lands on the same day; beta's crosses midnight.
        assert "acme/web#2: detected anchor t=%d" % (8 * H) in captured.out
        assert "beta" not in captured.out
        assert "tenants 2" in captured.err
        assert "detections 1" in captured.err

    def test_bad_row_exits_2_without_skip(
        self, pattern_file, tmp_path, capsys
    ):
        path = str(tmp_path / "tenants.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("acme,login,%d\ngarbage-row\n" % (8 * H))
        assert main(["serve", pattern_file, path]) == 2
        assert "error" in capsys.readouterr().err

    def test_skip_bad_rows_quarantines(
        self, pattern_file, tmp_path, capsys
    ):
        path = str(tmp_path / "tenants.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                "acme,login,%d\ngarbage-row\nacme,logout,%d\n"
                % (8 * H, 20 * H)
            )
        assert main(
            ["serve", pattern_file, path, "--skip-bad-rows"]
        ) == 0
        captured = capsys.readouterr()
        assert "acme/default#2: detected" in captured.out
        assert "quarantined 1 record(s)" in captured.err

    def test_recorder_dir_receives_the_breaker_trip_dump(
        self, pattern_file, tmp_path, capsys
    ):
        # Each event older than its predecessor is rejected; the fifth
        # rejection trips the default breaker (threshold 5).
        path = str(tmp_path / "tenants.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("acme,a,1000\n")
            for stamp in range(900, 894, -1):
                handle.write("acme,a,%d\n" % stamp)
        dumps = str(tmp_path / "dumps")
        assert main(
            ["serve", pattern_file, path, "--recorder-dir", dumps]
        ) == 0
        assert "quarantined 5" in capsys.readouterr().err
        assert os.listdir(dumps) == ["flightrec-acme-001.json"]

    def test_checkpoint_dir_persists_sessions(
        self, pattern_file, tenant_events_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        assert main(
            [
                "serve", pattern_file, tenant_events_file,
                "--checkpoint-dir", ckpt, "--max-resident", "1",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "acme/web#2: detected" in captured.out
        assert os.path.isdir(ckpt) and os.listdir(ckpt)
