"""CLI acceptance: ``repro mine --parallel`` vs the serial engine."""

import json

import pytest

from repro.cli import main
from repro.constraints import TCG, EventStructure
from repro.io import dump_json, problem_to_dict, write_events
from repro.mining import EventDiscoveryProblem, EventSequence
from repro.parallel import fork_available


@pytest.fixture
def mine_inputs(tmp_path, system):
    hour = system.get("hour")
    structure = EventStructure(
        ["R", "A", "B"],
        {
            ("R", "A"): [TCG(0, 2, hour)],
            ("A", "B"): [TCG(0, 2, hour)],
        },
    )
    problem = EventDiscoveryProblem(structure, 0.2, "r")
    problem_path = str(tmp_path / "problem.json")
    dump_json(problem_to_dict(problem), problem_path)
    events = []
    for i in range(16):
        t = i * 20_000
        events.append(("r", t))
        if i % 2 == 0:
            events.append(("a", t + 3_000))
        if i % 4 != 3:
            events.append(("b", t + 6_000))
    events_path = str(tmp_path / "events.csv")
    write_events(
        EventSequence(sorted(events, key=lambda e: e[1])), events_path
    )
    return problem_path, events_path


@pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform"
)
class TestMineParallelCli:
    def test_parallel_output_is_identical_to_serial(
        self, mine_inputs, capsys
    ):
        problem_path, events_path = mine_inputs
        assert main(["mine", problem_path, events_path]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["mine", problem_path, events_path, "--parallel", "2"]
        ) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        # Every solution line is valid JSON (the machine-readable
        # contract downstream tooling parses).
        for line in serial_out.strip().splitlines():
            json.loads(line.split("  ", 1)[1])

    def test_shard_size_and_auto_workers_accepted(
        self, mine_inputs, capsys, monkeypatch
    ):
        # Pin what "auto" resolves to, so the pool stays two wide on
        # any host.
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        problem_path, events_path = mine_inputs
        assert main(["mine", problem_path, events_path]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            [
                "mine", problem_path, events_path,
                "--parallel", "auto", "--shard-size", "3",
            ]
        ) == 0
        assert capsys.readouterr().out == serial_out

    def test_bad_parallel_value_is_a_usage_error(
        self, mine_inputs, capsys
    ):
        problem_path, events_path = mine_inputs
        assert main(
            ["mine", problem_path, events_path, "--parallel", "lots"]
        ) == 2
        assert "--parallel" in capsys.readouterr().err

    def test_trace_nests_worker_spans_under_the_scan(
        self, mine_inputs, tmp_path, capsys, obs_on
    ):
        problem_path, events_path = mine_inputs
        trace_path = str(tmp_path / "trace.json")
        assert main(
            [
                "--trace", trace_path,
                "mine", problem_path, events_path, "--parallel", "2",
            ]
        ) == 0
        capsys.readouterr()
        with open(trace_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)

        def find(node, name):
            found = []
            if node["name"] == name:
                found.append(node)
            for child in node.get("children", ()):
                found.extend(find(child, name))
            return found

        scans = [
            scan
            for root in payload["spans"]
            for scan in find(root, "mine.scan")
        ]
        assert scans
        workers = [
            child
            for scan in scans
            for child in find(scan, "mine.worker")
        ]
        assert workers, "worker spans must nest under mine.scan"
        # Worker spans recorded in the pool carry the worker's pid.
        assert all("pid" in w["attributes"] for w in workers)
