"""Acceptance: one request, one tree - across processes and sessions.

A single ``repro serve`` run and a single ``repro mine --parallel 2``
run must each produce ONE trace file in which every span - the
service's routing and rehydration spans, the fork workers' spans
merged back from child processes - carries the root span's
``trace_id`` and a ``parent_id`` that resolves to another span in the
same file.
"""

import json
import os

import pytest

from repro.cli import main
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.io import dump_json, problem_to_dict, write_events
from repro.io.serialize import complex_event_type_to_dict
from repro.mining import EventDiscoveryProblem, EventSequence
from repro.obs import load_trace
from repro.parallel import fork_available


def _flatten(payload):
    flat = []

    def walk(node, depth):
        flat.append(node)
        for child in node.get("children") or ():
            walk(child, depth + 1)

    for root in payload["spans"]:
        walk(root, 0)
    return flat


def _assert_one_tree(payload):
    """Every span shares the payload's trace_id; every parent link
    resolves inside the file; exactly one root anchors the tree."""
    flat = _flatten(payload)
    assert flat, "trace is empty"
    ids = {span["span_id"] for span in flat}
    assert len(ids) == len(flat)
    for span in flat:
        assert span["trace_id"] == payload["trace_id"], span["name"]
        if span["parent_id"] is not None:
            assert span["parent_id"] in ids, (
                "%s has dangling parent %s"
                % (span["name"], span["parent_id"])
            )
    roots = [span for span in flat if span["parent_id"] is None]
    assert len(roots) == 1 and roots[0]["name"].startswith("cli.")
    return flat


@pytest.fixture
def serve_inputs(tmp_path, system):
    hour = system.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    cet = ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})
    pattern_path = str(tmp_path / "pattern.json")
    dump_json(complex_event_type_to_dict(cet), pattern_path)
    rows = ["tenant,event_type,timestamp,sequence_key"]
    # Two tenants, two keys each; interleaved keys under
    # --max-resident 1 force evictions and rehydrations mid-stream.
    t = 0
    for cycle in range(3):
        for tenant in ("acme", "globex"):
            for key in ("k1", "k2"):
                for etype in ("a", "b", "c"):
                    rows.append("%s,%s,%d,%s" % (tenant, etype, t, key))
                    t += 600
    events_path = str(tmp_path / "tenants.csv")
    with open(events_path, "w") as handle:
        handle.write("\n".join(rows) + "\n")
    return pattern_path, events_path


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


class TestServeCorrelation:
    def test_serve_session_spans_share_the_root_identity(
        self, obs_on, serve_inputs, tmp_path, capsys
    ):
        pattern_path, events_path = serve_inputs
        trace_path = str(tmp_path / "serve-trace.json")
        assert main([
            "serve", pattern_path, events_path,
            "--max-resident", "1",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--trace", trace_path,
        ]) == 0
        err = capsys.readouterr().err
        assert "rehydrations" in err
        payload = load_trace(trace_path)
        flat = _assert_one_tree(payload)
        names = [span["name"] for span in flat]
        assert "cli.serve" in names
        assert "service.route" in names
        assert "service.rehydrate" in names  # forced by max-resident 1
        # Session spans re-parent under the submitting request span,
        # not wherever the event loop happened to be.
        by_id = {span["span_id"]: span for span in flat}
        for span in flat:
            if span["name"] in ("service.route", "service.rehydrate"):
                assert by_id[span["parent_id"]], span


@pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform"
)
class TestMineParallelCorrelation:
    def test_worker_spans_merge_under_the_scan_span(
        self, obs_on, mine_inputs, tmp_path, capsys
    ):
        problem_path, events_path = mine_inputs
        trace_path = str(tmp_path / "mine-trace.json")
        assert main([
            "mine", problem_path, events_path,
            "--parallel", "2", "--shard-size", "3",
            "--trace", trace_path,
        ]) == 0
        capsys.readouterr()
        payload = load_trace(trace_path)
        flat = _assert_one_tree(payload)
        by_id = {span["span_id"]: span for span in flat}
        workers = [
            span for span in flat if span["name"] == "mine.worker"
        ]
        assert workers
        remote = [
            span for span in workers
            if int(span["attributes"]["pid"]) != os.getpid()
        ]
        assert remote, "no worker span ran in a child process"
        for span in remote:
            # Forked workers' spans carry the parent's trace_id and
            # hang under the exact span that forked them (mine.scan).
            assert span["trace_id"] == payload["trace_id"]
            assert by_id[span["parent_id"]]["name"] == "mine.scan"
