"""The generators make the inputs the workloads are chosen for."""

import filecmp
import json
import os
from collections import Counter

import pytest

import layers
import run
from repro.automata.builder import build_tag
from repro.cli import build_parser
from repro.granularity.registry import standard_system
from repro.io.serialize import complex_event_type_from_dict, problem_from_dict
from repro.mining.discovery import discover
from repro.mining.events import Event, EventSequence
from repro.service import ServiceConfig, serve_events
from workloads import WORKLOADS, write_inputs


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)


def _write(tmp_path, name, seed, tag):
    workload = WORKLOADS[name]
    spec, log = tmp_path / ("%s.json" % tag), tmp_path / ("%s.csv" % tag)
    write_inputs(workload.inputs(seed, scale=0.05), workload.kind,
                 str(spec), str(log))
    return spec, log


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_bytes(tmp_path, name):
    first = _write(tmp_path, name, 7, "a")
    again = _write(tmp_path, name, 7, "b")
    other = _write(tmp_path, name, 8, "c")
    assert all(filecmp.cmp(x, y, shallow=False) for x, y in zip(first, again))
    assert not filecmp.cmp(first[1], other[1], shallow=False)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timestamps_are_unique(name):
    workload = WORKLOADS[name]
    rows = workload.inputs(1, scale=0.2).rows
    if workload.kind == "mine":
        stamps = Counter(t for _, t in rows)
    else:
        stamps = Counter((tenant, key, t) for tenant, key, _, t in rows)
    assert max(stamps.values()) == 1


def _cli_args(name, inputs_spec="spec.json", log="log.csv"):
    workload = WORKLOADS[name]
    return build_parser().parse_args(
        [workload.kind, inputs_spec, log] + list(workload.flags)
    )


def test_mine_scan_keeps_32_candidates():
    inputs = WORKLOADS["mine-scan"].inputs(1)
    args = _cli_args("mine-scan")
    system = standard_system()
    outcome = discover(
        problem_from_dict(inputs.spec, system),
        EventSequence(Event(etype, t) for etype, t in inputs.rows),
        system,
        screen_depth=args.screen_depth,
    )
    assert outcome.candidates_evaluated >= 32
    noise = sum(1 for etype, _ in inputs.rows if etype.startswith("N"))
    assert noise >= 0.8 * len(inputs.rows)


def _serve(name, seed=1):
    inputs = WORKLOADS[name].inputs(seed)
    args = _cli_args(name)
    system = standard_system()
    cet = complex_event_type_from_dict(inputs.spec, system)
    config = ServiceConfig(
        max_resident_sessions=args.max_resident,
        horizon_seconds=args.horizon,
    )
    service = serve_events(build_tag(cet, system=system), inputs.rows,
                           config=config, system=system)
    return service.stats(), len(inputs.rows)


def test_serve_resident_never_evicts():
    stats, _ = _serve("serve-resident")
    assert stats["sessions"]["evictions"] == 0
    assert stats["sessions"]["rehydrations"] == 0


def test_serve_churn_rehydrates_often():
    stats, events = _serve("serve-churn")
    assert stats["sessions"]["rehydrations"] >= 0.3 * events
