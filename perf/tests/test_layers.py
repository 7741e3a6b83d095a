"""The layer wiring: wrap targets exist and traced runs fill the table."""

import json
import os
import subprocess
import sys

import pytest

import layers
from launch import child_env
from workloads import WORKLOADS, write_inputs

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: t[0])
def test_wrap_target_exists(target):
    _, module, path, _ = target
    owner, attribute = layers._resolve(module, path)
    assert callable(getattr(owner, attribute))


def test_renamed_target_fails_before_patching():
    import repro.cli

    original = repro.cli.read_events
    renamed = layers.TARGETS[:1] + (
        ("perf.gone", "repro.mining.pruning", "find_occurence", None),
    )
    with pytest.raises(AttributeError, match="find_occurence"):
        layers.install(renamed)
    assert repro.cli.read_events is original


def test_install_wraps_and_undoes():
    import repro.store.columnar as columnar

    original = columnar.ColumnarEventStore.screen_anchors
    undo = layers.install()
    try:
        assert columnar.ColumnarEventStore.screen_anchors is not original
    finally:
        undo()
    assert columnar.ColumnarEventStore.screen_anchors is original


def test_self_time_follows_wall_clock_nesting():
    from repro.obs import Span

    def span(name, start, end, children=()):
        node = Span(name)
        node.start_ns, node.end_ns = start, end
        node.children = list(children)
        return node

    # "inner" is filed beside "route" but runs inside it, and calls
    # itself once (a recursive wrapped function counts as one call).
    inner = span("inner", 20, 30, [span("inner", 22, 28)])
    root = span("cli", 0, 100, [span("route", 10, 60), inner])
    selfs, counts, _ = layers.self_times([root])
    assert selfs == pytest.approx(
        {"cli": 50e-9, "route": 40e-9, "inner": 10e-9}, abs=1e-15
    )
    assert counts == {"cli": 1, "route": 1, "inner": 1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_fills_declared_metrics(tmp_path, name):
    workload = WORKLOADS[name]
    spec, log = str(tmp_path / "spec.json"), str(tmp_path / "log.csv")
    write_inputs(workload.inputs(1, scale=0.2), workload.kind, spec, log)
    command = [workload.kind, spec, log] + list(workload.flags)
    out = str(tmp_path / "traced.json")
    subprocess.run(
        [sys.executable, os.path.join(PERF, "inproc.py"), "traced", out,
         "--trace", str(tmp_path / "trace.json"), "--"] + command,
        cwd=ROOT, env=child_env(ROOT), check=True, capture_output=True,
        timeout=120,
    )
    with open(out) as handle:
        result = json.load(handle)
    assert result["code"] == 0
    metrics = result["metrics"]
    # run.py adds what only the whole run can measure.
    assert set(metrics) | {"obs.trace_overhead_frac", "loadgen.lag_p99_ms",
                           "loadgen.latency_p99_ms", "loadgen.samples",
                           "host.slowdown"} \
        == {metric for metric, _ in layers.PER_LAYER}
    empty = [metric for metric in workload.fills if not metrics[metric] > 0]
    assert not empty, empty
