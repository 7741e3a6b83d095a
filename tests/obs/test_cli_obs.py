"""End-to-end CLI observability: the acceptance path.

``repro discover --trace --metrics`` over the bundled example data must
produce a span tree covering propagation, conversion, TAG construction
and matching, and mining, and a metrics dump whose counters moved in
lockstep with the run.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    global_metrics,
    lint_prometheus_text,
    load_trace,
)

DATA = Path(__file__).resolve().parents[2] / "examples" / "data"
PROBLEM = str(DATA / "problem.json")
EVENTS = str(DATA / "events.csv")


def _span_names(payload):
    names = set()

    def walk(nodes):
        for node in nodes:
            names.add(node["name"])
            walk(node.get("children") or ())

    walk(payload["spans"])
    return names


class TestDiscoverAcceptance:
    def test_trace_covers_every_pipeline_stage(
        self, obs_on, tmp_path, capsys
    ):
        trace_path = str(tmp_path / "trace.json")
        assert main(
            ["discover", PROBLEM, EVENTS, "--trace", trace_path,
             "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        payload = load_trace(trace_path)
        names = _span_names(payload)
        assert "cli.discover" in names
        assert "mine" in names                  # mining pipeline
        assert "mine.consistency_gate" in names
        assert "propagate" in names             # propagation
        assert "propagate.convert" in names     # conversion
        assert "stp.close" in names             # closures
        assert "tag.build" in names             # TAG construction
        # TAG matching: step 5 scans the frontier in banked sweeps.
        assert "tag.batch_scan" in names
        assert "tag.match" not in names
        assert "mine.candidate" in names
        # The metrics dump rides on stdout and is well-formed.
        dump_start = out.index("# HELP")
        dump = out[dump_start:]
        assert lint_prometheus_text(dump) == []
        assert "repro_mine_runs_total" in dump
        assert "repro_propagation_runs_total" in dump

    def test_metrics_deltas_match_the_run(self, obs_on, tmp_path):
        registry = global_metrics()
        names = [
            "repro_mine_runs_total",
            "repro_mine_candidates_evaluated_total",
            "repro_mine_automaton_starts_total",
            "repro_propagation_runs_total",
            "repro_propagation_conversions_total",
            "repro_propagation_conversion_cache_hits_total",
            "repro_propagation_conversion_cache_misses_total",
        ]
        before = {name: registry.get(name).value() for name in names}
        assert main(["discover", PROBLEM, EVENTS]) == 0
        delta = {
            name: registry.get(name).value() - before[name]
            for name in names
        }
        assert delta["repro_mine_runs_total"] == 1
        assert delta["repro_propagation_runs_total"] == 1
        assert delta["repro_mine_candidates_evaluated_total"] > 0
        assert delta["repro_mine_automaton_starts_total"] > 0
        # Cache hits + misses account for every attempted conversion.
        assert (
            delta["repro_propagation_conversion_cache_hits_total"]
            + delta["repro_propagation_conversion_cache_misses_total"]
            == delta["repro_propagation_conversions_total"]
        )

    def test_mine_and_discover_are_the_same_command(
        self, obs_on, capsys
    ):
        assert main(["mine", PROBLEM, EVENTS]) == 0
        mine_out = capsys.readouterr().out
        assert main(["discover", PROBLEM, EVENTS]) == 0
        discover_out = capsys.readouterr().out
        assert mine_out == discover_out
        assert '"A": "ALERT"' in mine_out

    def test_root_position_flags_work_too(self, obs_on, tmp_path):
        trace_path = str(tmp_path / "root-flag.json")
        assert main(
            ["--trace", trace_path, "check", PROBLEM]
        ) == 2  # a problem file is not a structure file - still traced
        assert load_trace(trace_path)["spans"][0]["name"] == "cli.check"

    def test_metrics_out_writes_file(self, obs_on, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert main(
            ["discover", PROBLEM, EVENTS, "--metrics-out",
             str(metrics_path)]
        ) == 0
        text = metrics_path.read_text()
        assert lint_prometheus_text(text) == []
        assert "repro_mine_runs_total" in text
        # Without --metrics the dump stays off stdout.
        assert "# HELP" not in capsys.readouterr().out


class TestObsSubcommand:
    def test_pretty_prints_a_trace(self, obs_on, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert main(["discover", PROBLEM, EVENTS, "--trace",
                     trace_path]) == 0
        capsys.readouterr()
        assert main(["obs", trace_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace:")
        assert "propagate" in out
        assert "mine.scan" in out

    def test_rejects_non_trace_json(self, tmp_path, capsys):
        path = tmp_path / "not-a-trace.json"
        path.write_text(json.dumps({"hello": 1}))
        assert main(["obs", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestProfileStacks:
    def test_traced_run_embeds_profile(self, obs_on, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert main(
            ["discover", PROBLEM, EVENTS, "--trace", trace_path,
             "--profile-stacks"]
        ) == 0
        capsys.readouterr()
        payload = json.loads(Path(trace_path).read_text())
        profile = payload["profile_stacks"]
        assert profile["schema"] == 1
        assert profile["sample_count"] == sum(
            profile["samples"].values()
        )

    def test_obs_flame_renders_folded_stacks(
        self, obs_on, tmp_path, capsys
    ):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({
            "schema": 2,
            "trace_id": "0" * 32,
            "spans": [],
            "profile_stacks": {
                "schema": 1,
                "hz": 97,
                "sample_count": 5,
                "samples": {"span:mine;a:b;a:c": 3, "a:b": 2},
            },
        }))
        assert main(["obs", "flame", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "span:mine;a:b;a:c 3",
            "a:b 2",
        ]
        assert "5 samples" in captured.err

    def test_obs_flame_without_profile_errors(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({
            "schema": 2, "trace_id": "0" * 32, "spans": [],
        }))
        assert main(["obs", "flame", str(path)]) == 1
        assert "no profile samples" in capsys.readouterr().err

    def test_obs_flame_requires_a_file(self, capsys):
        assert main(["obs", "flame"]) == 2
        assert "error:" in capsys.readouterr().err


class TestObsOff:
    def test_discover_output_is_identical_with_obs_off(
        self, obs_on, capsys
    ):
        from repro.obs import configure

        assert main(["discover", PROBLEM, EVENTS]) == 0
        on_out = capsys.readouterr().out
        configure(False)
        try:
            assert main(["discover", PROBLEM, EVENTS]) == 0
        finally:
            configure(True)
        assert capsys.readouterr().out == on_out

    def test_counters_do_not_move_with_obs_off(self, obs_off):
        registry = global_metrics()
        runs = registry.get("repro_mine_runs_total")
        before = runs.value()
        assert main(["discover", PROBLEM, EVENTS]) == 0
        assert runs.value() == before

    def test_trace_file_is_written_but_empty(self, obs_off, tmp_path):
        trace_path = str(tmp_path / "empty.json")
        assert main(["discover", PROBLEM, EVENTS, "--trace",
                     trace_path]) == 0
        assert load_trace(trace_path)["spans"] == []
