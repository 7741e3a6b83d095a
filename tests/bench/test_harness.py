"""Unit tests for the benchmark runner and its regression gate."""

import json
import os
import time

import pytest

from benchmarks import harness
from benchmarks.harness import (
    EXPERIMENT_NAMES,
    REPEATS,
    SCHEMA_VERSION,
    Arm,
    BenchmarkRegression,
    Experiment,
    assert_no_regressions,
    compare_payloads,
    comparison_delta_table,
    format_comparison,
    load_payload,
    main,
    run_suite,
    save_payload,
    slowest_spans,
)


def _payload(medians):
    return {
        "schema": SCHEMA_VERSION,
        "profile": "quick",
        "repeats": 1,
        "experiments": {
            name: {"median_seconds": s, "repeats": 1, "counters": {}}
            for name, s in medians.items()
        },
    }


def _not_timings(counters):
    """The counters that are reproducible: no seconds, speedups or
    rates."""
    return {
        key: value
        for key, value in counters.items()
        if not key.endswith("_seconds")
        and not key.startswith("speedup")
        and key != "events_per_second"
    }


class TestRunSuite:
    def test_subset_run_shape(self):
        payload = run_suite(experiments=["X1", "X5"])
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["repeats"] == REPEATS
        assert sorted(payload["experiments"]) == ["X1", "X5"]
        for run in payload["experiments"].values():
            assert run["median_seconds"] >= 0
            assert run["counters"]
        assert "conversion_cache" in payload
        assert "size_tables" in payload

    def test_counters_are_deterministic(self):
        first = run_suite(experiments=["X1", "X13"])
        second = run_suite(experiments=["X1", "X13"])
        for name in ("X1", "X13"):
            assert _not_timings(
                first["experiments"][name]["counters"]
            ) == _not_timings(second["experiments"][name]["counters"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_suite(experiments=["X1", "X99"])

    def test_all_eighteen_experiments_registered(self):
        assert EXPERIMENT_NAMES == tuple(
            "X%d" % i for i in range(1, 19)
        )

    def test_x15_service_churn_counters(self):
        payload = run_suite(experiments=["X15"])
        counters = payload["experiments"]["X15"]["counters"]
        assert counters["tenants"] == 500
        assert counters["events"] == 1500
        assert counters["all_tenants_detected"]
        assert counters["detections"] == counters["tenants"]
        # 500 sessions through 32 resident slots: constant churn.
        assert counters["evictions"] > counters["tenants"]
        assert counters["rehydrations"] > counters["tenants"]
        assert counters["events_per_second"] > 0

    def test_granularity_experiments_match_the_reference(self):
        """X13, X14 and X18 hold the compiled tables and clocks against
        the sweep reference of ``tests/differential/reference.py``
        (sweep tables, ``Unlowered`` clocks) on live runs, not just in
        the checked-in payloads."""
        payload = run_suite(experiments=["X13", "X14", "X18"])
        runs = payload["experiments"]
        for name in ("X13", "X14", "X18"):
            assert runs[name]["counters"]["identical_to_sweep"], name
        assert runs["X14"]["counters"]["matches"] == 78
        assert runs["X18"]["counters"]["propagation_identical_to_sweep"]


class TestExperimentShape:
    """The runner times only the production arm; reference arms run
    once, after the repeats."""

    def test_reference_time_stays_out_of_the_median(self, monkeypatch):
        calls = {"production": 0, "reference": 0}

        def production():
            calls["production"] += 1
            return 1

        def reference():
            calls["reference"] += 1
            time.sleep(0.05)
            return 1

        experiment = Experiment(
            {"fast": Arm(production)},
            lambda results, _: {
                "identical": results["fast"] == results["slow"]
            },
            {"slow": Arm(reference)},
        )
        monkeypatch.setitem(
            harness._EXPERIMENTS, "FAKE", lambda system: experiment
        )
        record = run_suite(experiments=["FAKE"])["experiments"]["FAKE"]
        assert record["median_seconds"] < 0.005
        assert record["counters"]["slow_seconds"] >= 0.05
        assert record["counters"]["identical"]
        assert calls == {"production": REPEATS, "reference": 1}

    def test_prepare_runs_untimed_before_every_call(self, monkeypatch):
        prepared = []

        def prepare():
            prepared.append(None)
            time.sleep(0.02)
            return (len(prepared),)

        experiment = Experiment(
            {"arm": Arm(lambda n: n, prepare)},
            lambda results, _: {"last": results["arm"]},
        )
        monkeypatch.setitem(
            harness._EXPERIMENTS, "FAKE", lambda system: experiment
        )
        record = run_suite(experiments=["FAKE"])["experiments"]["FAKE"]
        assert record["counters"] == {"last": REPEATS}
        assert record["median_seconds"] < 0.01

    def test_raising_experiment_is_recorded_and_fails_the_run(
        self, monkeypatch, tmp_path, capsys
    ):
        def boom(system):
            raise RuntimeError("base tree lacks this")

        monkeypatch.setitem(harness._EXPERIMENTS, "BOOM", boom)
        path = str(tmp_path / "bench.json")
        assert main(["--experiments", "X1,BOOM", "--output", path]) == 1
        runs = load_payload(path)["experiments"]
        assert runs["BOOM"]["error"] == "RuntimeError: base tree lacks this"
        assert "median_seconds" not in runs["BOOM"]
        assert runs["X1"]["median_seconds"] >= 0
        assert "FAIL: BOOM raised" in capsys.readouterr().err


class TestRunnerCommand:
    def test_self_baseline_passes(self, tmp_path):
        path = str(tmp_path / "bench.json")
        assert main(["--experiments", "X1", "--output", path]) == 0
        assert main(["--experiments", "X1", "--baseline", path]) == 0

    def test_profile_stacks_embed_a_profile(self, tmp_path):
        path = str(tmp_path / "bench.json")
        assert main(
            ["--experiments", "X1", "--profile-stacks", "--output", path]
        ) == 0
        assert isinstance(load_payload(path)["profile_stacks"], dict)

    def test_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--experiments", "X99"])
        assert excinfo.value.code == 2
        assert "unknown experiments X99" in capsys.readouterr().err


class TestTraceDir:
    def test_trace_dir_writes_one_trace_per_experiment(self, tmp_path):
        from repro.obs import configure, load_trace, obs_enabled

        trace_dir = str(tmp_path / "traces")
        previous = obs_enabled()
        configure(True)
        try:
            payload = run_suite(experiments=["X1", "X5"], trace_dir=trace_dir)
        finally:
            configure(previous)
        for name in ["X1", "X5"]:
            record = payload["experiments"][name]
            trace = load_trace(record["trace_file"])
            assert os.path.basename(record["trace_file"]) == (
                "%s.json" % name
            )
            # One bench.<name> root per repeat, all one trace.
            roots = trace["spans"]
            assert len(roots) == record["repeats"]
            assert all(r["name"] == "bench.%s" % name for r in roots)
            assert all(
                r["trace_id"] == trace["trace_id"] for r in roots
            )
            slowest = record["slowest_spans"]
            assert 0 < len(slowest) <= 5
            durations = [row["duration_ms"] for row in slowest]
            assert durations == sorted(durations, reverse=True)
            assert slowest[0]["trace_id"] == trace["trace_id"]
            assert all(row["span_id"] for row in slowest)

    def test_without_trace_dir_records_are_unchanged(self):
        payload = run_suite(experiments=["X1"])
        record = payload["experiments"]["X1"]
        assert "trace_file" not in record
        assert "slowest_spans" not in record


class TestSlowestSpans:
    def test_ranks_across_nesting(self):
        trace = {
            "trace_id": "t",
            "spans": [{
                "name": "root", "span_id": "r", "trace_id": "t",
                "duration_ns": 5_000_000,
                "children": [
                    {"name": "deep", "span_id": "d", "trace_id": "t",
                     "duration_ns": 9_000_000, "children": []},
                ],
            }],
        }
        rows = slowest_spans(trace, limit=2)
        assert [row["name"] for row in rows] == ["deep", "root"]
        assert rows[0]["duration_ms"] == 9.0


class TestComparePayloads:
    def test_equal_payloads_never_regress(self):
        payload = _payload({"X1": 0.5, "X4": 2.0})
        rows = compare_payloads(payload, payload)
        assert rows and not any(row["regressed"] for row in rows)

    def test_large_slowdown_regresses(self):
        rows = compare_payloads(
            _payload({"X4": 1.0}), _payload({"X4": 0.5})
        )
        (row,) = rows
        assert row["ratio"] == pytest.approx(2.0)
        assert row["regressed"]

    def test_within_tolerance_is_ok(self):
        rows = compare_payloads(
            _payload({"X4": 1.2}), _payload({"X4": 1.0}), tolerance=0.25
        )
        assert not rows[0]["regressed"]

    def test_jitter_floor_protects_tiny_experiments(self):
        """A 0.4 ms experiment tripling stays under the absolute
        floor: jitter, not a regression."""
        rows = compare_payloads(
            _payload({"X3": 0.0012}), _payload({"X3": 0.0004})
        )
        assert rows[0]["ratio"] == pytest.approx(3.0)
        assert not rows[0]["regressed"]
        rows = compare_payloads(
            _payload({"X3": 0.0012}),
            _payload({"X3": 0.0004}),
            min_delta_seconds=0.0,
        )
        assert rows[0]["regressed"]

    def test_sub_floor_experiments_are_informational_only(self):
        """Both medians under the jitter floor: the row is reported
        for the record but can neither pass nor fail the gate."""
        rows = compare_payloads(
            _payload({"X3": 0.004}), _payload({"X3": 0.001})
        )
        (row,) = rows
        assert row["informational"]
        assert not row["regressed"]
        assert "info (under jitter floor)" in format_comparison(rows)
        # One median above the floor: a real measurement, pass/fail
        # semantics apply again.
        rows = compare_payloads(
            _payload({"X3": 0.048}), _payload({"X3": 0.04})
        )
        (row,) = rows
        assert not row["informational"]
        assert not row["regressed"]  # within tolerance
        rows = compare_payloads(
            _payload({"X3": 0.2}), _payload({"X3": 0.04})
        )
        (row,) = rows
        assert not row["informational"]
        assert row["regressed"]

    def test_missing_experiments_never_regress(self):
        rows = compare_payloads(
            _payload({"X1": 0.5, "X2": 0.5}), _payload({"X1": 0.5})
        )
        by_name = {row["experiment"]: row for row in rows}
        assert by_name["X2"]["ratio"] is None
        assert not by_name["X2"]["regressed"]
        assert by_name["X2"]["warning"] == "missing from baseline"
        assert by_name["X1"]["warning"] is None

    def test_missing_from_current_is_flagged(self):
        rows = compare_payloads(
            _payload({"X1": 0.5}), _payload({"X1": 0.5, "X3": 0.2})
        )
        by_name = {row["experiment"]: row for row in rows}
        assert by_name["X3"]["ratio"] is None
        assert not by_name["X3"]["regressed"]
        assert by_name["X3"]["warning"] == "missing from current run"

    def test_unknown_experiment_keys_are_reported_not_dropped(self):
        """A payload from a different harness version (unknown keys)
        still produces rows, with a warning, instead of silently
        vanishing from the delta table."""
        rows = compare_payloads(
            _payload({"X1": 0.5, "X99": 1.0}),
            _payload({"X1": 0.5, "X99": 0.9}),
        )
        by_name = {row["experiment"]: row for row in rows}
        assert "X99" in by_name
        row = by_name["X99"]
        assert row["ratio"] == pytest.approx(1.0 / 0.9)
        assert not row["regressed"]
        assert "unknown experiment" in row["warning"]
        table = format_comparison(rows)
        assert "X99" in table
        assert "warning" in table

    def test_unknown_and_missing_warnings_combine(self):
        rows = compare_payloads(
            _payload({"X99": 1.0}), _payload({})
        )
        (row,) = rows
        assert "unknown experiment" in row["warning"]
        assert "missing from baseline" in row["warning"]
        assert row["ratio"] is None

    def test_warning_surfaces_in_delta_table(self):
        current = _payload({"X99": 1.0})
        baseline = _payload({"X99": 0.9})
        rows = compare_payloads(current, baseline)
        table = comparison_delta_table(current, baseline, rows)
        assert "warning" in table["X99"]
        assert "unknown experiment" in table["X99"]["warning"]

    def test_errors_read_missing_in_baseline_and_regress_in_current(self):
        broken = _payload({"X4": 1.0})
        broken["experiments"]["X4"] = {
            "repeats": 1, "counters": {}, "error": "KeyError: 'x'",
        }
        (row,) = compare_payloads(_payload({"X4": 1.0}), broken)
        assert row["warning"] == "missing from baseline"
        assert not row["regressed"]
        (row,) = compare_payloads(broken, _payload({"X4": 1.0}))
        assert row["regressed"]
        assert row["ratio"] is None
        assert "KeyError" in row["warning"]
        with pytest.raises(BenchmarkRegression, match="X4"):
            assert_no_regressions([row])
        assert "REGRESSED" in format_comparison([row])

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_payloads(_payload({}), _payload({}), tolerance=-0.1)

    def test_assert_no_regressions_raises_with_names(self):
        rows = compare_payloads(
            _payload({"X4": 10.0}), _payload({"X4": 1.0})
        )
        with pytest.raises(BenchmarkRegression, match="X4"):
            assert_no_regressions(rows)
        assert_no_regressions([])

    def test_format_comparison_mentions_verdicts(self):
        rows = compare_payloads(
            _payload({"X1": 0.5, "X4": 10.0}),
            _payload({"X1": 0.5, "X4": 1.0}),
        )
        table = format_comparison(rows)
        assert "REGRESSED" in table
        assert "ok" in table
        assert "X4" in table


class TestPayloadIO:
    def test_save_load_roundtrip(self, tmp_path):
        payload = _payload({"X1": 0.125})
        path = str(tmp_path / "BENCH_test.json")
        save_payload(payload, path)
        assert load_payload(path) == payload

    def test_saved_json_is_stable(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        save_payload(_payload({"X1": 0.125}), path)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("\n")
        assert text == json.dumps(
            _payload({"X1": 0.125}), indent=2, sort_keys=True
        ) + "\n"

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "BENCH_bad.json")
        payload = _payload({})
        payload["schema"] = 99
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError):
            load_payload(path)

    def test_checked_in_payload_loads(self):
        """The committed BENCH_pr2.json stays loadable and claims the
        X4 speedup the acceptance gate requires on this hardware."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        payload = load_payload(os.path.join(root, "BENCH_pr2.json"))
        counters = payload["experiments"]["X4"]["counters"]
        assert counters["speedup_vs_reference"] >= 1.0

    def test_checked_in_pr6_payload_covers_the_service(self):
        """BENCH_pr6.json carries the X15 eviction-churn run and its
        fleet-scale bit-identity verdict."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        payload = load_payload(os.path.join(root, "BENCH_pr6.json"))
        counters = payload["experiments"]["X15"]["counters"]
        assert counters["all_tenants_detected"]
        assert counters["evictions"] > counters["tenants"] == 500
        rows = compare_payloads(payload, payload)
        assert not any(row["regressed"] for row in rows)

    def test_checked_in_pr7_payload_covers_columnar_matching(self):
        """BENCH_pr7.json carries the X16 columnar batch-matching run:
        a 10^6-event store matched bit-identically through both paths
        with at least the 5x speedup the acceptance gate requires."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        payload = load_payload(os.path.join(root, "BENCH_pr7.json"))
        counters = payload["experiments"]["X16"]["counters"]
        assert counters["identical_to_reference"]
        assert counters["events"] == 1_000_000
        assert counters["speedup"] >= 5.0
        rows = compare_payloads(payload, payload)
        assert not any(row["regressed"] for row in rows)

    def test_checked_in_pr9_payload_covers_batched_frontier(self):
        """BENCH_pr9.json carries the X17 batched frontier run: a
        64-candidate frontier scanned through the object, single-dense
        and batched paths with identical match sets and at least the
        3x speedup the acceptance gate requires."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        payload = load_payload(os.path.join(root, "BENCH_pr9.json"))
        counters = payload["experiments"]["X17"]["counters"]
        assert counters["identical_to_reference"]
        assert counters["candidates"] == 64
        assert counters["speedup_batched_vs_single_dense"] >= 3.0
        rows = compare_payloads(payload, payload)
        assert not any(row["regressed"] for row in rows)

    def test_checked_in_pr10_payload_covers_calendar_algebra(self):
        """BENCH_pr10.json carries the X18 calendar-algebra run:
        month/quarter/business-month TCG propagation and batched month
        clock matching, compiled vs sweep, bit-identical with at least
        the 5x clock-matching speedup the acceptance gate requires."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        payload = load_payload(os.path.join(root, "BENCH_pr10.json"))
        counters = payload["experiments"]["X18"]["counters"]
        assert counters["identical_to_sweep"]
        assert counters["propagation_identical_to_sweep"]
        assert counters["events"] == 20_000
        assert counters["speedup_clock_vs_sweep"] >= 5.0
        rows = compare_payloads(payload, payload)
        assert not any(row["regressed"] for row in rows)
