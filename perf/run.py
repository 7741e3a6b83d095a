"""The repository benchmark: whole ``repro mine`` / ``repro serve`` runs.

Usage (from the root of a checkout)::

    python3 perf/run.py --workload mine-screen --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --workload all --seed 1 --out runs.json
    python3 perf/run.py --workload serve-churn --seed 1 --trace 1

For each workload the inputs are generated from the seed (cached with
their oracle answers under ``.perfcache/``, not timed) and the command
is measured in fresh child processes - see README.md for every metric.
Each output is checked against :mod:`oracle`.  One line per metric is
printed as ``workload metric value unit``; the last line is a JSON
summary ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of one
extra traced launch.  ``--out FILE`` appends the full record of the run
to FILE for ``compare.py``.  The exit code is 1 when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter
from statistics import median
from typing import Dict, List

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
CACHE = os.path.join(ROOT, ".perfcache")

sys.path.insert(0, PERF)

import layers  # noqa: E402
import oracle  # noqa: E402
from launch import Resident, launch  # noqa: E402
from speed import Probe, pin_to_one_core  # noqa: E402
from workloads import GENERATOR_VERSION, WORKLOADS, write_inputs  # noqa: E402

#: The least number of measuring rounds in a run; these first rounds
#: also make one setup launch each (see measure()).
ROUNDS = 5
#: An open-loop event's latency is scaled by the speed probes that ran
#: within this many seconds of its send instant (about five).
EVENT_WINDOW_S = 0.05
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
)
UNITS = dict(END_TO_END + layers.PER_LAYER)

_DETECTION = re.compile(
    r"^(.*)/(.*)#\d+(?: \(replayed\))?: detected anchor t=(\d+) at t=\d+: "
)
_SUMMARY = re.compile(r"quarantined (\d+), shed (\d+)")


def prepare(workload, seed: int) -> Dict[str, object]:
    """The cached input files and oracle answers of (workload, seed)."""
    where = os.path.join(CACHE, "inputs", "%s-s%d-g%d" % (
        workload.name, seed, GENERATOR_VERSION))
    if not os.path.isdir(where):
        os.makedirs(os.path.dirname(where), exist_ok=True)
        staging = tempfile.mkdtemp(dir=os.path.dirname(where))
        inputs = workload.inputs(seed)
        paths = [os.path.join(staging, name)
                 for name in ("spec.json", "log.csv", "header.csv")]
        write_inputs(inputs, workload.kind, paths[0], paths[1])
        write_inputs(inputs, workload.kind, paths[0], paths[2],
                     header_only=True)
        if workload.kind == "mine":
            expected = {"lines": oracle.mine_lines(inputs.spec, inputs.rows)}
        else:
            detections = oracle.serve_detections(inputs.spec, inputs.rows)
            expected = {
                "detections": [list(d) for d in detections],
                "events": len(inputs.rows),
            }
        with open(os.path.join(staging, "expected.json"), "w") as handle:
            json.dump(expected, handle)
        try:
            os.rename(staging, where)
        except OSError:  # another run cached it first
            shutil.rmtree(staging)
    with open(os.path.join(where, "expected.json")) as handle:
        expected = json.load(handle)
    return {
        "spec": os.path.join(where, "spec.json"),
        "log": os.path.join(where, "log.csv"),
        "header": os.path.join(where, "header.csv"),
        "expected": expected,
    }


def _mismatches(expected: list, got: list) -> int:
    want, have = Counter(map(tuple, expected)), Counter(map(tuple, got))
    return sum(((want - have) + (have - want)).values())


class Checker:
    """Counts operations and the ones whose result is wrong.

    For mine an operation is one command (a launch or an in-process
    call); it fails on a non-zero exit or on output that differs from
    the oracle.  For serve an operation is one event; it fails when it
    is refused, shed or quarantined, and every missing or extra
    detection is one more failure.
    """

    def __init__(self, kind: str, expected: dict):
        self.kind = kind
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def _count(self, ops: int, failed: int) -> None:
        self.attempted += ops
        self.failed += min(ops, failed)

    def mine(self, code: int, lines: List[str], empty: bool = False) -> None:
        want = [] if empty else self.expected["lines"]
        self._count(1, int(code != 0 or sorted(lines) != want))

    def serve(self, code: int, detections: list, rejected: int,
              empty: bool = False) -> None:
        events = 1 if empty else self.expected["events"]
        if code != 0:
            self._count(events, events)
            return
        want = [] if empty else self.expected["detections"]
        self._count(events, rejected + _mismatches(want, detections))

    def printed(self, code: int, stdout: str, stderr: str,
                empty: bool = False) -> None:
        """Check what a CLI command printed."""
        if self.kind == "mine":
            self.mine(code, [line for line in stdout.splitlines() if line],
                      empty)
            return
        detections = [
            [m.group(1), m.group(2), int(m.group(3))]
            for m in map(_DETECTION.match, stdout.splitlines()) if m
        ]
        summary = _SUMMARY.search(stderr)
        rejected = int(summary.group(1)) + int(summary.group(2)) \
            if summary else 0
        self.serve(code, detections, rejected, empty)


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    """All measurements of one workload run (see README.md)."""
    files = prepare(workload, seed)
    check = Checker(workload.kind, files["expected"])
    scratch = tempfile.mkdtemp(dir=CACHE)
    flags = list(workload.flags)
    command = [workload.kind, files["spec"], files["log"]] + flags
    header = [workload.kind, files["spec"], files["header"]] + flags
    inproc = os.path.join(PERF, "inproc.py")

    def cold(argv: List[str], empty: bool = False):
        run = launch(["-m", "repro.cli"] + argv, ROOT, scratch)
        check.printed(run.returncode, run.stdout, run.stderr, empty)
        return run

    # Every timed sample, as (measured value, start, end) on the
    # time.monotonic() clock the speed probes share - see speed.py.
    windows: Dict[str, list] = {"setup_s": [], "wall_s": [], "warm_s": []}
    rss, passes = [], []

    def timed(metric: str, measure) -> None:
        start = time.monotonic()
        value = measure()
        windows[metric].append((value, start, time.monotonic()))

    def cold_command() -> float:
        run = cold(command)
        rss.append(run.rss_mb)
        return run.wall_s

    def warm_call(resident) -> float:
        reply = resident.request("call")
        if workload.kind == "mine":
            check.mine(0, reply["output"])
        else:
            check.serve(0, reply["output"]["detections"],
                        reply["output"]["rejected"])
        return reply["seconds"]

    def open_loop(resident) -> None:
        passes.append(resident.request("loadgen"))
        check.serve(0, passes[-1]["detections"], passes[-1]["rejected"])

    layer = None
    try:
        with Probe(scratch) as probe, \
                Resident([inproc, "warm", "--rate", str(workload.rate), "--"]
                         + command, ROOT, scratch) as resident:
            cold(header, empty=True)  # warms the OS file cache
            started = time.perf_counter()
            # Rounds of one cold launch, one warm call and, for serve,
            # one open-loop pass, until the time budget is spent.  The
            # first rounds also make one setup launch each.
            rounds = 0
            while rounds < ROUNDS or time.perf_counter() - started \
                    + (time.perf_counter() - started) / rounds <= seconds:
                if rounds < ROUNDS:
                    timed("setup_s", lambda: cold(header, empty=True).wall_s)
                timed("wall_s", cold_command)
                timed("warm_s", lambda: warm_call(resident))
                if workload.rate:
                    open_loop(resident)
                rounds += 1
            if traced:
                result = os.path.join(scratch, "traced.json")
                start = time.monotonic()
                run = launch([inproc, "traced", result, "--trace",
                              os.path.join(scratch, "trace.json"), "--"]
                             + command, ROOT, scratch)
                traced_window = (start, time.monotonic())
                if run.returncode != 0:
                    raise RuntimeError("traced run failed:\n%s" % run.stderr)
                with open(result) as handle:
                    layer = json.load(handle)
                check.printed(layer["code"], layer["stdout"], run.stderr)
        # Each sample with its factor to reference seconds, and each
        # open-loop event's latency in reference ms, scaled by the
        # probes around its send instant.
        samples = {
            metric: [(value, probe.factor(start, end))
                     for value, start, end in taken]
            for metric, taken in windows.items()
        }
        latencies = sorted(
            latency * 1e3 * probe.factor(due - EVENT_WINDOW_S,
                                         due + EVENT_WINDOW_S)
            for sent in passes
            for due, latency in zip(sent["due"], sent["latency_s"])
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def reference(metric: str) -> float:
        return median(value * factor for value, factor in samples[metric])

    metrics = {
        "wall_s": reference("wall_s"),
        "setup_s": reference("setup_s"),
        "warm_s": reference("warm_s"),
        "peak_rss_mb": median(rss),
    }
    if latencies:
        metrics["latency_p50_ms"] = median(latencies)
    if layer is not None:
        factor = probe.factor(*traced_window)
        metrics.update(
            (name, value * factor if UNITS[name] == "s" else value)
            for name, value in layer["metrics"].items()
        )
        metrics["obs.trace_overhead_frac"] = \
            (run.wall_s - layer["post_s"]) * factor / metrics["wall_s"] - 1
        metrics["loadgen.lag_p99_ms"] = \
            median(sent["lag_p99_ms"] for sent in passes) if passes else 0
        metrics["loadgen.latency_p99_ms"] = \
            latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0
        metrics["loadgen.samples"] = len(latencies)
        metrics["host.slowdown"] = median(
            probe.slowdown(start, end)
            for taken in windows.values() for _, start, end in taken)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
        "samples": dict(samples, peak_rss_mb=rss),
        "self_s": layer["self_s"] if layer else {},
    }


def _summary_value(metrics: dict, metric: str) -> float:
    """A metric of the JSON summary line, which holds every end-to-end
    metric for every workload.  A mine workload has no open loop: its
    one operation is the whole command, so its ``latency_p50_ms`` is
    the same measurement as ``wall_s``, in ms.  Run records and
    compare.py leave it out, so it is judged once."""
    if metric == "latency_p50_ms" and metric not in metrics:
        return metrics["wall_s"] * 1e3
    return metrics[metric]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark whole repro mine/serve commands."
    )
    parser.add_argument(
        "--workload", default="all",
        help="comma-separated workload names, or 'all' (%s)"
        % ", ".join(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measuring time per workload: rounds of measurements are "
        "added until it is spent",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: add one traced launch and report per-layer metrics",
    )
    parser.add_argument("--out",
                        help="append the run records to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: no program to measure at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" \
        else args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error("unknown workload(s): %s" % ", ".join(unknown))
    os.makedirs(CACHE, exist_ok=True)
    pin_to_one_core()
    # A terminated run unwinds like an exception, so launch() stops the
    # child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    traced = bool(args.trace)
    records = []
    for name in names:
        record = measure(WORKLOADS[name], args.seed, args.seconds, traced)
        records.append(record)
        for metric, value in record["metrics"].items():
            print("%s %s %r %s" % (name, metric, value, UNITS[metric]))
        print("%s failed_frac %r ratio" % (
            name, record["failed"] / record["attempted"]))
        sys.stdout.flush()

    if args.out:
        previous = {"runs": []}
        if os.path.isfile(args.out):
            with open(args.out) as handle:
                previous = json.load(handle)
        previous["runs"].extend(records)
        with open(args.out, "w") as handle:
            json.dump(previous, handle, indent=1)

    reported = layers.PER_LAYER if traced else END_TO_END
    prefix = len(records) > 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            ("%s:%s" % (r["workload"], metric) if prefix else metric):
            {"value": _summary_value(r["metrics"], metric), "unit": unit}
            for r in records
            for metric, unit in reported
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
