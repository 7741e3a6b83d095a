"""In-process measurements, run by ``run.py`` in a child interpreter.

``python perf/inproc.py warm [--rate R] -- mine|serve SPEC LOG FLAGS...``
parses the inputs once, makes one untimed call of what the command runs
- ``discover(...)`` with the CLI's arguments on the parsed sequence, or
``serve_events(...)`` with the CLI's service config on the parsed
records (fresh store each call) - prints ``{"ready": true}`` and then
answers requests read from stdin, one JSON line each: ``call`` makes
one timed call; ``loadgen`` drives a fresh service open loop at ``R``
events per second.  The caller spreads its requests over the whole run.

``python perf/inproc.py traced OUT.json --trace T.json -- COMMAND...``
runs ``repro.cli.main`` on the command under the ``perf.*`` wrappers of
:mod:`layers` and writes the per-layer metrics of the run to OUT.json.

Both report what the command produced, so the caller checks it against
the oracle exactly as it checks a cold launch.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
import json
import sys
import time

from repro.cli import _parse_count, build_parser
from repro.granularity.registry import standard_system
from repro.io.serialize import (
    complex_event_type_from_dict,
    load_json,
    problem_from_dict,
)


def _solution_lines(outcome) -> list:
    return sorted(
        "%.3f  %s" % (outcome.frequencies[cet],
                      json.dumps(cet.assignment, sort_keys=True))
        for cet in outcome.solutions
    )


def _mine(args):
    """The timed ``discover`` call, as a function of the parsed inputs."""
    from repro.io.csvlog import read_events
    from repro.mining.discovery import discover

    system = standard_system()
    problem = problem_from_dict(load_json(args.problem), system)
    sequence = read_events(args.events)

    def call():
        start = time.perf_counter()
        outcome = discover(
            problem,
            sequence,
            system,
            screen_depth=args.screen_depth,
            engine=args.engine,
            parallel=_parse_count(args.parallel, "--parallel"),
            shard_size=_parse_count(args.shard_size, "--shard-size"),
        )
        return {"seconds": time.perf_counter() - start,
                "output": _solution_lines(outcome)}

    return call, None


def _service_config(args):
    """The ServiceConfig ``repro serve`` builds from its arguments."""
    from repro.service import ServiceConfig

    if args.checkpoint_dir:
        # Each call needs a store of its own; a shared directory would
        # rehydrate the previous call's sessions.
        raise SystemExit("warm serve calls support the in-memory store only")
    return ServiceConfig(
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        max_resident_sessions=args.max_resident,
        checkpoint_interval=args.checkpoint_interval,
        max_lateness=args.max_lateness,
        horizon_seconds=args.horizon,
        max_live_anchors=args.max_live_anchors,
        overflow_policy=args.overflow_policy,
    )


def _served(service, refused: int = 0) -> dict:
    """What a finished service delivered, in the oracle's terms."""
    stats = service.stats()
    return {
        "detections": sorted(
            [found.tenant, found.key, found.detection.anchor_time]
            for found in service.detections
        ),
        "rejected": refused + stats["quarantined"] + sum(
            tenant["shed"] for tenant in stats["tenants"].values()
        ),
    }


async def _open_loop(build, records, config, system, rate: float) -> dict:
    """Send every record at its scheduled instant on this event loop.

    Latency runs from the scheduled instant to the return of ``submit``
    (which yields to the tenant worker, so the event has been fed).
    The generator sleeps until 1 ms before each instant and spins the
    rest, so timer overshoot shows up as lag, not as service time.
    Instants are on the ``time.monotonic()`` clock the caller's speed
    probes use.
    """
    from repro.service import DetectionService, TenantOverloadError

    service = DetectionService(build, config=config, system=system)
    clock = time.monotonic
    origin = clock() + 0.01
    dues, latencies, lags = [], [], []
    refused = 0
    for index, (tenant, key, etype, stamp) in enumerate(records):
        due = origin + index / rate
        ahead = due - clock()
        if ahead > 0.001:
            await asyncio.sleep(ahead - 0.001)
        while clock() < due:
            pass
        lags.append(clock() - due)
        try:
            await service.submit(tenant, key, etype, stamp)
        except TenantOverloadError:
            refused += 1
        dues.append(due)
        latencies.append(clock() - due)
    await service.flush()
    await service.close()
    result = _served(service, refused)
    lags.sort()
    result.update(due=dues, latency_s=latencies,
                  lag_p99_ms=lags[int(0.99 * (len(lags) - 1))] * 1e3)
    return result


def _serve(args, rate: float):
    """The timed ``serve_events`` call and the open-loop pass, as
    functions of the parsed inputs."""
    from repro.automata.builder import build_tag
    from repro.io.csvlog import read_tenant_events
    from repro.service import serve_events

    system = standard_system()
    cet = complex_event_type_from_dict(load_json(args.pattern), system)
    records = read_tenant_events(args.events)
    build = build_tag(cet, system=system)

    def call():
        config = _service_config(args)
        start = time.perf_counter()
        service = serve_events(build, records, config=config, system=system)
        return {"seconds": time.perf_counter() - start,
                "output": _served(service)}

    def loadgen():
        return asyncio.run(_open_loop(
            build, records, _service_config(args), system, rate
        ))

    return call, loadgen


def _warm(command: list, rate: float) -> None:
    """Answer ``call`` / ``loadgen`` requests until stdin closes."""
    replies = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints joins the replies
    args = build_parser().parse_args(command)
    call, loadgen = _serve(args, rate) if args.command == "serve" \
        else _mine(args)
    call()

    def reply(message) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    reply({"ready": True})
    for line in sys.stdin:
        request = line.strip()
        if request == "call":
            reply(call())
        elif request == "loadgen" and loadgen is not None:
            reply(loadgen())
        else:
            raise SystemExit("unknown request %r" % request)


def _traced(command: list, trace_path: str) -> dict:
    """Run the CLI in this process under the layer wrappers."""
    import layers
    from repro import cli, obs

    tracers = []

    class _KeptTracer(obs.Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    obs.Tracer = _KeptTracer  # cli.main imports it from repro.obs
    layers.install()
    before = obs.metrics_snapshot()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(command + ["--trace", trace_path])
    finished = time.perf_counter()
    deltas = obs.counter_deltas(before, obs.metrics_snapshot())
    selfs, counts, attrs = layers.self_times(tracers[0].roots)
    metrics = layers.layer_metrics(selfs, counts, attrs, deltas)
    return {
        "code": code,
        "stdout": printed.getvalue(),
        "metrics": metrics,
        "self_s": selfs,
        "post_s": time.perf_counter() - finished,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("warm", "traced"))
    parser.add_argument("out", nargs="?", help="result JSON file (traced)")
    parser.add_argument("--rate", type=float, default=0.0)
    parser.add_argument("--trace", help="trace file of the traced run")
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if args.mode == "warm":
        _warm(command, args.rate)
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(_traced(command, args.trace), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
