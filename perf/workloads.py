"""The benchmark's five workloads: seeded input generators and commands.

Each workload turns a seed into the files a user would hand the CLI -
``PROBLEM.json`` + ``LOG.csv`` for ``repro mine``, ``PATTERN.json`` +
``TENANTS.csv`` for ``repro serve`` - plus the flags of the command.
The same seed gives byte-identical files; the program never sees the
seed.  Every timestamp in a generated file is distinct, so the TAG
matchers and the Section-3 reference semantics agree on every input
(ties are the subject of a separate workload).

Sizes are fixed and the seed only moves events around: each event
stream is spread one event per equal stretch of time, and planted
patterns cover an exact, evenly spaced share of the roots.  The cost of
a workload therefore barely depends on the seed, and runs with
different seeds measure the same work.  ``scale`` shrinks a workload
for the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Bump when a generator changes what it writes (keys the input cache).
GENERATOR_VERSION = 1

DAY = 86400

#: The load generator sends at this share of a serve workload's
#: closed-loop capacity.  The build machine ran up to 1.9x slower at
#: times (see speed.py); at a quarter of capacity the service stays
#: under half load even then, so the p50 measures service time and not
#: queueing behind a slow stretch.
RATE_SHARE = 0.25


def _label(name: str) -> dict:
    return {"kind": "label", "label": name}


QUARTER = {
    "kind": "grouped",
    "label": "quarter",
    "base": _label("month"),
    "n": 3,
    "offset": 0,
}


def _arc(src: str, dst: str, m: int, n: int, gran: dict) -> dict:
    return {"from": src, "to": dst,
            "tcgs": [{"m": m, "n": n, "granularity": gran}]}


class _Timeline:
    """Hands out distinct timestamps: a taken second moves to the next."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken = set()

    def at(self, t: int) -> int:
        while t in self.taken:
            t += 1
        self.taken.add(t)
        return t

    def uniform(self, lo: int, hi: int) -> int:
        return self.at(self.rng.randrange(lo, hi))

    def spread(self, n: int, lo: int, hi: int) -> List[int]:
        """``n`` times, one uniform within each of ``n`` equal stretches."""
        size = (hi - lo) / n
        return [self.uniform(int(lo + k * size), int(lo + (k + 1) * size))
                for k in range(n)]

    def evenly(self, items: List[int], share: float) -> List[int]:
        """A ``share`` of ``items``, picked at even spacing from a random
        phase, so that the picked and the skipped ones both spread over
        the whole timeline."""
        phase = self.rng.random()
        return [item for index, item in enumerate(items)
                if int((index + 1) * share + phase)
                > int(index * share + phase)]


@dataclass
class Inputs:
    """One generated instance: the JSON spec and the event rows."""

    spec: dict
    rows: List[tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mine" or "serve"
    generate: object  # (rng, scale) -> Inputs
    flags: Tuple[str, ...] = ()
    #: Closed-loop capacity of a serve workload in events per reference
    #: second, measured once: events over the median ``warm_s``.
    capacity: float = 0.0
    #: Per-layer metrics a traced run of this workload leaves non-zero.
    fills: Tuple[str, ...] = ()

    @property
    def rate(self) -> float:
        """Open-loop send rate of the load generator, events/s."""
        return round(RATE_SHARE * self.capacity)

    def inputs(self, seed: int, scale: float = 1.0) -> Inputs:
        rng = random.Random("%s:%d:%d" % (self.name, seed, GENERATOR_VERSION))
        return self.generate(rng, scale)


def _chain_problem(types: int, minutes: int, confidence: float) -> dict:
    """A -> B within the same or next hour, B -> C within ``minutes``;
    B and C range over ``types`` candidate types each.

    ``minutes`` stays at 8 or more: propagation converts the B -> C
    bound to seconds and then to hours, and the direct conversion of
    a second interval shorter than the 512-tick size-table horizon
    claims ``[0, 0] hour`` (``repro convert 0 359 second hour``), which
    makes the depth-2 screen drop true solutions.
    """
    return {
        "structure": {
            "variables": ["A", "B", "C"],
            "constraints": [
                _arc("A", "B", 0, 1, _label("hour")),
                _arc("B", "C", 0, minutes, _label("minute")),
            ],
        },
        "min_confidence": confidence,
        "reference_type": "A",
        "candidates": {
            "B": ["B%d" % i for i in range(types)],
            "C": ["C%d" % i for i in range(types)],
        },
        "type_constraints": [],
    }


def _chain_events(rng, roots: int, types: int, per_type: int, noise: int,
                  span: int, planted: List[float],
                  noise_types: int) -> List[tuple]:
    """Roots, background B*/C* events, planted pairs and noise.

    Planted pair ``i`` puts a ``Bi`` within 50 minutes after a root and
    a ``Ci`` within two minutes after that ``Bi``, at a share
    ``planted[i]`` of the roots; every other (B, C) pair co-occurs only
    by chance, at well under the confidence threshold.
    """
    line = _Timeline(rng)
    starts = line.spread(roots, 0, span)
    events = [("A", t) for t in starts]
    for i, share in enumerate(planted):
        for t in line.evenly(starts, share):
            b = line.at(t + rng.randrange(0, 3000))
            events.append(("B%d" % i, b))
            events.append(("C%d" % i, line.at(b + rng.randrange(0, 120))))
    for i in range(types):
        for prefix in ("B", "C"):
            events.extend(
                (prefix + str(i), t) for t in line.spread(per_type, 0, span)
            )
    events.extend(
        ("N%d" % rng.randrange(noise_types), t)
        for t in line.spread(noise, 0, span)
    )
    events.sort(key=lambda e: e[1])
    return events


def _mine_screen(rng, scale: float) -> Inputs:
    events = _chain_events(
        rng,
        roots=max(4, round(80 * scale)),
        types=8,
        per_type=max(2, round(80 * scale)),
        noise=round(4500 * scale),
        span=max(DAY, int(6e5 * scale)),
        planted=[0.95, 0.9, 0.85],
        noise_types=20,
    )
    return Inputs(_chain_problem(8, 10, 0.6), events)


def _mine_scan(rng, scale: float) -> Inputs:
    events = _chain_events(
        rng,
        roots=max(4, round(700 * scale)),
        types=6,
        per_type=max(2, round(735 * scale)),
        noise=round(47600 * scale),
        span=max(DAY, int(32 * DAY * scale)),
        planted=[0.9, 0.8],
        noise_types=40,
    )
    return Inputs(_chain_problem(6, 10, 0.6), events)


def _business(t: int) -> int:
    """``t`` moved to the Monday after when it falls on a weekend (the
    timeline's day 0 is a Monday)."""
    weekday = (t // DAY) % 7
    return t + (7 - weekday) * DAY if weekday >= 5 else t


def _mine_calendar(rng, scale: float) -> Inputs:
    """Forty years of monthly roots under month/quarter/business-month TCGs.

    A -> B in the same or next month, B -> C in the same quarter, and
    A -> D in the same or next business month (D on a business day).
    """
    years = max(2, round(40 * scale))
    span = (DAY * 365 + DAY // 4) * years
    line = _Timeline(rng)
    # Roots on business days only: a weekend root can never satisfy the
    # business-month TCG, and a seed-dependent count of them would make
    # the scan's work depend on the seed.
    starts = [line.at(_business(t)) for t in line.spread(12 * years, 0, span)]
    events = [("A", t) for t in starts]
    for t in line.evenly(starts, 0.8):
        b = line.at(t + rng.randrange(0, 20 * DAY))
        events.append(("B0", b))
        events.append(("C0", line.at(b + rng.randrange(0, 2 * DAY))))
    for t in line.evenly(starts, 0.7):
        events.append(("D0", line.at(t + rng.randrange(0, 20 * DAY))))
    for prefix in ("B", "C", "D"):
        for i in range(4):
            events.extend(
                (prefix + str(i), t) for t in line.spread(5 * years, 0, span)
            )
    events.extend(
        ("N%d" % rng.randrange(10), t)
        for t in line.spread(100 * years, 0, span)
    )
    events.sort(key=lambda e: e[1])
    problem = {
        "structure": {
            "variables": ["A", "B", "C", "D"],
            "constraints": [
                _arc("A", "B", 0, 1, _label("month")),
                _arc("B", "C", 0, 0, QUARTER),
                _arc("A", "D", 0, 1, _label("business-month")),
            ],
        },
        "min_confidence": 0.4,
        "reference_type": "A",
        "candidates": {
            "B": ["B%d" % i for i in range(4)],
            "C": ["C%d" % i for i in range(4)],
            "D": ["D%d" % i for i in range(4)],
        },
        "type_constraints": [],
    }
    return Inputs(problem, events)


SERVE_PATTERN = {
    "structure": {
        "variables": ["A", "B", "C"],
        "constraints": [
            _arc("A", "B", 0, 1, _label("hour")),
            _arc("B", "C", 0, 5, _label("minute")),
        ],
    },
    "assignment": {"A": "A", "B": "B", "C": "C"},
}

#: Anchors expire after 2.5 hours: every occurrence of the pattern
#: completes within 2 h 6 min of its root, so the horizon drops nothing
#: and keeps each session's live anchors bounded.
SERVE_FLAGS = ("--horizon", "9000")

#: One 40-slot stretch of a resident tenant's stream: the A at slot 0
#: completes through the adjacent B, C at slots 8-9; the A at slot 12
#: sees its B's but no C within five minutes of one, and stays live
#: until the horizon drops it.  Slots are 4 minutes apart and jitter by
#: at most one, so which anchors complete never depends on the seed.
_RESIDENT_SLOTS = {0: "A", 8: "B", 9: "C", 12: "A", 20: "B", 24: "B", 34: "C"}


def _serve_resident(rng, scale: float) -> Inputs:
    """16 tenants, one session each, merged in time order."""
    per_tenant = max(40, round(200 * scale))
    line = _Timeline(rng)
    records = []
    for index in range(16):
        for slot in range(per_tenant):
            etype = _RESIDENT_SLOTS.get(slot % 40) or "N%d" % rng.randrange(5)
            t = line.at(slot * 240 + rng.randrange(60))
            records.append(("t%02d" % index, "k0", etype, t))
    records.sort(key=lambda r: r[3])
    return Inputs(SERVE_PATTERN, records)


def _zipf_counts(tenants: int, events: int, exponent: float) -> List[int]:
    """Events per popularity rank: Zipf shares rounded to whole events
    (the largest remainders round up)."""
    weights = [1 / (rank + 1) ** exponent for rank in range(tenants)]
    total = sum(weights)
    shares = [events * w / total for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(tenants), key=lambda i: counts[i] - shares[i])
    for rank in by_remainder[: events - sum(counts)]:
        counts[rank] += 1
    return counts


def _serve_churn(rng, scale: float) -> Inputs:
    """240 tenants with Zipf(0.5) popularity over one time-ordered feed.

    The tenant mix is a synthetic choice, not a model of real traffic:
    it is picked so that the typical event - the p50 - pays the churn
    path.  With 64 sessions resident, most events evict one session and
    rehydrate or create another.  (With a steeper popularity, such as
    Zipf(1.1) over 2000 tenants, half the events stay resident, the p50
    falls between the cheap and the costly events and jumps between
    them from run to run.)  Every popularity rank has a fixed event
    count, spread evenly over the feed from a fixed phase, so which
    ranks arrive, leave and come back is the same for every seed; the
    seed decides which tenant holds which rank, the event types and the
    times.
    """
    # Small instances keep more tenants than the 64 resident sessions.
    tenants = max(96, round(240 * scale))
    events = max(160, round(600 * scale))
    names = ["t%04d" % rank for rank in range(tenants)]
    rng.shuffle(names)
    slots = []
    for rank, count in enumerate(_zipf_counts(tenants, events, 0.5)):
        phase = rank * 0.6180339887 % 1
        slots.extend(((k + phase) / count, rank) for k in range(count))
    slots.sort()
    mix = ("A", "B", "B", "C", "C", "N", "N", "N", "N", "N")
    records = []
    t = 0
    for _, rank in slots:
        t += 1 + rng.randrange(30)
        etype = rng.choice(mix)
        if etype == "N":
            etype = "N%d" % rng.randrange(5)
        records.append((names[rank], "k0", etype, t))
    return Inputs(SERVE_PATTERN, records)


_MINE_FILLS = (
    "io.parse_s", "io.rows", "granularity.compile_s", "granularity.compiles",
    "constraints.propagate_s", "constraints.convert_s",
    "constraints.stp_close_s", "constraints.closures",
    "constraints.conversions", "automata.scan_s", "automata.events_scanned",
    "automata.tag_build_s", "automata.tag_builds", "store.columnar_build_s",
    "store.anchor_screen_s", "store.columnar_events", "mining.gate_s",
    "mining.reduce_s", "mining.screen1_s", "mining.scan_s",
    "mining.events_kept_ratio", "mining.candidates_evaluated",
    "mining.automaton_starts", "cli.self_s",
)
_SERVE_FILLS = (
    "io.parse_s", "io.rows", "automata.stream_feed_s",
    "automata.stream_events", "automata.tag_build_s", "automata.tag_builds",
    "service.route_s", "service.wal_append_s", "cli.self_s",
)

#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mine-screen",
            "mine",
            _mine_screen,
            fills=_MINE_FILLS + ("mining.screen2_s", "automata.structmatch_s",
                                 "automata.structmatch_calls"),
        ),
        Workload(
            "mine-scan",
            "mine",
            _mine_scan,
            flags=("--screen-depth", "1"),
            fills=_MINE_FILLS,
        ),
        Workload(
            "mine-calendar",
            "mine",
            _mine_calendar,
            flags=("--screen-depth", "1"),
            fills=_MINE_FILLS,
        ),
        Workload(
            "serve-resident",
            "serve",
            _serve_resident,
            flags=SERVE_FLAGS,
            # 3200 events / 0.2158 s, seeds 1-3 on the build machine.
            capacity=14829.0,
            fills=_SERVE_FILLS,
        ),
        Workload(
            "serve-churn",
            "serve",
            _serve_churn,
            flags=SERVE_FLAGS + ("--max-resident", "64"),
            # 600 events / 0.2228 s, seeds 1-3 on the build machine.
            capacity=2693.0,
            fills=_SERVE_FILLS + (
                "service.rehydrate_s", "service.checkpoint_s",
                "service.rehydrate_ratio", "service.checkpoints_written",
            ),
        ),
    )
}


def write_inputs(inputs: Inputs, kind: str, spec_path: str, log_path: str,
                 header_only: bool = False) -> None:
    """Write the JSON spec and the CSV log a workload hands the CLI."""
    import json

    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(inputs.spec, handle, indent=1, sort_keys=True)
    with open(log_path, "w", encoding="utf-8", newline="") as handle:
        if kind == "mine":
            handle.write("event_type,timestamp\n")
            if not header_only:
                handle.writelines("%s,%d\n" % row for row in inputs.rows)
        else:
            handle.write("tenant,event_type,timestamp,sequence_key\n")
            if not header_only:
                handle.writelines(
                    "%s,%s,%d,%s\n" % (tenant, etype, t, key)
                    for tenant, key, etype, t in inputs.rows
                )
