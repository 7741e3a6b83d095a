"""Expected answers for the benchmark workloads, computed without repro.

The oracle re-implements the paper's semantics from their definitions
so that the benchmark can check the program's output against something
other than the program itself:

* a granularity maps a second ``t`` to a tick index or to nothing (a
  gap).  Minutes and hours divide (``t // seconds_per_tick``); month
  and business-month ticks come from :mod:`datetime`; a grouped type
  (the quarter) divides its base ticks;
* a TCG ``[m, n] G`` holds between ``t1`` and ``t2`` iff ``t1 <= t2``,
  both are covered by ``G`` and ``m <= tick(t2) - tick(t1) <= n``
  (Section 2);
* a complex event type occurs at a root event iff its variables can be
  bound one-to-one to events of the assigned types so that every TCG
  holds (Section 3).  Candidates for a variable are found by bisecting
  the sorted times of its type inside the window its bound predecessors
  allow, then checked exactly.  The workloads are tie-free, so an
  event is identified by its type and time.

The timeline starts at 2000-01-01 00:00:00, which the program declares
a Monday; business days are therefore day indices ``d`` with
``d % 7 < 5``, not what :meth:`datetime.date.weekday` says.
"""

from __future__ import annotations

import datetime
import itertools
import json
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

SECONDS_PER_DAY = 86400
EPOCH = datetime.date(2000, 1, 1)


def _day_of(t: int) -> datetime.date:
    return EPOCH + datetime.timedelta(days=t // SECONDS_PER_DAY)


def _seconds_of(day: datetime.date) -> int:
    return (day - EPOCH).days * SECONDS_PER_DAY


class Uniform:
    """Ticks of ``seconds_per_tick`` seconds from second 0."""

    def __init__(self, seconds_per_tick: int):
        self.size = seconds_per_tick

    def tick(self, t: int) -> Optional[int]:
        return t // self.size

    def first(self, k: int) -> int:
        return k * self.size

    def last(self, k: int) -> int:
        return self.first(k + 1) - 1


class Month:
    """Calendar months; ``business`` leaves weekend days uncovered (the
    business-month type)."""

    def __init__(self, business: bool = False):
        self.business = business

    def tick(self, t: int) -> Optional[int]:
        if self.business and (t // SECONDS_PER_DAY) % 7 >= 5:
            return None
        day = _day_of(t)
        return (day.year - 2000) * 12 + day.month - 1

    def first(self, k: int) -> int:
        return _seconds_of(datetime.date(2000 + k // 12, k % 12 + 1, 1))

    def last(self, k: int) -> int:
        return self.first(k + 1) - 1


class Grouped:
    """``n`` consecutive base ticks per tick, from base tick ``offset``."""

    def __init__(self, base, n: int, offset: int = 0):
        self.base = base
        self.n = n
        self.offset = offset

    def tick(self, t: int) -> Optional[int]:
        b = self.base.tick(t)
        if b is None or b < self.offset:
            return None
        return (b - self.offset) // self.n

    def first(self, k: int) -> int:
        return self.base.first(self.offset + k * self.n)

    def last(self, k: int) -> int:
        return self.base.last(self.offset + k * self.n + self.n - 1)


_LABELS = {
    "minute": lambda: Uniform(60),
    "hour": lambda: Uniform(3600),
    "month": lambda: Month(),
    "business-month": lambda: Month(business=True),
}


def granularity(spec: dict):
    """The oracle type for a granularity payload of the workloads."""
    kind = spec["kind"]
    if kind == "label" and spec["label"] in _LABELS:
        return _LABELS[spec["label"]]()
    if kind == "grouped":
        return Grouped(granularity(spec["base"]), int(spec["n"]),
                       int(spec.get("offset", 0)))
    raise ValueError("the oracle does not model granularity %r" % (spec,))


def tcg_holds(tcg: Tuple[int, int, object], t1: int, t2: int) -> bool:
    """Section 2: order, coverage, and tick distance within ``[m, n]``."""
    m, n, gran = tcg
    if t1 > t2:
        return False
    k1 = gran.tick(t1)
    k2 = gran.tick(t2)
    return k1 is not None and k2 is not None and m <= k2 - k1 <= n


class Structure:
    """A rooted event structure: variables, arcs and their TCGs."""

    def __init__(self, payload: dict):
        self.variables: List[str] = list(payload["variables"])
        self.arcs: Dict[Tuple[str, str], List[Tuple[int, int, object]]] = {}
        for arc in payload["constraints"]:
            self.arcs[(arc["from"], arc["to"])] = [
                (int(c["m"]), int(c["n"]), granularity(c["granularity"]))
                for c in arc["tcgs"]
            ]
        targets = {dst for _, dst in self.arcs}
        roots = [v for v in self.variables if v not in targets]
        if len(roots) != 1:
            raise ValueError("a structure has exactly one root")
        self.root = roots[0]
        self.order = self._topological_order()
        # For each variable after the root: its arcs to earlier variables.
        self.incoming = {
            v: [(src, tcgs) for (src, dst), tcgs in self.arcs.items()
                if dst == v]
            for v in self.variables
        }

    def _topological_order(self) -> List[str]:
        order = [self.root]
        while len(order) < len(self.variables):
            for v in self.variables:
                if v in order:
                    continue
                preds = [src for (src, dst) in self.arcs if dst == v]
                if all(p in order for p in preds):
                    order.append(v)
                    break
            else:
                raise ValueError("the structure has a cycle")
        return order


def occurs(
    structure: Structure,
    assignment: Dict[str, str],
    times_by_type: Dict[str, List[int]],
    t0: int,
) -> bool:
    """Is there an occurrence whose root is the event at time ``t0``?"""
    order = structure.order
    bound = {structure.root: t0}
    used = {(assignment[structure.root], t0)}

    def extend(depth: int) -> bool:
        if depth == len(order):
            return True
        variable = order[depth]
        etype = assignment[variable]
        times = times_by_type.get(etype)
        if not times:
            return False
        lo, hi = 0, None
        for src, tcgs in structure.incoming[variable]:
            ts = bound[src]
            lo = max(lo, ts)
            for m, n, gran in tcgs:
                k = gran.tick(ts)
                if k is None:
                    return False
                lo = max(lo, gran.first(k + m))
                top = gran.last(k + n)
                hi = top if hi is None else min(hi, top)
        start = bisect_left(times, lo)
        stop = bisect_right(times, hi) if hi is not None else len(times)
        for t in times[start:stop]:
            if (etype, t) in used:
                continue
            if not all(
                tcg_holds(tcg, bound[src], t)
                for src, tcgs in structure.incoming[variable]
                for tcg in tcgs
            ):
                continue
            bound[variable] = t
            used.add((etype, t))
            if extend(depth + 1):
                return True
            del bound[variable]
            used.discard((etype, t))
        return False

    return extend(1)


def times_by_type(events: Iterable[Tuple[str, int]]) -> Dict[str, List[int]]:
    """Sorted timestamps per event type."""
    table: Dict[str, List[int]] = {}
    for etype, t in events:
        table.setdefault(etype, []).append(t)
    for times in table.values():
        times.sort()
    return table


def candidate_assignments(problem: dict,
                          occurring: Set[str]) -> List[Dict[str, str]]:
    """Every assignment the discovery problem admits (Section 5)."""
    if problem.get("type_constraints"):
        raise ValueError("the oracle does not model type constraints")
    structure = problem["structure"]
    root = Structure(structure).root
    variables = [v for v in structure["variables"] if v != root]
    pools = []
    for variable in variables:
        pool = problem.get("candidates", {}).get(variable)
        allowed = set(pool) if pool is not None else set(occurring)
        pools.append(sorted(allowed & occurring))
    out = []
    for combo in itertools.product(*pools):
        assignment = dict(zip(variables, combo))
        assignment[root] = problem["reference_type"]
        out.append(assignment)
    return out


def support(
    structure: Structure,
    assignment: Dict[str, str],
    table: Dict[str, List[int]],
) -> int:
    """Root occurrences anchoring at least one occurrence."""
    return sum(
        1
        for t0 in table.get(assignment[structure.root], ())
        if occurs(structure, assignment, table, t0)
    )


def mine_lines(problem: dict, events: Sequence[Tuple[str, int]]) -> List[str]:
    """The solution lines ``repro mine`` prints, sorted.

    A solution is an assignment whose frequency - supported roots over
    all roots of the reference type - exceeds ``min_confidence``.
    """
    structure = Structure(problem["structure"])
    table = times_by_type(events)
    total = len(table.get(problem["reference_type"], ()))
    threshold = float(problem["min_confidence"])
    lines = []
    if total == 0:
        return lines
    for assignment in candidate_assignments(problem, set(table)):
        frequency = support(structure, assignment, table) / total
        if frequency > threshold:
            lines.append(
                "%.3f  %s"
                % (frequency, json.dumps(assignment, sort_keys=True))
            )
    return sorted(lines)


def serve_detections(
    pattern: dict, records: Sequence[Tuple[str, str, str, int]]
) -> List[Tuple[str, str, int]]:
    """Sorted ``(tenant, key, anchor_time)`` of every expected detection.

    Each ``(tenant, key)`` session sees only its own events; every root
    event with an occurrence among them is detected once.
    """
    structure = Structure(pattern["structure"])
    assignment = pattern["assignment"]
    sessions: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for tenant, key, etype, t in records:
        sessions.setdefault((tenant, key), []).append((etype, t))
    found = []
    for (tenant, key), events in sessions.items():
        table = times_by_type(events)
        for t0 in table.get(assignment[structure.root], ()):
            if occurs(structure, assignment, table, t0):
                found.append((tenant, key, t0))
    return sorted(found)
