"""Synthetic event-sequence generators.

The paper's motivating workloads (stock ticks, ATM transactions,
industrial plant logs) are not published datasets; these generators
produce the closest synthetic equivalents: background noise streams plus
*planted* occurrences of a complex event type at a controlled
confidence, which exercises exactly the code paths the paper's
data-mining procedure runs on.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..constraints.structure import ComplexEventType
from ..granularity.registry import GranularitySystem
from .events import Event, EventSequence
from .pruning import consistency_gate, seconds_windows


def random_noise(
    types: Sequence[str],
    start: int,
    stop: int,
    count: int,
    rng: random.Random,
    align: int = 60,
) -> List[Event]:
    """``count`` uniformly random events of random types in [start, stop].

    Timestamps are aligned to ``align`` seconds (minutes by default),
    which keeps generated data realistic for tick-style feeds.
    """
    if stop < start:
        raise ValueError("empty noise window")
    events = []
    for _ in range(count):
        t = rng.randrange(start, stop + 1)
        events.append(Event(rng.choice(list(types)), t - t % align))
    return events


def sample_instance(
    complex_event_type: ComplexEventType,
    system: GranularitySystem,
    root_time: int,
    rng: random.Random,
    attempts: int = 500,
    align: int = 60,
) -> Optional[List[Event]]:
    """Sample events realising one occurrence with the root at a time.

    Uses the propagated second-windows as sampling envelopes and
    rejection-samples each variable against the actual TCGs.  Returns
    None when no realisation is found within the attempt budget (e.g.
    the root time sits badly within the calendar); callers simply try
    another root time.
    """
    structure = complex_event_type.structure
    windows = instance_windows(structure, system)
    order = structure.topological_order()
    assert order is not None

    for _ in range(attempts):
        times: Dict[str, int] = {structure.root: root_time}
        ok = True
        for variable in order[1:]:
            lo, hi = windows.get(variable, (0, 0))
            lo += root_time
            hi += root_time
            lo = max(
                lo,
                max(
                    times[p]
                    for p in structure.predecessors(variable)
                    if p in times
                ),
            )
            if lo > hi:
                ok = False
                break
            placed = False
            for _ in range(40):
                t = rng.randrange(lo, hi + 1)
                t -= t % align
                if t < lo:
                    t += align
                if t > hi:
                    t = lo
                if _satisfies_parents(structure, times, variable, t):
                    times[variable] = t
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok and structure.is_satisfied_by(times):
            return [
                Event(complex_event_type.event_type(v), times[v])
                for v in order
            ]
    return None


_WINDOW_CACHE: "weakref.WeakKeyDictionary" = None  # initialised below


def instance_windows(structure, system) -> Dict[str, Tuple[int, int]]:
    """Second-granularity windows root -> variable (cached per object).

    Cached in nested weak dictionaries so entries die with their
    structure/system objects (no id-reuse hazards).
    """
    global _WINDOW_CACHE
    if _WINDOW_CACHE is None:
        _WINDOW_CACHE = weakref.WeakKeyDictionary()
    per_system = _WINDOW_CACHE.get(structure)
    if per_system is None:
        per_system = weakref.WeakKeyDictionary()
        _WINDOW_CACHE[structure] = per_system
    cached = per_system.get(system)
    if cached is not None:
        return cached
    consistent, result = consistency_gate(structure, system)
    if not consistent:
        raise ValueError("cannot sample from an inconsistent structure")
    windows = seconds_windows(result)
    for variable in structure.variables:
        if variable != structure.root and variable not in windows:
            raise ValueError(
                "no finite second window for %r; add constraints"
                % (variable,)
            )
    per_system[system] = windows
    return windows


def _satisfies_parents(structure, times, variable, t) -> bool:
    for pred in structure.predecessors(variable):
        if pred in times:
            for tcg in structure.tcgs(pred, variable):
                if not tcg.is_satisfied(times[pred], t):
                    return False
    return True


def planted_sequence(
    complex_event_type: ComplexEventType,
    system: GranularitySystem,
    n_roots: int,
    confidence: float,
    rng: random.Random,
    noise_types: Sequence[str] = (),
    noise_events_per_root: int = 5,
    root_spacing_seconds: int = 30 * 86400,
    start_time: int = 0,
) -> Tuple[EventSequence, int]:
    """A sequence with ``n_roots`` root events, a ``confidence`` fraction
    of which anchor a full planted occurrence.

    Returns the sequence and the number of *complete* plants (the ground
    truth for precision/recall experiments).  Root events are spaced
    ``root_spacing_seconds`` apart with jitter; background noise is
    sprinkled around each root.
    """
    if not 0 <= confidence <= 1:
        raise ValueError("confidence must be within [0, 1]")
    structure = complex_event_type.structure
    root_type = complex_event_type.event_type(structure.root)
    events: List[Event] = []
    planted = 0
    want_complete = round(n_roots * confidence)
    for i in range(n_roots):
        base = start_time + i * root_spacing_seconds
        root_time = base + rng.randrange(0, root_spacing_seconds // 4)
        root_time -= root_time % 60
        complete = planted < want_complete
        if complete:
            # Some root positions cannot anchor an instance (e.g. a
            # weekend for business-day constraints); retry a few spots.
            instance = None
            for _ in range(12):
                instance = sample_instance(
                    complex_event_type, system, root_time, rng
                )
                if instance is not None:
                    break
                root_time = base + rng.randrange(
                    0, root_spacing_seconds // 4
                )
                root_time -= root_time % 60
            if instance is None:
                complete = False
            else:
                events.extend(instance)
                planted += 1
        if not complete:
            events.append(Event(root_type, root_time))
        if noise_types:
            events.extend(
                random_noise(
                    noise_types,
                    base,
                    base + root_spacing_seconds - 1,
                    noise_events_per_root,
                    rng,
                )
            )
    return EventSequence(events), planted


# ----------------------------------------------------------------------
# Domain-flavoured generators (the paper's motivating applications)
# ----------------------------------------------------------------------

STOCK_TYPES = (
    "IBM-rise",
    "IBM-fall",
    "HP-rise",
    "HP-fall",
    "IBM-earnings-report",
)

ATM_TYPES = (
    "deposit",
    "withdrawal",
    "balance-check",
    "card-retained",
    "large-withdrawal",
)

PLANT_TYPES = (
    "sensor-overheat",
    "valve-open",
    "pressure-drop",
    "malfunction",
    "shutdown",
)


def stock_sequence(
    days: int, rng: random.Random, events_per_day: int = 8
) -> EventSequence:
    """Stock-style feed: rises/falls on a 15-minute grid during b-days,
    occasional earnings reports - the Example 1 backdrop."""
    events = []
    for day in range(days):
        if day % 7 in (5, 6):
            continue  # markets closed on weekends
        open_t = day * 86400 + 9 * 3600 + 1800  # 09:30
        for _ in range(events_per_day):
            offset = rng.randrange(0, 26) * 900  # 15-minute grid, 6.5h
            etype = rng.choice(STOCK_TYPES[:4])
            events.append(Event(etype, open_t + offset))
        if rng.random() < 0.05:
            events.append(
                Event("IBM-earnings-report", open_t + 7 * 3600)
            )
    return EventSequence(events)


def atm_sequence(
    days: int, rng: random.Random, events_per_day: int = 12
) -> EventSequence:
    """ATM transaction log: dense, around-the-clock activity."""
    events = []
    for day in range(days):
        for _ in range(events_per_day):
            t = day * 86400 + rng.randrange(0, 86400)
            weights = [0.3, 0.4, 0.2, 0.02, 0.08]
            etype = rng.choices(ATM_TYPES, weights=weights)[0]
            events.append(Event(etype, t - t % 60))
    return EventSequence(events)


def plant_log_sequence(
    days: int, rng: random.Random, events_per_day: int = 6
) -> EventSequence:
    """Industrial plant log with sporadic malfunction cascades."""
    events = []
    for day in range(days):
        for _ in range(events_per_day):
            t = day * 86400 + rng.randrange(0, 86400)
            etype = rng.choices(PLANT_TYPES, weights=[3, 3, 2, 1, 1])[0]
            events.append(Event(etype, t - t % 60))
    return EventSequence(events)
