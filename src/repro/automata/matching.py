"""Anchored TAG matching over stored event sequences (Theorem 4).

The reference matcher follows the paper's NDFA simulation: it
maintains the set of reachable configurations (state + clock
valuation), feeding one event at a time.  Configuration count is
bounded by ``min(|sigma|, (|V| K)^p)`` per the theorem; deduplication
by ``(state, reset times)`` and an optional time horizon keep the set
small in practice.  It is what the differential suites hold production
against, and the source of the Theorem-4 work figures
(``peak_configurations``, ``events_scanned``) the X6/X10 benchmarks
report.

Production matching - :meth:`TagMatcher.occurs_at`,
:meth:`~TagMatcher.matching_roots` and friends, and the mining scan
over whole candidate frontiers (:mod:`repro.parallel.engine`) - runs
the same decisions as banks of dense transition tables over the
sequence's columnar view (:class:`~repro.automata.dense.BatchRuntime`,
advanced by the one kernel streaming also runs); a single pattern is
its build's bank of one, compiled once per
:class:`~repro.automata.builder.TagBuild`.

``strict=True`` reproduces the letter of the paper's run definition:
any event whose timestamp is uncovered by some clock granularity kills
every run - *including* events whose own constraints never mention
that granularity, so strict matching under-counts genuine complex
events (a measured errata of Theorem 3's equivalence claim; see
experiment X10).  The default lazy semantics only requires coverage at
the events a guard actually inspects and recognises exactly the
paper's binding semantics; the two coincide on sequences whose events
are covered by every clock granularity.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .builder import TagBuild
from .dense import MAX_CONFIGURATIONS, BatchRuntime
from .tag import ANY, Configuration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..mining.events import EventSequence

#: Member ids of a one-member bank.
_ONLY = (0,)


class _LazyValuation:
    """Mapping-like clock valuation computed on demand.

    Guards typically mention a couple of the automaton's clocks; this
    avoids evaluating every clock for every configuration and event
    (the matcher's hottest loop).
    """

    __slots__ = ("clocks", "reset_times", "now", "_cache")

    def __init__(self, clocks, reset_times, now):
        self.clocks = clocks
        self.reset_times = reset_times
        self.now = now
        self._cache = {}

    def get(self, name, default=None):
        if name in self._cache:
            return self._cache[name]
        clock = self.clocks.get(name)
        if clock is None:
            return default
        value = clock.value(self.reset_times[name], self.now)
        self._cache[name] = value
        return value


@dataclass
class MatchResult:
    """Outcome of matching one root occurrence.

    ``bindings`` maps variables to the timestamps of the events that
    realised them in some accepting run (None when not matched).  The
    work figures are the reference's only report: it never touches the
    production ``repro_tag_*`` counters.
    """

    matched: bool
    bindings: Optional[Dict[str, int]]
    events_scanned: int
    peak_configurations: int


class TagMatcher:
    """Run a built TAG against event sequences.

    Every production query runs the build's one-member bank in a
    :class:`~repro.automata.dense.BatchRuntime`, cached per columnar
    view; the object NDFA simulation stays beside it as the reference.

    Parameters
    ----------
    build:
        The result of :func:`repro.automata.builder.build_tag`.
    strict:
        Use the paper's strict run semantics (see module docstring).
    horizon_seconds:
        If set, matching started at root time ``t0`` stops scanning
        events after ``t0 + horizon_seconds``; sound when the value is
        an upper bound on the root-to-anything distance in seconds (the
        mining layer derives one from constraint propagation).
    anchor_requirements:
        Optional ``(etype, lo, hi)`` triples: any match anchored at
        ``t0`` must witness an ``etype`` event in ``[t0 + lo, t0 + hi]``
        (sound when derived from propagated windows, as
        :func:`repro.core.api.compile_pattern` does).
        :meth:`matching_roots` then screens the root occurrences through
        :meth:`~repro.store.columnar.ColumnarEventStore.screen_anchors`
        and starts automata only at viable ones.
    max_configurations:
        Safety valve on the configuration set size.
    """

    def __init__(
        self,
        build: TagBuild,
        strict: bool = False,
        horizon_seconds: Optional[int] = None,
        anchor_requirements: Optional[Sequence[Tuple[str, int, int]]] = None,
        max_configurations: int = MAX_CONFIGURATIONS,
    ):
        self.build = build
        self.tag = build.tag
        self.strict = strict
        self.horizon_seconds = horizon_seconds
        self.anchor_requirements = (
            tuple(anchor_requirements) if anchor_requirements else ()
        )
        self.max_configurations = max_configurations
        self._runtimes = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Anchored matching (the mining primitive)
    # ------------------------------------------------------------------
    def match_from(
        self, sequence: "EventSequence", root_index: int
    ) -> MatchResult:
        """Match with the root variable bound to ``sequence[root_index]``.

        The first step *must* consume the anchored event via a root
        transition, which is the paper's "start one copy of the TAG at
        every occurrence of E0".  This is the object NDFA simulation,
        the reference for every production query below.
        """
        root_event = sequence[root_index]
        if root_event.etype != self.build.root_symbol:
            return MatchResult(False, None, 0, 0)
        start_config = Configuration(
            state=next(iter(self.tag.start_states)),
            reset_times={
                name: root_event.time for name in self.tag.clocks
            },
            last_time=root_event.time,
        )
        root_variable = self.build.structure.root
        anchored = [
            config
            for config in self.tag.step(
                start_config, root_event.etype, root_event.time, self.strict
            )
            if config.bindings and config.bindings[0][0] == root_variable
        ]
        if not anchored:
            return MatchResult(False, None, 1, 0)
        return self._scan(sequence, root_index + 1, root_event.time, anchored)

    def _scan(
        self,
        sequence: "EventSequence",
        from_index: int,
        root_time: int,
        configs: List[Configuration],
    ) -> MatchResult:
        events_scanned = 1
        peak = len(configs)
        accepted = self._accepting(configs)
        if accepted is not None:
            return MatchResult(True, dict(accepted.bindings), 1, peak)
        deadline = (
            root_time + self.horizon_seconds
            if self.horizon_seconds is not None
            else None
        )
        clocks = self.tag.clocks
        accepting = self.tag.accepting
        for index in range(from_index, len(sequence)):
            event = sequence[index]
            if deadline is not None and event.time > deadline:
                break
            events_scanned += 1
            if self.strict and any(
                not clock.covers(event.time)
                for clock in clocks.values()
            ):
                # The paper's literal run definition: an uncovered
                # timestamp kills every run, skipped or not.
                configs = []
                break
            seen = set()
            next_configs: List[Configuration] = []
            accepted: Optional[Configuration] = None
            for config in configs:
                # The ANY self-loop: the configuration itself survives
                # unchanged (reset times are immutable, last_time is
                # irrelevant to future steps).
                key = config.frozen_key()
                if key not in seen:
                    seen.add(key)
                    next_configs.append(config)
                values = None
                for transition in self.tag.transitions_from(config.state):
                    if transition.symbol == ANY:
                        continue
                    if transition.symbol != event.etype:
                        continue
                    if values is None:
                        values = _LazyValuation(
                            clocks, config.reset_times, event.time
                        )
                    if not transition.guard.evaluate(values):
                        continue
                    reset_times = dict(config.reset_times)
                    for name in transition.resets:
                        reset_times[name] = event.time
                    successor = Configuration(
                        state=transition.target,
                        reset_times=reset_times,
                        last_time=event.time,
                        bindings=config.bindings
                        + tuple(
                            (variable, event.time)
                            for variable in transition.variables
                        ),
                    )
                    if successor.state in accepting:
                        accepted = successor
                        break
                    key = successor.frozen_key()
                    if key in seen:
                        continue
                    seen.add(key)
                    next_configs.append(successor)
                if accepted is not None:
                    break
            if accepted is not None:
                peak = max(peak, len(next_configs) + 1)
                return MatchResult(
                    True, dict(accepted.bindings), events_scanned, peak
                )
            configs = next_configs
            peak = max(peak, len(configs))
            if len(configs) > self.max_configurations:
                raise RuntimeError(
                    "configuration set exceeded %d; tighten the horizon"
                    % self.max_configurations
                )
            if not configs:
                break
        return MatchResult(False, None, events_scanned, peak)

    def _accepting(
        self, configs: List[Configuration]
    ) -> Optional[Configuration]:
        for config in configs:
            if config.state in self.tag.accepting:
                return config
        return None

    # ------------------------------------------------------------------
    # Production queries: a one-member bank over the columnar view
    # ------------------------------------------------------------------
    def _runtime(self, sequence: "EventSequence") -> BatchRuntime:
        """The one-member bank runtime over the sequence's columnar view.

        Memoised per view (weakly keyed); the bank is the build's, so
        it compiles once however many matchers share the build.
        """
        view = sequence.columnar()
        runtime = self._runtimes.get(view)
        if runtime is None:
            runtime = BatchRuntime(
                self.build.bank,
                view,
                self.build.root_symbol,
                self.build.structure.root,
                strict=self.strict,
                horizon_seconds=self.horizon_seconds,
                max_configurations=self.max_configurations,
            )
            self._runtimes[view] = runtime
        return runtime

    def bindings_at(
        self, sequence: "EventSequence", root_index: int
    ) -> Optional[Dict[str, int]]:
        """Variable -> timestamp bindings of a match anchored at this
        index, or None when the type does not occur there."""
        return self._runtime(sequence).match_many(root_index, _ONLY)[0][1]

    def occurs_at(self, sequence: "EventSequence", root_index: int) -> bool:
        """Does the complex event type occur anchored at this index?"""
        return self._runtime(sequence).match_many(root_index, _ONLY)[0][0]

    def viable_root_positions(
        self, sequence: "EventSequence"
    ) -> List[int]:
        """Root occurrences surviving the anchor screen, as positions.

        The enumeration :meth:`matching_roots` starts from, split out
        so frontier-level callers can feed it to a shared
        :class:`~repro.automata.dense.BatchRuntime`.
        """
        view = sequence.columnar()
        positions, times = view.postings(self.build.root_symbol)
        return view.viable_positions(
            positions, times, self.anchor_requirements
        )

    def matching_roots(self, sequence: "EventSequence") -> Iterator[int]:
        """Indices of root-type occurrences that anchor a match.

        With :attr:`anchor_requirements` set, root occurrences whose
        windows the anchor screen refutes are skipped without starting
        an automaton run (the screen is a sound over-approximation, so
        the yielded set is unchanged).
        """
        runtime = self._runtime(sequence)
        (hits,) = runtime.scan_roots([self.viable_root_positions(sequence)])
        yield from hits

    def count_occurrences(self, sequence: "EventSequence") -> int:
        """Paper-style count: matched root occurrences (each counted once)."""
        return sum(1 for _ in self.matching_roots(sequence))

    def accepts(self, sequence: "EventSequence") -> bool:
        """Unanchored acceptance: some suffix anchors an occurrence.

        This corresponds to Theorem 3's statement - the type occurs in
        the sequence iff the TAG has an accepting run over it (runs may
        skip any prefix via the start state's self-loop).
        """
        return any(True for _ in self.matching_roots(sequence))
