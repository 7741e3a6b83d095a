"""Dense TAG compilation and the stored-sequence matching runtime.

Franceschet & Montanari's automaton view of granularity matching says a
TAG is just a transition table; this module compiles the object graph of
:class:`~repro.automata.tag.TAG` into exactly that - integer state ids,
integer symbol ids, integer clock ids, per-state transition lists, and
guards lowered to threshold programs over clock indexes - and then runs
banks of those tables over the int64 columns of a
:class:`~repro.store.columnar.ColumnarEventStore`.

Four layers:

``compile_dense(tag)``
    the pure compilation step.  :meth:`DenseTAG.step` mirrors
    :meth:`repro.automata.tag.TAG.step` configuration for
    configuration (the property suite replays both state-by-state).

``DenseBatch``
    dense TAGs sharing one clock space, rebanked over their union
    alphabet.  A single pattern is a bank of one.

``ColumnPlan``
    one (bank, columnar store) pairing: the store's alphabet events
    gathered into contiguous position/time/symbol columns, with
    per-clock *tick columns* precomputed through the O(log period)
    bisection, so every clock guard in the scan is an integer
    subtraction instead of a granularity conversion.

``BatchRuntime``
    the only runtime that matches a TAG over a stored sequence: one
    sweep per anchored root advances every requested bank member over
    only the plan's events.  Its match decisions and bindings are
    bit-identical to the object NDFA simulation
    (:class:`~repro.automata.matching.TagMatcher`'s Theorem-4
    reference), which the differential suites hold it against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..granularity.normalform import clock_distance, clock_tick_of
from ..obs import counter, span
from .clocks import And, Atom, Not, Or, TrueConstraint
from .tag import ANY, TAG

#: Symbol id of the ANY pseudo-symbol in dense transition tables.
ANY_ID = -1

# The same metric families the object matcher reports (the registry
# get-or-creates by name, so both paths share one counter).
_RUNS = counter("repro_tag_runs_total", "Anchored TAG runs started")
_MATCHES = counter("repro_tag_matches_total", "Anchored runs that matched")
_EVENTS_SCANNED = counter(
    "repro_tag_events_scanned_total", "Events scanned by anchored runs"
)
_TRANSITIONS = counter(
    "repro_tag_transitions_total", "Non-skip transitions taken"
)
_SKIPS = counter(
    "repro_tag_skips_total", "ANY self-loop survivals (skipped events)"
)
_GUARD_REJECTIONS = counter(
    "repro_tag_guard_rejections_total",
    "Transitions rejected by a clock guard",
)
_BATCHES = counter(
    "repro_tag_batch_runs_total", "Batched (columnar) root sweeps"
)
_BATCH_CANDIDATES = counter(
    "repro_batch_candidates_total",
    "Candidates evaluated through batched frontier scans",
)

#: Shared miss entry for :meth:`BatchRuntime.match_many` results.
_NO_MATCH: Tuple[bool, None] = (False, None)


class DenseGuard:
    """A clock guard lowered to threshold checks over clock indexes.

    The builder only emits conjunctions of interval atoms, which
    compile to a flat ``atoms`` tuple evaluated with early exit; the
    general boolean closure (Or/Not, the paper's full Phi(C)) compiles
    to a small node tree.  ``None`` clock values falsify atoms exactly
    as :meth:`repro.automata.clocks.Atom.evaluate` does.
    """

    __slots__ = ("atoms", "tree", "clock_ids")

    def __init__(self, constraint, clock_index: Dict[str, int]):
        self.atoms = _flatten_conjunction(constraint, clock_index)
        self.tree = (
            None
            if self.atoms is not None
            else _compile_node(constraint, clock_index)
        )
        self.clock_ids = tuple(
            sorted(clock_index[name] for name in constraint.clocks())
        )

    def evaluate(self, values: Sequence[Optional[int]]) -> bool:
        """Truth under a dense valuation (one entry per clock id)."""
        if self.atoms is not None:
            for cidx, is_le, k in self.atoms:
                value = values[cidx]
                if value is None:
                    return False
                if is_le:
                    if value > k:
                        return False
                elif value < k:
                    return False
            return True
        return _eval_node(self.tree, values)

    def holds(
        self,
        reset_ticks: Sequence[Optional[int]],
        now_ticks: Sequence[Optional[int]],
    ) -> bool:
        """Truth with clock ``c`` valued ``now_ticks[c] -
        reset_ticks[c]`` (None when either tick is None) - the
        runtime's valuation, read only for the clocks the guard uses."""
        if self.atoms is not None:
            for cidx, is_le, k in self.atoms:
                reset_tick = reset_ticks[cidx]
                now_tick = now_ticks[cidx]
                if reset_tick is None or now_tick is None:
                    return False
                if is_le:
                    if now_tick - reset_tick > k:
                        return False
                elif now_tick - reset_tick < k:
                    return False
            return True
        values: List[Optional[int]] = [None] * len(now_ticks)
        for cidx in self.clock_ids:
            reset_tick = reset_ticks[cidx]
            now_tick = now_ticks[cidx]
            if reset_tick is not None and now_tick is not None:
                values[cidx] = now_tick - reset_tick
        return _eval_node(self.tree, values)


def _flatten_conjunction(constraint, clock_index):
    """``((clock_id, is_le, k), ...)`` when the guard is a pure
    conjunction of atoms (or trivially true), else None."""
    if isinstance(constraint, TrueConstraint):
        return ()
    if isinstance(constraint, Atom):
        return (
            (clock_index[constraint.clock], constraint.op == "le",
             constraint.k),
        )
    if isinstance(constraint, And):
        atoms: List[Tuple[int, bool, int]] = []
        for part in constraint.parts:
            flat = _flatten_conjunction(part, clock_index)
            if flat is None:
                return None
            atoms.extend(flat)
        return tuple(atoms)
    return None


def _compile_node(constraint, clock_index):
    if isinstance(constraint, TrueConstraint):
        return ("true",)
    if isinstance(constraint, Atom):
        return (
            "atom",
            clock_index[constraint.clock],
            constraint.op == "le",
            constraint.k,
        )
    if isinstance(constraint, And):
        return (
            "and",
            tuple(_compile_node(p, clock_index) for p in constraint.parts),
        )
    if isinstance(constraint, Or):
        return (
            "or",
            tuple(_compile_node(p, clock_index) for p in constraint.parts),
        )
    if isinstance(constraint, Not):
        return ("not", _compile_node(constraint.part, clock_index))
    raise TypeError(
        "cannot compile clock constraint %r" % (constraint,)
    )


def _eval_node(node, values) -> bool:
    kind = node[0]
    if kind == "true":
        return True
    if kind == "atom":
        _, cidx, is_le, k = node
        value = values[cidx]
        if value is None:
            return False
        return value <= k if is_le else value >= k
    if kind == "and":
        return all(_eval_node(part, values) for part in node[1])
    if kind == "or":
        return any(_eval_node(part, values) for part in node[1])
    return not _eval_node(node[1], values)


class DenseTransition:
    """One compiled transition: integer target/symbol, reset clock ids,
    compiled guard, and the variables it binds."""

    __slots__ = ("target", "symbol_id", "resets", "guard", "variables")

    def __init__(self, target, symbol_id, resets, guard, variables):
        self.target = target
        self.symbol_id = symbol_id
        self.resets = resets
        self.guard = guard
        self.variables = variables


class DenseTAG:
    """The transition-table form of a TAG.

    States, symbols and clocks are renumbered to dense integer ids;
    transition lists preserve the source TAG's per-state order, so a
    replay takes transitions in exactly the order the interpreted
    automaton does (bindings and dedup survivors come out identical).
    """

    __slots__ = (
        "tag",
        "states",
        "state_index",
        "symbols",
        "symbol_index",
        "clock_names",
        "clock_types",
        "start",
        "accepting",
        "by_source",
        "consuming_by_source",
    )

    def __init__(self, tag: TAG):
        self.tag = tag
        self.states: Tuple[object, ...] = tuple(tag.states)
        self.state_index: Dict[object, int] = {
            state: index for index, state in enumerate(self.states)
        }
        self.symbols: Tuple[str, ...] = tuple(sorted(tag.alphabet))
        self.symbol_index: Dict[str, int] = {
            symbol: index for index, symbol in enumerate(self.symbols)
        }
        self.clock_names: Tuple[str, ...] = tuple(sorted(tag.clocks))
        clock_index = {
            name: index for index, name in enumerate(self.clock_names)
        }
        self.clock_types = tuple(
            tag.clocks[name].granularity for name in self.clock_names
        )
        # The reference matcher anchors at next(iter(start_states));
        # replicate the same choice so multi-start TAGs stay
        # bit-identical.
        self.start = self.state_index[next(iter(tag.start_states))]
        self.accepting = frozenset(
            self.state_index[state] for state in tag.accepting
        )
        by_source: List[List[DenseTransition]] = [
            [] for _ in self.states
        ]
        consuming: List[List[DenseTransition]] = [[] for _ in self.states]
        for state_id, state in enumerate(self.states):
            for transition in tag.transitions_from(state):
                dense = DenseTransition(
                    self.state_index[transition.target],
                    ANY_ID
                    if transition.symbol == ANY
                    else self.symbol_index[transition.symbol],
                    tuple(
                        clock_index[name]
                        for name in sorted(transition.resets)
                    ),
                    DenseGuard(transition.guard, clock_index),
                    transition.variables,
                )
                by_source[state_id].append(dense)
                if dense.symbol_id != ANY_ID:
                    consuming[state_id].append(dense)
        self.by_source = tuple(tuple(ts) for ts in by_source)
        self.consuming_by_source = tuple(tuple(ts) for ts in consuming)

    @property
    def n_clocks(self) -> int:
        return len(self.clock_names)

    def symbol_id(self, symbol: str) -> Optional[int]:
        return self.symbol_index.get(symbol)

    # ------------------------------------------------------------------
    # Definition-level replay (the property-test surface)
    # ------------------------------------------------------------------
    def step(
        self,
        state: int,
        reset_times: Tuple[int, ...],
        symbol: str,
        timestamp: int,
        strict: bool = False,
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """Dense mirror of :meth:`repro.automata.tag.TAG.step`.

        Takes and returns ``(state_id, per-clock reset times)``
        configurations; the property suite replays this against the
        interpreted automaton state-by-state (catching off-by-one guard
        evaluation, not just final matches).
        """
        if strict:
            for ttype in self.clock_types:
                if clock_tick_of(ttype, timestamp) is None:
                    return []
        values = [
            _clock_value(ttype, reset_times[index], timestamp)
            for index, ttype in enumerate(self.clock_types)
        ]
        symbol_id = self.symbol_index.get(symbol)
        successors: List[Tuple[int, Tuple[int, ...]]] = []
        for transition in self.by_source[state]:
            if (
                transition.symbol_id != ANY_ID
                and transition.symbol_id != symbol_id
            ):
                continue
            if not transition.guard.evaluate(values):
                continue
            resets = list(reset_times)
            for cidx in transition.resets:
                resets[cidx] = timestamp
            successors.append((transition.target, tuple(resets)))
        return successors


def _clock_value(ttype, reset_time: int, now: int) -> Optional[int]:
    return clock_distance(ttype, reset_time, now)


def compile_dense(tag: TAG) -> DenseTAG:
    """Compile a TAG's object graph to dense transition tables."""
    return DenseTAG(tag)


class ColumnPlan:
    """Alphabet events of one columnar store gathered for one bank.

    ``positions``/``times``/``symbol_ids`` hold only the events whose
    type is in the bank's union alphabet (everything else can only take
    the ANY self-loop, which leaves configurations unchanged), and
    ``ticks[c][j]`` caches ``tick_of(times[j])`` per clock - computed
    once per (store, granularity) via the compiled normal form's
    bisection.  ``strict_bad`` lists the *global* positions (over the
    full store) whose timestamp some clock granularity does not cover;
    a strict run is truncated at the first such position after its
    anchor, exactly where the object path kills every configuration.
    """

    __slots__ = (
        "batch",
        "positions",
        "times",
        "symbol_ids",
        "ticks",
        "strict_bad",
    )

    def __init__(self, batch: "DenseBatch", store, strict: bool):
        with span(
            "columnar.scan",
            events=len(store),
            alphabet=len(batch.symbols),
        ) as scan_span:
            merged: List[Tuple[int, int, int]] = []
            for sid, symbol in enumerate(batch.symbols):
                positions, times = store.postings(symbol)
                merged.extend(
                    (position, times[k], sid)
                    for k, position in enumerate(positions)
                )
            merged.sort()
            self.batch = batch
            self.positions = [m[0] for m in merged]
            self.times = [m[1] for m in merged]
            self.symbol_ids = [m[2] for m in merged]
            self.ticks: List[List[Optional[int]]] = []
            for ttype in batch.clock_types:
                memo: Dict[int, Optional[int]] = {}
                column: List[Optional[int]] = []
                for t in self.times:
                    if t in memo:
                        column.append(memo[t])
                    else:
                        z = clock_tick_of(ttype, t)
                        memo[t] = z
                        column.append(z)
                self.ticks.append(column)
            self.strict_bad: Optional[List[int]] = None
            if strict and batch.clock_types:
                bad: List[int] = []
                memo_all: Dict[int, bool] = {}
                for position in range(len(store)):
                    t = store.time_at(position)
                    covered = memo_all.get(t)
                    if covered is None:
                        covered = all(
                            clock_tick_of(ttype, t) is not None
                            for ttype in batch.clock_types
                        )
                        memo_all[t] = covered
                    if not covered:
                        bad.append(position)
                self.strict_bad = bad
            scan_span.set(plan_events=len(self.positions))

    def plan_index_of(self, global_position: int) -> Optional[int]:
        """Plan offset of a global store position (None when the event
        at that position is not an alphabet event)."""
        index = bisect_left(self.positions, global_position)
        if (
            index < len(self.positions)
            and self.positions[index] == global_position
        ):
            return index
        return None


def _plan_for(batch: "DenseBatch", store, strict: bool) -> ColumnPlan:
    cache = store.plan_cache()
    key = (id(batch), bool(strict))
    entry = cache.get(key)
    if entry is not None and entry[0] is batch:
        return entry[1]
    plan = ColumnPlan(batch, store, strict)
    # The strong reference to ``batch`` keeps the id key stable.
    cache[key] = (batch, plan)
    return plan


# ----------------------------------------------------------------------
# Banks and the runtime: one traversal for a whole frontier
# ----------------------------------------------------------------------
class DenseBatch:
    """A bank of dense TAGs sharing one clock space, scanned together.

    The members' alphabets are merged into one sorted union alphabet,
    and every member's consuming transitions are rebanked by *union*
    symbol id (``banks[m][state][union_sid]`` -> the member's
    transitions in original order).  Because all members share the same
    clock names and granularities, one :class:`ColumnPlan` over the
    union alphabet serves the whole bank: tick columns, horizon cuts
    and strict-kill positions are computed once per event instead of
    once per candidate.  ``keysets[m][state]`` is the set of union
    symbol ids state ``state`` of member ``m`` can consume - the
    routing table :class:`BatchRuntime` uses to skip members with no
    transition on the current event's symbol.  ``wake_classes[sid][m]``
    numbers member ``m``'s transition rows on ``sid`` (over all states,
    plus its accepting set) so that members with equal numbers react
    identically to an event of that symbol from equal configurations.
    """

    __slots__ = (
        "members",
        "symbols",
        "symbol_index",
        "clock_names",
        "clock_types",
        "banks",
        "keysets",
        "wake_classes",
    )

    def __init__(self, members: Sequence[DenseTAG]):
        if not members:
            raise ValueError("a DenseBatch needs at least one member")
        first = members[0]
        for member in members[1:]:
            if member.clock_names != first.clock_names or len(
                member.clock_types
            ) != len(first.clock_types) or any(
                a is not b
                for a, b in zip(member.clock_types, first.clock_types)
            ):
                raise ValueError(
                    "batch members must share clock names and "
                    "granularities"
                )
        self.members: Tuple[DenseTAG, ...] = tuple(members)
        self.clock_names = first.clock_names
        self.clock_types = first.clock_types
        union: Set[str] = set()
        for member in self.members:
            union.update(member.symbols)
        self.symbols: Tuple[str, ...] = tuple(sorted(union))
        self.symbol_index: Dict[str, int] = {
            symbol: index for index, symbol in enumerate(self.symbols)
        }
        banks = []
        keysets = []
        for member in self.members:
            state_banks = []
            state_keys = []
            for state_id in range(len(member.states)):
                by_sid: Dict[int, List[DenseTransition]] = {}
                for transition in member.consuming_by_source[state_id]:
                    sid = self.symbol_index[
                        member.symbols[transition.symbol_id]
                    ]
                    by_sid.setdefault(sid, []).append(transition)
                state_banks.append(
                    {sid: tuple(ts) for sid, ts in by_sid.items()}
                )
                state_keys.append(frozenset(by_sid))
            banks.append(tuple(state_banks))
            keysets.append(tuple(state_keys))
        self.banks = tuple(banks)
        self.keysets = tuple(keysets)
        rows: List[List[list]] = [
            [[] for _ in self.members] for _ in self.symbols
        ]
        for m, state_banks in enumerate(self.banks):
            for state_id, by_sid in enumerate(state_banks):
                for sid, transitions in by_sid.items():
                    rows[sid][m].append(
                        (state_id, _row_signature(transitions))
                    )
        wake_classes = []
        for per_member in rows:
            tokens: Dict[tuple, int] = {}
            wake_classes.append(
                tuple(
                    tokens.setdefault(
                        (member.accepting, tuple(row)), len(tokens)
                    )
                    for member, row in zip(self.members, per_member)
                )
            )
        self.wake_classes = tuple(wake_classes)

    @property
    def n_clocks(self) -> int:
        return len(self.clock_names)


def _row_signature(transitions) -> tuple:
    """Structural identity of one (state, symbol) transition row."""
    return tuple(
        (
            t.target,
            t.resets,
            t.guard.atoms if t.guard.atoms is not None else id(t.guard),
            t.variables,
        )
        for t in transitions
    )


def compile_dense_batch(tags):
    """Group TAGs (or pre-compiled :class:`DenseTAG`\\ s) into banks.

    Members land in the same :class:`DenseBatch` exactly when they
    share clock names and clock granularities (the precondition for
    sharing tick columns and strict cuts).  Returns
    ``[(member_positions, batch), ...]`` in first-seen order, where
    ``member_positions`` are indexes into the input sequence - the
    caller uses them to split per-candidate results back out.
    """
    denses = [
        tag if isinstance(tag, DenseTAG) else compile_dense(tag)
        for tag in tags
    ]
    groups: Dict[tuple, List[int]] = {}
    order: List[tuple] = []
    for position, dense in enumerate(denses):
        key = (
            dense.clock_names,
            tuple(id(ttype) for ttype in dense.clock_types),
        )
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(position)
    return [
        (
            tuple(groups[key]),
            DenseBatch([denses[p] for p in groups[key]]),
        )
        for key in order
    ]


def _sweep_states(member: DenseTAG) -> Set[int]:
    """States a configuration can occupy after the anchor step.

    Configurations start at targets of the start state's consuming
    transitions and move only along consuming transitions (ANY
    self-loops carry them unchanged), so a symbol that only the start
    state consumes - typically the root type - is never routed.
    """
    stack = [t.target for t in member.consuming_by_source[member.start]]
    reachable = set(stack)
    while stack:
        for transition in member.consuming_by_source[stack.pop()]:
            if transition.target not in reachable:
                reachable.add(transition.target)
                stack.append(transition.target)
    return reachable


class BatchRuntime:
    """Anchored matching of a bank of TAGs in one traversal per root.

    Per member, every decision mirrors the object NDFA reference in
    :mod:`repro.automata.matching` - same anchor step, same
    configuration dedup by (state, reset times), same transition order,
    same early accept, horizon and strict cuts - so match sets and
    bindings are bit-identical to it (the differential suites hold
    this).  What the bank amortizes is the traversal itself: the union
    plan's positions, times, tick columns and cut bisections are
    computed once per root, and the static consumer index means an
    event only touches the members whose current states can consume
    its symbol.  A member waiting on a rare symbol pays nothing while
    dense noise streams by.  Members whose assignments share a prefix
    also share work: equal anchor steps start from one frontier list,
    and a member whose frontier and wake class equal the previous
    member's replays that wake's outcome (and its counts) instead of
    recomputing it.
    """

    __slots__ = (
        "batch",
        "store",
        "plan",
        "strict",
        "horizon_seconds",
        "max_configurations",
        "root_symbol",
        "root_variable",
        "_root_symbol_ids",
        "_consumers",
        "_want_cache",
        "_anchor_memo",
        "_survivor_forms",
    )

    def __init__(
        self,
        batch: DenseBatch,
        store,
        root_symbol: str,
        root_variable: str,
        strict: bool = False,
        horizon_seconds: Optional[int] = None,
        max_configurations: int = 100_000,
    ):
        self.batch = batch
        self.store = store
        self.plan = _plan_for(batch, store, strict)
        self.strict = strict
        self.horizon_seconds = horizon_seconds
        self.max_configurations = max_configurations
        self.root_symbol = root_symbol
        self.root_variable = root_variable
        self._root_symbol_ids = tuple(
            member.symbol_id(root_symbol) for member in batch.members
        )
        # Static routing: consumers[sid] = members that can consume
        # union symbol sid at some point of a sweep, in member order.
        # Per sweep, a member processes an event only when sid is
        # additionally in its current ``wanted`` set, so wake-up
        # semantics equal a per-state index without any per-sweep
        # index construction.
        consumers: Dict[int, List[int]] = {}
        for m, keys in enumerate(batch.keysets):
            union: Set[int] = set()
            for state in _sweep_states(batch.members[m]):
                union |= keys[state]
            for sid in union:
                consumers.setdefault(sid, []).append(m)
        self._consumers = {
            sid: tuple(members) for sid, members in consumers.items()
        }
        #: (member, frozenset of states) -> frozenset of consumable
        #: sids; state sets recur across roots, so the union is paid
        #: once per distinct set.
        self._want_cache: Dict[tuple, frozenset] = {}
        #: (member, clock-coverage pattern) -> anchor-step survivors
        #: as (target, variables) pairs; the anchor valuation depends
        #: only on which clocks cover the root timestamp.
        self._anchor_memo: Dict[tuple, tuple] = {}
        self._survivor_forms: Dict[tuple, tuple] = {}

    def match_many(
        self,
        root_position: int,
        member_ids: Optional[Sequence[int]] = None,
    ) -> Dict[int, Tuple[bool, Optional[Dict[str, int]]]]:
        """``{member_id: (matched, bindings)}`` for one anchored root,
        advancing every requested member through one event sweep."""
        batch = self.batch
        if member_ids is None:
            member_ids = range(len(batch.members))
        results: Dict[int, Tuple[bool, Optional[Dict[str, int]]]] = (
            dict.fromkeys(member_ids, _NO_MATCH)
        )
        store = self.store
        if store.type_at(root_position) != self.root_symbol:
            return results
        root_time = store.time_at(root_position)
        plan = self.plan
        root_plan = plan.plan_index_of(root_position)
        if root_plan is None:  # pragma: no cover - root is in alphabet
            return results
        ticks = plan.ticks
        n_clocks = batch.n_clocks
        root_ticks = [ticks[c][root_plan] for c in range(n_clocks)]
        strict_dead = self.strict and any(
            z is None for z in root_ticks
        )
        reset0 = tuple([root_time] * n_clocks)
        tick0 = tuple(root_ticks)
        # Anchor step per member (shared clock valuation, shared
        # resets: all clocks reset at the root for every member).
        # Which anchor transitions survive depends only on the clock
        # coverage pattern at the root, so the symbol/variable/guard
        # filtering is memoized per (member, coverage).
        cov = tuple(z is not None for z in root_ticks)
        anchor_memo = self._anchor_memo
        frontier: Dict[int, list] = {}
        runs = 0
        extra_scanned = 0
        matches = 0
        wanted: Dict[int, frozenset] = {}
        keysets = batch.keysets
        # Frontier lists are never mutated in place, so members may
        # share one: this root's initial frontiers, by survivor form.
        initial: Dict[int, list] = {}
        for m in member_ids:
            runs += 1
            if strict_dead:
                extra_scanned += 1
                continue
            memo = anchor_memo.get((m, cov))
            if memo is None:
                member = batch.members[m]
                root_sid = self._root_symbol_ids[m]
                collected = []
                for transition in member.by_source[member.start]:
                    if transition.symbol_id != root_sid:
                        continue
                    if not (
                        transition.variables
                        and transition.variables[0] == self.root_variable
                    ):
                        continue
                    # Every clock resets at the root: value 0 where
                    # the root tick exists.
                    if not transition.guard.holds(root_ticks, root_ticks):
                        continue
                    collected.append(
                        (transition.target, transition.variables)
                    )
                survivors = tuple(collected)
                # The initial wanted set is a pure function of the
                # surviving anchor targets, so it is memoized with
                # them (saves one frozenset build per member sweep).
                keys = keysets[m]
                union: Set[int] = set()
                for target, _variables in survivors:
                    union |= keys[target]
                # Equal survivor tuples are interned, so members with
                # the same anchor step share one initial frontier.
                survivors = self._survivor_forms.setdefault(
                    survivors, survivors
                )
                memo = (survivors, frozenset(union))
                anchor_memo[(m, cov)] = memo
            survivors, want0 = memo
            if not survivors:
                extra_scanned += 1
                continue
            configs = initial.get(id(survivors))
            if configs is None:
                configs = [
                    (
                        target,
                        reset0,
                        tick0,
                        tuple(
                            (variable, root_time)
                            for variable in variables
                        ),
                    )
                    for target, variables in survivors
                ]
                initial[id(survivors)] = configs
            accepting = batch.members[m].accepting
            accepted = None
            for config in configs:
                if config[0] in accepting:
                    accepted = config
                    break
            if accepted is not None:
                results[m] = (True, dict(accepted[3]))
                matches += 1
                extra_scanned += 1
                continue
            frontier[m] = configs
            wanted[m] = want0
        if not frontier:
            _RUNS.add(runs)
            if matches:
                _MATCHES.add(matches)
            if extra_scanned:
                _EVENTS_SCANNED.add(extra_scanned)
            return results
        # Shared cuts: one horizon bisection and one strict-kill
        # bisection serve every member (identical clock space).
        times = plan.times
        end = len(times)
        deadline = (
            root_time + self.horizon_seconds
            if self.horizon_seconds is not None
            else None
        )
        if deadline is not None:
            end = bisect_right(times, deadline)
        if plan.strict_bad is not None:
            bad = plan.strict_bad
            k = bisect_right(bad, root_position)
            if k < len(bad):
                bad_position = bad[k]
                if deadline is None or (
                    store.time_at(bad_position) <= deadline
                ):
                    end = min(
                        end, bisect_left(plan.positions, bad_position)
                    )
        # Routing: the static consumer list (who could *ever* consume
        # sid) filtered by the member's current ``wanted`` set (who can
        # consume it *now*).  An event whose symbol nobody consumes
        # costs one dict probe for the whole frontier.  ``wanted`` is
        # memoized per (member, state set) and recomputed only when a
        # transition fired - when nothing fires, a carried-over
        # frontier has the same states (dedup can only drop a config
        # whose state survives in the kept copy).
        consumers = self._consumers
        want_cache = self._want_cache
        scanned = 1
        transitions_taken = 0
        skips = 0
        guard_rejections = 0
        symbol_ids = plan.symbol_ids
        members_list = batch.members
        banks = batch.banks
        max_configurations = self.max_configurations
        wake_classes = batch.wake_classes
        for j in range(root_plan + 1, end):
            scanned += 1
            sid = symbol_ids[j]
            group = consumers.get(sid)
            if group is None:
                continue
            now = times[j]
            now_ticks = None
            classes = wake_classes[sid]
            # Members that share a frontier list and a wake class on
            # sid react identically, and such members sit next to each
            # other in frontier order (candidates sharing a prefix
            # assignment), so the previous wake's outcome is replayed
            # instead of recomputed.
            last_configs = None
            last_class = -1
            for m in group:
                want = wanted.get(m)
                if want is None or sid not in want:
                    continue
                configs = frontier[m]
                if configs is last_configs and classes[m] == last_class:
                    transitions_taken += last_taken
                    skips += last_skips
                    guard_rejections += last_rejections
                    accepted, next_configs, sig = last_outcome
                else:
                    taken0 = transitions_taken
                    skips0 = skips
                    rejections0 = guard_rejections
                    bank = banks[m]
                    accepting = members_list[m].accepting
                    # The frontier rebuild is lazy: ``next_configs`` is
                    # materialised only once a guard actually passes.
                    # A wake where every transition misses or is
                    # rejected leaves the (already deduplicated)
                    # frontier object untouched, which is the common
                    # case on busy sweeps.
                    seen = None
                    next_configs = None
                    accepted = None
                    for idx, config in enumerate(configs):
                        state, resets, rticks, bindings = config
                        if next_configs is not None:
                            key = (state, resets)
                            if key not in seen:
                                seen.add(key)
                                next_configs.append(config)
                                skips += 1
                        for transition in bank[state].get(sid, ()):
                            if now_ticks is None:
                                now_ticks = [column[j] for column in ticks]
                            if not transition.guard.holds(
                                rticks, now_ticks
                            ):
                                guard_rejections += 1
                                continue
                            transitions_taken += 1
                            if next_configs is None:
                                # First fired transition of this wake:
                                # replay the carry dedup over the
                                # configs already visited so the
                                # rebuilt list is exactly what the
                                # eager path produced.
                                seen = set()
                                next_configs = []
                                for prev in configs[: idx + 1]:
                                    pkey = (prev[0], prev[1])
                                    if pkey not in seen:
                                        seen.add(pkey)
                                        next_configs.append(prev)
                                        skips += 1
                            if transition.resets:
                                new_resets = list(resets)
                                new_ticks = list(rticks)
                                for cidx in transition.resets:
                                    new_resets[cidx] = now
                                    new_ticks[cidx] = now_ticks[cidx]
                                new_resets = tuple(new_resets)
                                new_ticks = tuple(new_ticks)
                            else:
                                new_resets = resets
                                new_ticks = rticks
                            new_bindings = bindings + tuple(
                                (variable, now)
                                for variable in transition.variables
                            )
                            successor = (
                                transition.target,
                                new_resets,
                                new_ticks,
                                new_bindings,
                            )
                            if transition.target in accepting:
                                accepted = successor
                                break
                            key = (transition.target, new_resets)
                            if key in seen:
                                continue
                            seen.add(key)
                            next_configs.append(successor)
                        if accepted is not None:
                            break
                    sig = None
                    if accepted is None and next_configs is not None:
                        if len(next_configs) > max_configurations:
                            raise RuntimeError(
                                "configuration set exceeded %d; tighten "
                                "the horizon" % max_configurations
                            )
                        sig = frozenset(
                            config[0] for config in next_configs
                        )
                    last_configs = configs
                    last_class = classes[m]
                    last_outcome = (accepted, next_configs, sig)
                    last_taken = transitions_taken - taken0
                    last_skips = skips - skips0
                    last_rejections = guard_rejections - rejections0
                if accepted is not None:
                    results[m] = (True, dict(accepted[3]))
                    matches += 1
                    del frontier[m]
                    del wanted[m]
                    continue
                if next_configs is None:
                    # Nothing fired: frontier and wanted set carry
                    # over unchanged.
                    continue
                frontier[m] = next_configs
                want = want_cache.get((m, sig))
                if want is None:
                    keys = keysets[m]
                    union = set()
                    for state in sig:
                        union |= keys[state]
                    want = frozenset(union)
                    want_cache[(m, sig)] = want
                wanted[m] = want
            if not frontier:
                break
        _RUNS.add(runs)
        if matches:
            _MATCHES.add(matches)
        # The traversal is shared: count each event once per sweep,
        # not once per member (documented in OBSERVABILITY.md).
        _EVENTS_SCANNED.add(scanned + extra_scanned)
        _TRANSITIONS.add(transitions_taken)
        _SKIPS.add(skips)
        _GUARD_REJECTIONS.add(guard_rejections)
        return results

    def scan_roots(
        self, viable_lists: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Matched root positions per member, sharing one sweep per
        root across all members for which it is viable.

        ``viable_lists[m]`` are the (ascending) screened root
        positions of member ``m``; the return value lists, per member,
        the roots among them that anchor a match.
        """
        batch = self.batch
        n_members = len(batch.members)
        by_root: Dict[int, List[int]] = {}
        for m, roots in enumerate(viable_lists):
            for root in roots:
                by_root.setdefault(root, []).append(m)
        hits: List[List[int]] = [[] for _ in range(n_members)]
        _BATCHES.inc()
        _BATCH_CANDIDATES.add(n_members)
        with span(
            "tag.batch_scan",
            candidates=n_members,
            roots=len(by_root),
        ) as scan_span:
            for root in sorted(by_root):
                outcomes = self.match_many(root, by_root[root])
                for m in by_root[root]:
                    if outcomes[m][0]:
                        hits[m].append(root)
            scan_span.set(hits=sum(len(h) for h in hits))
        return hits
