"""Minimal periodic normal forms and the compiled size-table backend.

Every (eventually) periodic temporal type admits a *minimal periodic
representation* from which the appendix A.1 table quantities have
closed forms (Bettini & Mascetti; Franceschet & Montanari make the same
compact-representation move for automata over granularities - see
PAPERS.md).  This module implements that lowering:

* :func:`compile_normal_form` lowers a :class:`~repro.granularity.base.
  TemporalType` into a :class:`PeriodicNormalForm` - an aperiodic
  prefix of explicit tick bounds followed by one period of ``P`` tick
  boundary offsets repeating every ``S`` seconds.  Uniform and
  :class:`~repro.granularity.periodic.PeriodicPatternType` types lower
  *structurally* (their representation is the form); every other
  type - Gregorian months/years, business calendars with or without
  holidays, custom calendars, the grouped/filtered/shifted/
  intersection/union/nth combinators - is lowered by the calendar
  algebra (:mod:`repro.granularity.algebra`): direct cycle rules plus
  closed operators on compiled operand forms, every result minimized
  to the smallest period divisor and shortest aperiodic prefix.  A
  declared ``period_info()`` alone lowers nothing; it only widens the
  sweep table's exact horizon.  A type can refuse (no rule applies,
  period over the :data:`MAX_PERIOD_TICKS` budget, or genuinely
  aperiodic): it then keeps the window-sweep
  :class:`~repro.granularity.sizes.SizeTable`, counted by
  ``repro_sizetable_fallback_total{reason}``.

* :class:`CompiledSizeTable` answers ``minsize``/``maxsize``/``mingap``
  from per-phase extrema over the doubled boundary arrays:
  ``k = q * P + r`` decomposes every query into ``q * S`` plus a
  per-residue extremum, so values are *exact for every k* (the sweep
  extrapolates beyond its horizon) at O(P) for the first probe of a
  residue and O(1) from the bounded memo afterwards.  The ``min_k_*``
  searches are the sweep table's, shared through
  :class:`~repro.granularity.sizes.TableSearches`.

* :meth:`PeriodicNormalForm.tick_of_instant` /
  :meth:`~PeriodicNormalForm.instant_of_tick` convert between instants
  and tick indices by bisection over one period of boundary offsets -
  O(log P) for *any* instant, replacing the linear scans several
  calendar types perform per ``tick_of`` call.  TAG clock evaluation
  (:mod:`repro.automata.clocks`, the matcher and the streaming layer)
  routes through :func:`clock_tick_of`/:func:`clock_distance`, which
  use the compiled form when the type certifies exact instant coverage
  and fall back to the type's own ``tick_of`` otherwise;
  :func:`clock_ticks_of` converts whole timestamp columns at once
  through :meth:`~PeriodicNormalForm.ticks_of_instants` (one floor
  division per instant for a gapless one-granule period, a forward
  walk over the column otherwise; memoized per element for types that
  do not lower) - the converter the columnar matcher's
  :class:`~repro.automata.dense.ColumnPlan` builds its tick columns
  and strict-kill positions with.

* :func:`form_covers` decides the appendix A.1 coverage relation
  between two :func:`covered_set_form` results exactly, per residue
  class of the two periods rather than per instant.

The type alone chooses: a type that lowers gets the compiled table and
the bisection clock, one that does not gets the sweep table and its own
``tick_of``.  There is no switch; the sweep reference the compiled
paths are held against lives in :mod:`repro.bench.reference`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import gcd
from operator import mul, sub
from typing import Optional, Tuple

from ..obs import counter, span
from .base import TemporalType, UniformType
from .periodic import PeriodicPatternType
from .sizes import DEFAULT_MEMO_ENTRIES, BoundedMemo, TableSearches

#: Refuse to compile forms larger than this many ticks (a scan that
#: long is as bad as the sweep it replaces; nothing in the repertoire
#: comes close).  Over-budget types keep the sweep table, counted by
#: ``repro_sizetable_fallback_total{reason="over-budget"}``.
MAX_PERIOD_TICKS = 1 << 20

_PROBES_COMPILED = counter(
    "repro_sizetable_probes_total",
    "Size-table lookups (minsize/maxsize/mingap), by backend",
    labels={"backend": "compiled"},
)
_COMPILED_HITS = counter(
    "repro_sizetable_compiled_hits_total",
    "Size-table probes answered in closed form by the compiled backend",
)
_COMPILES = counter(
    "repro_sizetable_compiles_total", "Normal-form compilations performed"
)


class NormalFormError(ValueError):
    """The type does not lower to a periodic normal form.

    ``reason`` is a small machine-readable vocabulary used by the
    ``repro_sizetable_fallback_total{reason}`` counter and the
    ``repro gran info`` provenance report:

    ``no-period``
        no lowering rule applies (or a rule finds no cycle to lower).
    ``verification`` / ``aperiodic``
        a derived recurrence fails its check against the type's own
        tick bounds.
    ``over-budget``
        the form would exceed the :data:`MAX_PERIOD_TICKS` budget.
    ``operand``
        an algebraic operand does not itself lower.
    ``empty``
        an operator result has an empty tick (no valid temporal type).
    ``invalid``
        operator arguments outside the operator's domain.
    """

    def __init__(self, message: str, reason: str = "no-period"):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class PeriodicNormalForm:
    """One type's minimal periodic representation.

    ``prefix_firsts``/``prefix_lasts`` are the bounds of the leading
    aperiodic ticks (a holiday stretch, an operand's prefix; empty for
    types periodic from tick 0); from tick ``len(prefix_firsts)`` on, tick
    ``prefix + q * period_ticks + r`` spans
    ``(firsts[r] + q * period_seconds, lasts[r] + q * period_seconds)``.

    ``exact_cover`` certifies that every instant inside a tick's bounds
    belongs to that tick (no interior gaps): only then may
    :meth:`tick_of_instant` replace the type's own ``tick_of``.  Size
    queries need bounds only and are valid either way.
    """

    label: str
    period_ticks: int
    period_seconds: int
    firsts: Tuple[int, ...]
    lasts: Tuple[int, ...]
    prefix_firsts: Tuple[int, ...] = ()
    prefix_lasts: Tuple[int, ...] = ()
    exact_cover: bool = False
    #: Which compiler stage produced the form: ``structural`` or
    #: ``algebra``; ``hand-built`` for forms built directly.
    source: str = "hand-built"
    #: Which lowering rule produced the form (compile provenance shown
    #: by ``repro gran info``); empty for hand-built forms.
    rule: str = ""
    #: ``(period_ticks, prefix_ticks)`` before minimization when the
    #: minimization pass shrank the form, else None.
    minimized_from: Optional[Tuple[int, int]] = None
    #: Covered instants per period (exact under ``exact_cover``, an
    #: upper bound otherwise - interior tick gaps are invisible to a
    #: boundary representation).
    period_instants: int = field(init=False)
    #: Uncovered runs between consecutive ticks of one period, as
    #: ``(offset_from_firsts[0], length)`` pairs including the wrap to
    #: the next period's first tick.
    gap_runs: Tuple[Tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        P, S = self.period_ticks, self.period_seconds
        if P < 1 or S < 1:
            raise NormalFormError(
                "period must be at least one tick/second", reason="invalid"
            )
        if len(self.firsts) != P or len(self.lasts) != P:
            raise NormalFormError(
                "boundary arrays must cover one period", reason="invalid"
            )
        if len(self.prefix_firsts) != len(self.prefix_lasts):
            raise NormalFormError(
                "prefix arrays must have equal length", reason="invalid"
            )
        bounds = list(zip(self.prefix_firsts, self.prefix_lasts))
        bounds += list(zip(self.firsts, self.lasts))
        previous_last = None
        for first, last in bounds:
            if first > last:
                raise NormalFormError(
                    "a tick has inverted bounds", reason="invalid"
                )
            if previous_last is not None and first <= previous_last:
                raise NormalFormError(
                    "ticks are not strictly ordered", reason="invalid"
                )
            previous_last = last
        if self.prefix_lasts and self.prefix_lasts[-1] >= self.firsts[0]:
            raise NormalFormError(
                "prefix overlaps the periodic part", reason="invalid"
            )
        if self.lasts[-1] - self.firsts[0] >= S:
            raise NormalFormError(
                "one period of ticks exceeds the period", reason="invalid"
            )
        object.__setattr__(
            self,
            "period_instants",
            sum(l - f + 1 for f, l in zip(self.firsts, self.lasts)),
        )
        runs = []
        for r in range(P):
            gap_from = self.lasts[r] + 1
            gap_to = self.firsts[r + 1] if r + 1 < P else self.firsts[0] + S
            if gap_to > gap_from:
                runs.append((gap_from - self.firsts[0], gap_to - gap_from))
        object.__setattr__(self, "gap_runs", tuple(runs))

    # ------------------------------------------------------------------
    # Tick/instant conversion (O(log P) bisection)
    # ------------------------------------------------------------------
    @property
    def prefix_ticks(self) -> int:
        return len(self.prefix_firsts)

    def instant_of_tick(self, index: int) -> Tuple[int, int]:
        """Exact ``(first, last)`` bounds of any tick index, O(1)."""
        if index < 0:
            raise ValueError("tick index must be non-negative")
        B = len(self.prefix_firsts)
        if index < B:
            return self.prefix_firsts[index], self.prefix_lasts[index]
        q, r = divmod(index - B, self.period_ticks)
        shift = q * self.period_seconds
        return self.firsts[r] + shift, self.lasts[r] + shift

    def tick_of_instant(self, second: int) -> Optional[int]:
        """Tick index covering ``second``, or None in a gap.

        Only meaningful as a ``tick_of`` replacement under
        ``exact_cover``; without it, an instant inside a tick's bounds
        may still be a gap of the underlying type.
        """
        if second < self.firsts[0]:
            if not self.prefix_firsts or second < self.prefix_firsts[0]:
                return None
            slot = bisect_right(self.prefix_firsts, second) - 1
            if second > self.prefix_lasts[slot]:
                return None
            return slot
        q, w = divmod(second - self.firsts[0], self.period_seconds)
        w += self.firsts[0]
        slot = bisect_right(self.firsts, w) - 1
        if w > self.lasts[slot]:
            return None
        return len(self.prefix_firsts) + q * self.period_ticks + slot

    def distance(self, t1: int, t2: int) -> Optional[int]:
        """Tick distance ``tick_of(t2) - tick_of(t1)``, or None."""
        z1 = self.tick_of_instant(t1)
        if z1 is None:
            return None
        z2 = self.tick_of_instant(t2)
        if z2 is None:
            return None
        return z2 - z1

    # ------------------------------------------------------------------
    # Covered-instant bisection (the calendar-algebra building blocks)
    # ------------------------------------------------------------------
    def tick_starting_at_or_after(self, second: int) -> int:
        """Index of the first tick whose *first* instant is >= second."""
        B = len(self.prefix_firsts)
        if self.prefix_firsts and second <= self.prefix_firsts[-1]:
            return bisect_left(self.prefix_firsts, second)
        f0 = self.firsts[0]
        if second <= f0:
            return B
        q, w = divmod(second - f0, self.period_seconds)
        slot = bisect_left(self.firsts, w + f0)
        if slot == self.period_ticks:
            q, slot = q + 1, 0
        return B + q * self.period_ticks + slot

    def first_covered_at_or_after(self, second: int) -> Optional[int]:
        """First instant >= second inside some tick's bounds, or None.

        A *bounds*-coverage question: only meaningful as an instant
        query under ``exact_cover`` (the algebra operators require it
        of their operands).  Never None for a periodic form - every
        period has at least one tick ahead.
        """
        tick = self.tick_of_instant(second)
        if tick is not None:
            return second
        index = self.tick_starting_at_or_after(second)
        return self.instant_of_tick(index)[0]

    def last_covered_at_or_before(self, second: int) -> Optional[int]:
        """Last instant <= second inside some tick's bounds, or None."""
        tick = self.tick_of_instant(second)
        if tick is not None:
            return second
        index = self.tick_starting_at_or_after(second)
        if index == 0:
            return None
        return self.instant_of_tick(index - 1)[1]

    # ------------------------------------------------------------------
    # Batched conversion (whole event columns)
    # ------------------------------------------------------------------
    def ticks_of_instants(self, seconds):
        """``tick_of_instant`` over a whole column of instants.

        Returns ``(ticks, defined)`` parallel lists: ``ticks[i]`` is the
        covering tick index (0 where undefined) and ``defined[i]`` is
        1/0 coverage, exactly the scalar bisection's answers.  A
        one-granule period without gaps, over instants none of which
        precedes its periodic part, is one floor division per instant.
        Otherwise the column is walked forward, tracking the current
        tick and the next one, so a sorted column costs O(n + ticks):
        only an instant past the next tick (a jump) or before the
        current one (out of order) is bisected.
        """
        f0 = self.firsts[0]
        S = self.period_seconds
        if (
            self.period_ticks == 1
            and self.lasts[0] - f0 == S - 1
            and (not seconds or min(seconds) >= f0)
        ):
            B = len(self.prefix_firsts)
            return [B + (t - f0) // S for t in seconds], [1] * len(seconds)
        bounds = self.instant_of_tick
        ticks, defined = [], []
        # The current tick (-1: before tick 0) and the next one; the
        # sentinel bounds route the first instant through a bisection.
        index = -1
        first = last = float("inf")
        next_first, next_last = bounds(0)
        for t in seconds:
            if t > last:
                if t < next_first:
                    ticks.append(0)
                    defined.append(0)
                    continue
                if t <= next_last:
                    index += 1
                    first, last = next_first, next_last
                    next_first, next_last = bounds(index + 1)
                    ticks.append(index)
                    defined.append(1)
                    continue
            elif t >= first:
                ticks.append(index)
                defined.append(1)
                continue
            # A jump or an out-of-order instant: re-seat on the last
            # tick starting at or before ``t``.
            index = self.tick_starting_at_or_after(t + 1) - 1
            if index < 0:
                first = last = float("-inf")
            else:
                first, last = bounds(index)
            next_first, next_last = bounds(index + 1)
            if t <= last:
                ticks.append(index)
                defined.append(1)
            else:
                ticks.append(0)
                defined.append(0)
        return ticks, defined

    def describe(self) -> dict:
        """JSON-friendly summary (the ``repro gran info`` payload)."""
        info = {
            "label": self.label,
            "source": self.source,
            "rule": self.rule or self.source,
            "period_ticks": self.period_ticks,
            "period_seconds": self.period_seconds,
            "period_instants": self.period_instants,
            "prefix_ticks": self.prefix_ticks,
            "gap_runs": len(self.gap_runs),
            "gap_seconds": sum(length for _, length in self.gap_runs),
            "exact_cover": self.exact_cover,
        }
        if self.minimized_from is not None:
            info["minimized_from_period"] = self.minimized_from[0]
            info["minimized_from_prefix"] = self.minimized_from[1]
        return info


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
def _structural_form(ttype: TemporalType) -> Optional[PeriodicNormalForm]:
    """Lower types whose representation *is* the normal form, scan-free."""
    if isinstance(ttype, UniformType):
        return PeriodicNormalForm(
            label=ttype.label,
            period_ticks=1,
            period_seconds=ttype.seconds_per_tick,
            firsts=(ttype.phase,),
            lasts=(ttype.phase + ttype.seconds_per_tick - 1,),
            exact_cover=True,
            source="structural",
            rule="uniform",
        )
    if isinstance(ttype, PeriodicPatternType):
        firsts = tuple(ttype.phase + o for o, _ in ttype.segments)
        lasts = tuple(
            ttype.phase + o + length - 1 for o, length in ttype.segments
        )
        return PeriodicNormalForm(
            label=ttype.label,
            period_ticks=len(ttype.segments),
            period_seconds=ttype.cycle_seconds,
            firsts=firsts,
            lasts=lasts,
            exact_cover=True,
            source="structural",
            rule="pattern",
        )
    return None


def compile_normal_form(ttype: TemporalType) -> PeriodicNormalForm:
    """Lower a temporal type to its minimal periodic normal form.

    Two lowering stages, first match wins, followed by the minimization
    pass of :mod:`repro.granularity.algebra`:

    1. *structural* - uniform and periodic-pattern types whose
       representation is the form;
    2. *algebraic* - every other type, through the calendar-algebra
       rules (Gregorian 400-year cycle, business overlays, custom
       calendar cycles, combinator operators on the operands' compiled
       forms).

    A one-granule structural form (a uniform type) is minimal by
    construction, so it skips the pass and never loads the algebra.

    Raises :class:`NormalFormError` (with a machine-readable
    ``reason``) when no rule applies, a derived recurrence fails
    verification, or the form would exceed the :data:`MAX_PERIOD_TICKS`
    budget.  The compilation is recorded under a ``sizetable.compile``
    span and counts into ``repro_sizetable_compiles_total``.
    """
    with span("sizetable.compile", label=ttype.label) as compile_span:
        _COMPILES.inc()
        form = _structural_form(ttype)
        if form is None or form.period_ticks > 1:
            from .algebra import lower_algebraic, minimize_form

            if form is None:
                form = lower_algebraic(ttype)
            if form is None:
                raise NormalFormError(
                    "no lowering rule applies to type %r" % (ttype.label,)
                )
            form = minimize_form(form)
        compile_span.set(
            source=form.source, rule=form.rule, period=form.period_ticks
        )
        return form


def explain_normal_form(ttype: TemporalType) -> dict:
    """Compile provenance for ``repro gran info``.

    On success, the form's :meth:`~PeriodicNormalForm.describe` payload
    plus ``compiles: True``; on failure a structured
    ``{compiles: False, reason, detail}`` record instead of a bare
    exception.
    """
    try:
        form = compile_normal_form(ttype)
    except NormalFormError as exc:
        return {
            "compiles": False,
            "label": ttype.label,
            "reason": exc.reason,
            "detail": str(exc),
        }
    info = form.describe()
    info["compiles"] = True
    return info


_FORM_CACHE_ATTR = "_normal_form_cache"

_FALLBACK_COUNTERS: dict = {}


def _count_fallback(reason: str) -> None:
    """Bump ``repro_sizetable_fallback_total{reason}`` (lazy registry)."""
    fallback = _FALLBACK_COUNTERS.get(reason)
    if fallback is None:
        fallback = counter(
            "repro_sizetable_fallback_total",
            "Types that fell back to the sweep backend, by compile-failure "
            "reason",
            labels={"reason": reason},
        )
        _FALLBACK_COUNTERS[reason] = fallback
    fallback.inc()


def cached_normal_form(ttype: TemporalType) -> Optional[PeriodicNormalForm]:
    """Compile once per type instance; None when the type doesn't lower.

    The form (or the negative answer) is cached on the instance, so
    repeated table construction, clock evaluation and fork-inherited
    worker state all share a single compilation.  Each negative answer
    counts into ``repro_sizetable_fallback_total{reason}`` once.
    """
    cached = ttype.__dict__.get(_FORM_CACHE_ATTR, False)
    if cached is not False:
        return cached
    try:
        form: Optional[PeriodicNormalForm] = compile_normal_form(ttype)
    except NormalFormError as exc:
        _count_fallback(exc.reason)
        form = None
    try:
        setattr(ttype, _FORM_CACHE_ATTR, form)
    except AttributeError:  # pragma: no cover - slotted third-party type
        pass
    return form


# ----------------------------------------------------------------------
# The compiled size-table backend
# ----------------------------------------------------------------------
class CompiledSizeTable(TableSearches):
    """Closed-form size table over a periodic normal form.

    Drop-in compatible with :class:`~repro.granularity.sizes.SizeTable`
    (``minsize``/``maxsize``/``mingap``, the ``min_k_*`` searches,
    ``bounds``/``scanned_ticks``/``probe_stats`` and the
    ``probes``/``probe_hits`` counters) but *exact for every k*: a
    query decomposes into whole periods plus a per-residue extremum
    over the doubled boundary arrays, O(period) for the first probe of
    a residue and O(1) from the bounded memo afterwards.

    ``bounds``/``scanned_ticks`` mirror the sweep backend's virtual
    horizon (``max(horizon, 3 * period + 2)``) so the direct
    boundary-scan conversion visits the identical index range and both
    backends produce bit-identical conversion outcomes.
    """

    backend = "compiled"

    def __init__(
        self,
        ttype: TemporalType,
        form: Optional[PeriodicNormalForm] = None,
        horizon: int = 512,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
    ):
        if form is None:
            form = compile_normal_form(ttype)
        self.ttype = ttype
        self.form = form
        P = form.period_ticks
        S = form.period_seconds
        self._P = P
        self._S = S
        self._B = form.prefix_ticks
        self._firsts = form.firsts
        self._lasts = form.lasts
        # Doubled arrays: index j in [0, 2P) is tick j of the periodic
        # part, second copy shifted one period - every window of up to
        # one period starting anywhere in a period stays in range.
        self._firsts_ext = form.firsts + tuple(f + S for f in form.firsts)
        self._lasts_ext = form.lasts + tuple(l + S for l in form.lasts)
        # Mirror the sweep backend's virtual horizon *exactly*: the
        # sweep widens to 3 * declared-period + 2 only for types that
        # declare period_info() themselves.  Types that declare none
        # (months, holiday-laden business overlays) keep the caller's
        # horizon, and with it the index range the direct boundary-scan
        # conversion visits; widening here would change conversion
        # outcomes between backends.
        declared = getattr(ttype, "period_info", None)
        info = declared() if callable(declared) else None
        if info is not None:
            self.horizon = max(horizon, 3 * int(info[0]) + 2)
        else:
            self.horizon = horizon
        self._min_base = BoundedMemo(memo_entries)
        self._max_base = BoundedMemo(memo_entries)
        self._gap_base = BoundedMemo(memo_entries)
        self.probes = 0
        self.probe_hits = 0
        #: Probes answered in closed form (everything the memo did not).
        self.compiled_hits = 0

    # ------------------------------------------------------------------
    # SizeTable-compatible boundary access
    # ------------------------------------------------------------------
    def bounds(self, index: int):
        """Exact ``tick_bounds``; None beyond the virtual horizon.

        The None cut-off mirrors the sweep backend's horizon so both
        backends expose the identical scan range to the direct
        conversion (the closed form itself has no horizon).
        """
        if index < 0:
            raise ValueError("tick index must be non-negative")
        if index >= self.horizon:
            return None
        return self.form.instant_of_tick(index)

    def scanned_ticks(self) -> int:
        """Ticks with exactly-known boundaries (the virtual horizon)."""
        return self.horizon

    @property
    def memo_evictions(self) -> int:
        """Entries the LRU bound evicted across the residue memos."""
        return (
            self._min_base.evictions
            + self._max_base.evictions
            + self._gap_base.evictions
        )

    def probe_stats(self) -> dict:
        """JSON-friendly counters of table probes and memo hits."""
        return {
            "backend": self.backend,
            "probes": self.probes,
            "memo_hits": self.probe_hits,
            "scanned_ticks": self._B + self._P,
            "memo_evictions": self.memo_evictions,
            "compiled_hits": self.compiled_hits,
        }

    # ------------------------------------------------------------------
    # Per-residue extrema (the per-phase arrays behind the closed forms)
    # ------------------------------------------------------------------
    def _min_span_base(self, r: int) -> int:
        """``min`` span of ``r`` consecutive periodic ticks, r in [1, P].

        The window end for phase ``a`` is tick ``a + r - 1`` of the
        doubled array, so one pass over an aligned slice visits every
        phase - this is the hot loop of a residue's first probe.
        """
        ends = self._lasts_ext[r - 1 : r - 1 + self._P]
        return min(map(sub, ends, self._firsts)) + 1

    def _max_span_base(self, r: int) -> int:
        ends = self._lasts_ext[r - 1 : r - 1 + self._P]
        return max(map(sub, ends, self._firsts)) + 1

    def _gap_base_value(self, r: int) -> int:
        """``min first(a + r) - last(a)`` over periodic phases, r in [0, P)."""
        starts = self._firsts_ext[r : r + self._P]
        return min(map(sub, starts, self._lasts))

    def _prefix_spans(self, k: int):
        """Spans of the k-windows starting inside the aperiodic prefix."""
        form = self.form
        for a in range(self._B):
            first, _ = form.instant_of_tick(a)
            _, last = form.instant_of_tick(a + k - 1)
            yield last - first + 1

    # ------------------------------------------------------------------
    # Table entries (exact for every k)
    # ------------------------------------------------------------------
    def minsize(self, k: int) -> int:
        """Minimum span (in seconds) of ``k`` consecutive ticks; exact."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            return 0
        self.probes += 1
        _PROBES_COMPILED.inc()
        q, r = divmod(k - 1, self._P)
        r += 1
        base = self._min_base.get(r)
        if base is not None:
            self.probe_hits += 1
        else:
            base = self._min_span_base(r)
            self._min_base.put(r, base)
            self.compiled_hits += 1
            _COMPILED_HITS.inc()
        value = q * self._S + base
        if self._B:
            value = min(value, min(self._prefix_spans(k)))
        return value

    def maxsize(self, k: int) -> int:
        """Maximum span (in seconds) of ``k`` consecutive ticks; exact."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            return 0
        self.probes += 1
        _PROBES_COMPILED.inc()
        q, r = divmod(k - 1, self._P)
        r += 1
        base = self._max_base.get(r)
        if base is not None:
            self.probe_hits += 1
        else:
            base = self._max_span_base(r)
            self._max_base.put(r, base)
            self.compiled_hits += 1
            _COMPILED_HITS.inc()
        value = q * self._S + base
        if self._B:
            value = max(value, max(self._prefix_spans(k)))
        return value

    def mingap(self, k: int) -> int:
        """Minimum of ``first(i + k) - last(i)`` over all ``i``; exact."""
        if k < 0:
            raise ValueError("k must be non-negative")
        self.probes += 1
        _PROBES_COMPILED.inc()
        q, r = divmod(k, self._P)
        base = self._gap_base.get(r)
        if base is not None:
            self.probe_hits += 1
        else:
            base = self._gap_base_value(r)
            self._gap_base.put(r, base)
            self.compiled_hits += 1
            _COMPILED_HITS.inc()
        value = q * self._S + base
        if self._B:
            form = self.form
            for a in range(self._B):
                _, last = form.instant_of_tick(a)
                first, _ = form.instant_of_tick(a + k)
                value = min(value, first - last)
        return value


# ----------------------------------------------------------------------
# The fast clock path
# ----------------------------------------------------------------------
def clock_form(ttype: TemporalType) -> Optional[PeriodicNormalForm]:
    """The normal form backing fast clock evaluation, or None.

    None when the type does not lower or the form cannot certify exact
    instant coverage (a boundary-only form must not decide coverage
    questions); the type's own ``tick_of`` answers then.
    """
    form = cached_normal_form(ttype)
    if form is None or not form.exact_cover:
        return None
    return form


def clock_tick_of(ttype: TemporalType, second: int) -> Optional[int]:
    """``tick_of`` via O(log P) bisection when the type lowers."""
    form = clock_form(ttype)
    if form is not None:
        return form.tick_of_instant(second)
    return ttype.tick_of(second)


def clock_distance(ttype: TemporalType, t1: int, t2: int) -> Optional[int]:
    """``distance`` via O(log P) bisection when the type lowers."""
    form = clock_form(ttype)
    if form is not None:
        return form.distance(t1, t2)
    return ttype.distance(t1, t2)


def covered_set_form(ttype: TemporalType) -> Optional[PeriodicNormalForm]:
    """A form whose ticks cover exactly the instants ``ttype`` covers.

    The type's own normal form when it certifies ``exact_cover``.  A
    business week or month skips weekends and holidays inside its
    bounds, but covers exactly the instants of its business day, so its
    business day's form stands in.  None otherwise: coverage questions
    about the type are then refused.
    """
    from .business import BusinessMonthType, BusinessWeekType

    if isinstance(ttype, (BusinessWeekType, BusinessMonthType)):
        ttype = ttype.bday
    return clock_form(ttype)


def form_covers(
    target: PeriodicNormalForm, source: PeriodicNormalForm
) -> bool:
    """Does every instant of a ``source`` tick lie in a ``target`` tick?

    Exact over the whole timeline; an instant question only when both
    forms certify ``exact_cover`` (see :func:`covered_set_form`).  Both
    coverage patterns repeat from ``start``, the later of the two
    periodic starts:

    * below ``start``, target gap runs are probed with the source's
      ``first_covered_at_or_after``, leaping from each probe's answer
      to the next target gap, so every target gap inside a source gap
      is skipped unvisited;
    * from ``start`` on, a target gap run at ``g`` repeats every
      ``S_t`` and a source covered run at ``c`` every ``S_s``, so their
      instances can meet exactly when some multiple of
      ``gcd(S_t, S_s)`` lands in the window of offsets ``c - g`` at
      which the two runs overlap.

    The cost is the fewer of the target gap runs and the source covered
    runs below ``start``, plus target gap runs times source covered
    runs per period: never a per-second or per-tick walk.
    """
    start = max(target.firsts[0], source.firsts[0])
    early_gaps = _prefix_gaps(target)
    instant = 0
    while True:
        gap = _gap_ending_at_or_after(target, early_gaps, instant)
        if gap is None or gap[0] >= start:
            break
        instant = source.first_covered_at_or_after(gap[0])
        if instant <= gap[1]:
            return False
    step = gcd(target.period_seconds, source.period_seconds)
    runs = _covered_runs(source)
    for gap_offset, gap_length in target.gap_runs:
        gap = target.firsts[0] + gap_offset
        for run_offset, run_length in runs:
            shift = gap - (source.firsts[0] + run_offset)
            # Is some multiple of ``step`` in
            # [shift - run_length + 1, shift + gap_length - 1]?
            if (shift + gap_length - 1) // step * step > shift - run_length:
                return False
    return True


def _prefix_gaps(form: PeriodicNormalForm):
    """``(firsts, lasts)`` of the uncovered runs before ``firsts[0]``."""
    firsts, lasts = [], []
    covered_to = -1
    for first, last in zip(form.prefix_firsts, form.prefix_lasts):
        if first > covered_to + 1:
            firsts.append(covered_to + 1)
            lasts.append(first - 1)
        covered_to = last
    if form.firsts[0] > covered_to + 1:
        firsts.append(covered_to + 1)
        lasts.append(form.firsts[0] - 1)
    return firsts, lasts


def _gap_ending_at_or_after(form: PeriodicNormalForm, early_gaps, second):
    """The first uncovered ``(first, last)`` run with ``last >= second``,
    or None when the form has no gap from there on."""
    early_firsts, early_lasts = early_gaps
    slot = bisect_left(early_lasts, second)
    if slot < len(early_lasts):
        return early_firsts[slot], early_lasts[slot]
    if not form.gap_runs:
        return None
    f0 = form.firsts[0]
    q, w = divmod(max(second, f0) - f0, form.period_seconds)
    for offset, length in form.gap_runs:
        if offset + length - 1 >= w:
            break
    else:
        q += 1
        offset, length = form.gap_runs[0]
    first = f0 + q * form.period_seconds + offset
    return first, first + length - 1


def _covered_runs(form: PeriodicNormalForm):
    """``(offset, length)`` of the covered runs in one period, the
    complement of ``gap_runs`` (offsets from ``firsts[0]``)."""
    runs = []
    cursor = 0
    for offset, length in form.gap_runs:
        runs.append((cursor, offset - cursor))
        cursor = offset + length
    if cursor < form.period_seconds:
        runs.append((cursor, form.period_seconds - cursor))
    return runs


def clock_ticks_of(ttype: TemporalType, seconds):
    """Batched ``clock_tick_of`` over a whole timestamp column.

    Returns ``(ticks, defined)`` parallel lists (tick 0 where
    undefined).  With a compiled exact-cover form the column goes
    through :meth:`PeriodicNormalForm.ticks_of_instants`.  A business
    week or month lowers without exact cover but has a covered-set form
    (:func:`covered_set_form`): an instant it covers lies inside exactly
    one tick's bounds, so the tick comes from the type's own form and
    the coverage from its business day's, each one walk.  For types
    that do not lower each element goes through the type's own
    ``tick_of`` with a per-value memo - the path the compiled one is
    differentially tested against (through
    :class:`repro.bench.reference.Unlowered`).
    """
    form = clock_form(ttype)
    if form is not None:
        return form.ticks_of_instants(seconds)
    form = cached_normal_form(ttype)
    cover = covered_set_form(ttype) if form is not None else None
    if cover is not None:
        ticks, _ = form.ticks_of_instants(seconds)
        _, defined = cover.ticks_of_instants(seconds)
        return list(map(mul, ticks, defined)), defined
    ticks, defined = [], []
    memo: dict = {}
    for t in seconds:
        t = int(t)
        if t in memo:
            z = memo[t]
        else:
            z = ttype.tick_of(t)
            memo[t] = z
        ticks.append(0 if z is None else z)
        defined.append(0 if z is None else 1)
    return ticks, defined
