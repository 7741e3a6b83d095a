"""Granularity systems: named collections of temporal types.

A :class:`GranularitySystem` is the run-time context every higher layer
(constraint propagation, TAG matching, mining) works in: it owns the
types, their size tables, and the cached pairwise conversion-feasibility
relation.  The paper calls this "the considered granularity system" and
assumes a primitive type (seconds here) covering all of absolute time.

Each type chooses its own size table: the compiled closed form when it
lowers to a periodic normal form (:mod:`repro.granularity.normalform`),
the window sweep otherwise.  The all-sweep system the compiled tables
are held against is the tests' ``SweepSystem``
(``tests/differential/reference.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from . import calendar as cal
from .base import TemporalType, UniformType
from .business import BusinessDayType, BusinessMonthType, BusinessWeekType
from .conversion import (
    ConversionOutcome,
    convert_interval,
    direct_convert_interval,
    type_covers,
)
from .convcache import ConversionCache, global_conversion_cache, new_namespace
from .normalform import (
    CompiledSizeTable,
    PeriodicNormalForm,
    cached_normal_form,
    covered_set_form,
)
from .periodic import PeriodicPatternType
from .sizes import SizeTable

#: Conversion strategies: "direct" scans actual boundary positions
#: (tight, the production default); "figure3" is the paper's table-based
#: appendix A.1 algorithm (kept for fidelity experiments).
CONVERSION_MODES = ("direct", "figure3")


class GranularitySystem:
    """A registry of temporal types with cached tables and conversions."""

    def __init__(
        self,
        types: Iterable[TemporalType] = (),
        horizon: int = 512,
        conversion_mode: str = "direct",
        cache: Optional[ConversionCache] = None,
    ):
        if conversion_mode not in CONVERSION_MODES:
            raise ValueError(
                "conversion_mode must be one of %r" % (CONVERSION_MODES,)
            )
        self.horizon = horizon
        self.conversion_mode = conversion_mode
        self._types: Dict[str, TemporalType] = {}
        self._tables: Dict[str, SizeTable] = {}
        self._covers: Dict[Tuple[str, str], bool] = {}
        # Conversion outcomes live in a process-wide ConversionCache
        # shared across propagation, mining and TAG construction; each
        # system gets its own key namespace because equal labels may
        # name behaviourally different types across systems.
        self._cache = cache if cache is not None else global_conversion_cache()
        self._cache_namespace = new_namespace()
        for ttype in types:
            self.register(ttype)

    @property
    def conversion_cache(self) -> ConversionCache:
        """The cache this system stores conversion outcomes in."""
        return self._cache

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, ttype: TemporalType) -> TemporalType:
        """Add a type; re-registering an equivalent type is a no-op.

        Two types with the same label must agree behaviourally (see
        :func:`_same_type`); otherwise registration is rejected to keep
        labels unambiguous.
        """
        existing = self._types.get(ttype.label)
        if existing is not None:
            if existing is ttype or _same_type(existing, ttype):
                return existing
            raise ValueError(
                "label %r already registered with a different type"
                % (ttype.label,)
            )
        self._types[ttype.label] = ttype
        return ttype

    def get(self, label: str) -> TemporalType:
        """Look up a type by label; raises KeyError when unknown."""
        return self._types[label]

    def __contains__(self, label: str) -> bool:
        return label in self._types

    def labels(self) -> List[str]:
        """All registered labels, in registration order."""
        return list(self._types)

    def resolve(self, ttype_or_label) -> TemporalType:
        """Accept either a label or a type (registering the latter)."""
        if isinstance(ttype_or_label, str):
            return self.get(ttype_or_label)
        if isinstance(ttype_or_label, TemporalType):
            return self.register(ttype_or_label)
        raise TypeError(
            "expected a TemporalType or label, got %r" % (ttype_or_label,)
        )

    # ------------------------------------------------------------------
    # Tables and conversions
    # ------------------------------------------------------------------
    def table(self, ttype_or_label) -> SizeTable:
        """The (cached) size table of a registered type.

        A :class:`~repro.granularity.normalform.CompiledSizeTable` when
        the type lowers to a periodic normal form (compiled once per
        type instance by ``cached_normal_form``), the window-sweep
        :class:`SizeTable` otherwise.
        """
        ttype = self.resolve(ttype_or_label)
        tab = self._tables.get(ttype.label)
        if tab is None:
            form = cached_normal_form(ttype)
            if form is None:
                tab = SizeTable(ttype, horizon=self.horizon)
            else:
                tab = CompiledSizeTable(
                    ttype, form=form, horizon=self.horizon
                )
            self._tables[ttype.label] = tab
        return tab

    def conversion_feasible(self, source, target) -> bool:
        """Cached A.1 feasibility: does ``target`` cover ``source``?"""
        src = self.resolve(source)
        tgt = self.resolve(target)
        if src.label == tgt.label:
            return True
        key = (src.label, tgt.label)
        result = self._covers.get(key)
        if result is None:
            result = type_covers(tgt, src)
            self._covers[key] = result
        return result

    def convert(
        self, m: int, n: int, source, target, mode: Optional[str] = None
    ) -> ConversionOutcome:
        """Convert ``[m, n]_source`` into an implied ``[m', n']_target``.

        Returns an outcome with ``interval=None`` when the conversion is
        infeasible (target does not cover source) or yields no finite
        bound.  ``mode`` overrides the system-wide conversion strategy.
        """
        src = self.resolve(source)
        tgt = self.resolve(target)
        if src.label == tgt.label:
            return ConversionOutcome(interval=(m, n))
        mode = mode if mode is not None else self.conversion_mode
        if mode not in CONVERSION_MODES:
            raise ValueError("unknown conversion mode %r" % (mode,))
        key = (self._cache_namespace, m, n, src.label, tgt.label, mode)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if not self.conversion_feasible(src, tgt):
            outcome = ConversionOutcome(interval=None)
        elif mode == "figure3":
            outcome = convert_interval(m, n, self.table(src), self.table(tgt))
        else:
            try:
                outcome = direct_convert_interval(
                    m, n, self.table(src), self.table(tgt)
                )
            except ValueError:
                # The direct scan cannot see every target phase of this
                # range: fall back to the sound table-based method.
                outcome = convert_interval(
                    m, n, self.table(src), self.table(tgt)
                )
        self._cache.put(key, outcome)
        return outcome

    def size_table_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-label probe counters of the instantiated size tables."""
        return {
            label: table.probe_stats()
            for label, table in sorted(self._tables.items())
        }


def _same_type(a: TemporalType, b: TemporalType) -> bool:
    """Behavioural equality of two types of the same label.

    Exact when both types lower: compiled forms are minimal, hence
    canonical, so equal types have equal tick bounds, and the
    covered-set forms settle the instants inside the bounds (a holiday
    inside a business month moves none of its bounds).  Uniform and
    periodic-pattern types with equal parameters are equal without
    compiling (propagation and checkpoint rehydration re-register
    fresh copies of them).  Types that do not lower fall back to
    comparing leading ticks.
    """
    if type(a) is not type(b):
        return False
    parameters = _defining_parameters(a)
    if parameters is not None and parameters == _defining_parameters(b):
        return True
    form_a = cached_normal_form(a)
    form_b = cached_normal_form(b)
    if form_a is None or form_b is None:
        return _same_prefix(a, b)
    return _tick_key(form_a) == _tick_key(form_b) and _tick_key(
        covered_set_form(a)
    ) == _tick_key(covered_set_form(b))


def _defining_parameters(ttype: TemporalType):
    """The parameters of a uniform or periodic-pattern type, else None.

    Exact classes only: a subclass may depend on more than these.
    """
    if type(ttype) is UniformType:
        return ttype.seconds_per_tick, ttype.phase
    if type(ttype) is PeriodicPatternType:
        return ttype.cycle_seconds, ttype.segments, ttype.phase
    return None


def _tick_key(form: Optional[PeriodicNormalForm]):
    """A form's ticks as a comparable value; None without a form."""
    if form is None:
        return None
    return (
        form.period_ticks,
        form.period_seconds,
        form.firsts,
        form.lasts,
        form.prefix_firsts,
        form.prefix_lasts,
    )


def _same_prefix(a: TemporalType, b: TemporalType, ticks: int = 8) -> bool:
    """Heuristic behavioural equality: identical leading ticks."""
    for index in range(ticks):
        try:
            bounds_a = a.tick_bounds(index)
        except ValueError:
            bounds_a = None
        try:
            bounds_b = b.tick_bounds(index)
        except ValueError:
            bounds_b = None
        if bounds_a != bounds_b:
            return False
    return True


def standard_system(
    holidays: Iterable[int] = (),
    workdays: Tuple[int, ...] = (0, 1, 2, 3, 4),
    horizon: int = 512,
    conversion_mode: str = "direct",
    cache: Optional[ConversionCache] = None,
) -> GranularitySystem:
    """The paper's working granularity system.

    Contains ``second``, ``minute``, ``hour``, ``day``, ``week``,
    ``month``, ``year`` plus the business types ``b-day``, ``b-week``
    and ``business-month`` built over the given workday pattern and
    holiday list (day indices).
    """
    bday = BusinessDayType(workdays=workdays, holidays=holidays)
    system = GranularitySystem(
        [
            cal.second(),
            cal.minute(),
            cal.hour(),
            cal.day(),
            cal.week(),
            cal.month(),
            cal.year(),
            bday,
            BusinessWeekType(bday=bday),
            BusinessMonthType(bday=bday),
        ],
        horizon=horizon,
        conversion_mode=conversion_mode,
        cache=cache,
    )
    return system
