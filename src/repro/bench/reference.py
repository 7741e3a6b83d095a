"""The window-sweep reference the compiled granularity paths are held to.

Production lets each type choose: a type that lowers to a periodic
normal form gets the compiled size table and the bisection clock, a
type that does not gets the window-sweep :class:`~repro.granularity.
sizes.SizeTable` and its own ``tick_of``.  The benchmark harness and
the differential tests need the second answer for types that *do*
lower, and this module builds it without any switch:

* :class:`SweepSystem` / :func:`sweep_system` - a granularity system
  whose every size table is the sweep (conversions and propagation
  over it are the reference for table-driven results);
* :class:`Unlowered` - a type with the same label, ticks and coverage
  as the one it wraps, but no lowering route, so ``cached_normal_form``
  refuses it and clocks over it take the real fallback route through
  the wrapped type's ``tick_of``.

No production module imports this one.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..granularity.base import TemporalType
from ..granularity.registry import GranularitySystem, standard_system
from ..granularity.sizes import SizeTable


class SweepSystem(GranularitySystem):
    """A granularity system whose every size table is the window sweep."""

    def table(self, ttype_or_label) -> SizeTable:
        ttype = self.resolve(ttype_or_label)
        tab = self._tables.get(ttype.label)
        if tab is None:
            tab = SizeTable(ttype, horizon=self.horizon)
            self._tables[ttype.label] = tab
        return tab


def sweep_system(**kwargs) -> SweepSystem:
    """``standard_system(**kwargs)`` with every size table on the sweep."""
    stock = standard_system(**kwargs)
    return SweepSystem(
        [stock.get(label) for label in stock.labels()],
        horizon=stock.horizon,
        conversion_mode=stock.conversion_mode,
        cache=stock.conversion_cache,
    )


class Unlowered(TemporalType):
    """``base`` with every lowering route closed.

    Same label, ticks and coverage as ``base``; it declares no period
    and no calendar-algebra rule knows its class, so
    ``cached_normal_form`` refuses it with ``reason="no-period"`` (and
    counts the fallback, as for any type that does not lower).
    """

    def __init__(self, base: TemporalType):
        self.base = base
        self.label = base.label
        self.alignment_seconds = base.alignment_seconds
        self.total = base.total

    def tick_of(self, second: int) -> Optional[int]:
        return self.base.tick_of(second)

    def tick_bounds(self, index: int) -> Tuple[int, int]:
        return self.base.tick_bounds(index)
