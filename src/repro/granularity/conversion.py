"""Constraint conversion between granularities (paper appendix A.1).

Implements the Figure 3 algorithm: given a constraint
``Y - X in [m, n]_mu1``, derive an *implied* constraint
``Y - X in [m', n']_mu2``:

* ``n' = min { s : minsize(mu2, s) >= maxsize(mu1, n + 1) - 1 }``
* ``m' = min { r : maxsize(mu2, r) > mingap(mu1, m) } - 1``

with the feasibility precondition that every instant covered by the
source type is covered by the target type (otherwise the derived
constraint's ``ceil`` operator could be undefined for events satisfying
the original constraint, and the conversion would not be implied).

Soundness (proved in the module tests by exhaustive/property checks): if
timestamps ``t1 <= t2`` satisfy ``[m, n]_mu1`` and both are covered by
``mu2``, then they satisfy ``[m', n']_mu2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .base import TemporalType
from .normalform import covered_set_form, form_covers
from .sizes import SizeTable


@dataclass(frozen=True)
class ConversionOutcome:
    """Result of converting one interval between granularities.

    ``interval`` is None when no finite implied constraint exists within
    the search cap (the conversion is then simply not added, which keeps
    the propagation sound).  ``empty`` is True when the implied interval
    is empty, i.e. the source constraint is unsatisfiable for instants
    covered by the target - an inconsistency witness.
    """

    interval: Optional[Tuple[int, int]]
    empty: bool = False


def convert_interval(
    m: int,
    n: int,
    source_table: SizeTable,
    target_table: SizeTable,
    cap: int = 1 << 24,
) -> ConversionOutcome:
    """Convert ``[m, n]`` from the source type to the target type.

    The caller is responsible for having checked feasibility (see
    :func:`type_covers`); this function is pure table arithmetic.
    """
    if m < 0 or n < m:
        raise ValueError("invalid interval [%r, %r]" % (m, n))
    max_span = source_table.maxsize(n + 1) - 1
    upper = target_table.min_k_with_minsize_at_least(max_span, cap=cap)
    if upper is None:
        return ConversionOutcome(interval=None)
    min_gap = source_table.mingap(m)
    lower_plus_one = target_table.min_k_with_maxsize_greater(min_gap, cap=cap)
    lower = 0 if lower_plus_one is None else max(lower_plus_one - 1, 0)
    if lower > upper:
        return ConversionOutcome(interval=None, empty=True)
    return ConversionOutcome(interval=(lower, upper))


def direct_convert_interval(
    m: int,
    n: int,
    source_table: SizeTable,
    target_table: SizeTable,
) -> ConversionOutcome:
    """Tight sound conversion by direct boundary scanning.

    Instead of going through the primitive type twice (Figure 3), this
    computes the implied target interval from the actual positions of
    source-tick boundaries inside the target type:

    * lower bound: 0 when ``m = 0``, else
      ``min_i  tick_tgt(first(src, i+m)) - tick_tgt(last(src, i))``
      (the closest two instants at source distance ``m`` can sit);
    * upper bound:
      ``max_i  tick_tgt(last(src, i+n)) - tick_tgt(first(src, i))``.

    The scan runs over the source table's horizon; for the (eventually)
    periodic calendar types this is exact, and it is what the follow-up
    literature on direct multi-granularity conversions computes.  The
    caller must have established feasibility (target covers source).

    Raises ValueError (the caller falls back to Figure 3) when the
    horizon holds too few windows: fewer than ``n + 2`` source ticks,
    or window starts spanning less than
    ``maxsize(target, 2) - minsize(target, 1)`` seconds - a bound on
    the gap between consecutive target tick starts, so a shorter scan
    may see no window straddle a target boundary (``[0, 359]second``
    would imply ``[0, 0]hour`` from the first 512 seconds alone).
    """
    if m < 0 or n < m:
        raise ValueError("invalid interval [%r, %r]" % (m, n))
    source = source_table.ttype
    target = target_table.ttype
    scanned = source_table.scanned_ticks()
    if scanned <= n + 1:
        raise ValueError(
            "horizon %d too small for direct conversion of [%d, %d]"
            % (scanned, m, n)
        )
    starts_span = (
        source_table.bounds(scanned - n - 1)[0] - source_table.bounds(0)[0]
    )
    if starts_span < target_table.maxsize(2) - target_table.minsize(1):
        raise ValueError(
            "window starts span %d s, less than one %s step"
            % (starts_span, target.label)
        )
    lower = None
    upper = None
    for i in range(scanned - n):
        first_i, last_i = source_table.bounds(i)
        if m == 0:
            low_candidate = 0
        else:
            first_im, _ = source_table.bounds(i + m)
            c_from = target.tick_of(last_i)
            c_to = target.tick_of(first_im)
            if c_from is None or c_to is None:
                return ConversionOutcome(interval=None)
            low_candidate = max(0, c_to - c_from)
        _, last_in = source_table.bounds(i + n)
        d_from = target.tick_of(first_i)
        d_to = target.tick_of(last_in)
        if d_from is None or d_to is None:
            return ConversionOutcome(interval=None)
        high_candidate = d_to - d_from
        lower = low_candidate if lower is None else min(lower, low_candidate)
        upper = high_candidate if upper is None else max(upper, high_candidate)
    if lower is None or upper is None:
        return ConversionOutcome(interval=None)
    return ConversionOutcome(interval=(lower, upper))


def type_covers(target: TemporalType, source: TemporalType) -> bool:
    """The A.1 feasibility condition: does ``target`` cover ``source``?

    That is, does every instant belonging to a tick of ``source`` belong
    to some tick of ``target``?  Decided exactly over the whole timeline:

    * a ``target`` declared :attr:`~repro.granularity.base.TemporalType.
      total` covers everything by construction - certified at once;
    * otherwise the two types' covered-set forms
      (:func:`~repro.granularity.normalform.covered_set_form`) are
      compared by :func:`~repro.granularity.normalform.form_covers`;
    * a type without a covered-set form refuses to certify (returns
      False), which merely drops a conversion - always sound.
    """
    if target.total:
        return True
    target_form = covered_set_form(target)
    if target_form is None:
        return False
    source_form = covered_set_form(source)
    if source_form is None:
        return False
    return form_covers(target_form, source_form)
