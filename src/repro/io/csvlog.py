"""CSV event logs, with a from-scratch calendar timestamp parser.

Real event feeds arrive as flat files; this module reads and writes the
library's :class:`~repro.mining.events.EventSequence` as two-column CSV
(``event_type,timestamp``).  Timestamps may be

* plain integers (seconds of the absolute timeline), or
* calendar stamps ``YYYY-MM-DD``, ``YYYY-MM-DD HH:MM`` or
  ``YYYY-MM-DD HH:MM:SS`` interpreted in the library's synthetic
  proleptic Gregorian calendar (no ``datetime`` involved).
"""

from __future__ import annotations

import csv
import re
from itertools import chain
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from ..granularity import gregorian as greg
from ..mining.events import Event, EventSequence
from ..resilience.quarantine import Quarantine

_STAMP = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})(?:[ T](\d{2}):(\d{2})(?::(\d{2}))?)?$"
)


class CsvFormatError(ValueError):
    """Raised on malformed CSV rows or timestamps."""


def parse_timestamp(text: str) -> int:
    """Parse an integer or calendar timestamp into absolute seconds."""
    text = text.strip()
    if text.isdecimal():
        return int(text)
    match = _STAMP.match(text)
    if match is None:
        raise CsvFormatError("unparseable timestamp %r" % (text,))
    year, month, day = (int(match.group(i)) for i in (1, 2, 3))
    hour = int(match.group(4) or 0)
    minute = int(match.group(5) or 0)
    second = int(match.group(6) or 0)
    if hour > 23 or minute > 59 or second > 59:
        raise CsvFormatError("time of day out of range in %r" % (text,))
    try:
        day_index = greg.ymd_to_day(year, month, day)
    except ValueError as exc:
        raise CsvFormatError(str(exc))
    if day_index < 0:
        raise CsvFormatError(
            "date %r precedes the epoch (%d-01-01)" % (text, greg.EPOCH_YEAR)
        )
    return (
        day_index * greg.SECONDS_PER_DAY
        + hour * greg.SECONDS_PER_HOUR
        + minute * greg.SECONDS_PER_MINUTE
        + second
    )


def format_timestamp(seconds: int) -> str:
    """Render absolute seconds as ``YYYY-MM-DD HH:MM:SS``."""
    if seconds < 0:
        raise ValueError("timestamps are non-negative")
    day_index, within = divmod(seconds, greg.SECONDS_PER_DAY)
    year, month, day = greg.day_to_ymd(day_index)
    hour, within = divmod(within, greg.SECONDS_PER_HOUR)
    minute, second = divmod(within, greg.SECONDS_PER_MINUTE)
    return "%04d-%02d-%02d %02d:%02d:%02d" % (
        year,
        month,
        day,
        hour,
        minute,
        second,
    )


def read_events(
    source: Union[str, IO],
    has_header: bool = None,
    quarantine: Optional[Quarantine] = None,
) -> EventSequence:
    """Read an event sequence from CSV.

    ``has_header`` None (default) auto-detects a header row by checking
    whether the second column of the first row parses as a timestamp.

    Without a ``quarantine`` the read is strict: the first malformed
    row raises :class:`CsvFormatError` (historical behaviour).  With
    one, malformed rows (too few columns, unparseable timestamps,
    empty event types) are recorded there - line number, reason, raw
    row - and reading continues (dead-letter semantics, shared with
    :meth:`repro.store.EventStore.load_jsonl`).
    """
    if isinstance(source, str):
        with open(source, newline="") as handle:
            return read_events(
                handle, has_header=has_header, quarantine=quarantine
            )
    reader = csv.reader(source)
    number = 1
    if has_header is None:
        first = next(reader, None)
        if first is not None and _is_header(first):
            number = 2
        elif first is not None:
            reader = chain((first,), reader)
    elif has_header:
        next(reader, None)
        number = 2
    # The columns, and one string per distinct (stripped) type.
    vocab: List[str] = []
    type_index: Dict[str, int] = {}
    type_ids: List[int] = []
    times: List[int] = []
    for number, row in enumerate(reader, start=number):
        if len(row) == 2:
            # The common row, ``type,seconds`` with no padding: the
            # type is already known and the stamp is all digits.
            etype, stamp = row
            tid = type_index.get(etype)
            if tid is not None and stamp.isdecimal():
                type_ids.append(tid)
                times.append(int(stamp))
                continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        try:
            _require_two(row, line=number)
            etype = row[0].strip()
            if not etype:
                raise CsvFormatError("line %d: empty event type" % number)
            time = parse_timestamp(row[1])
        except CsvFormatError as exc:
            if quarantine is None:
                raise
            quarantine.add(str(exc), raw=list(row), line=number)
            continue
        tid = type_index.get(etype)
        if tid is None:
            tid = type_index[etype] = len(vocab)
            vocab.append(etype)
        type_ids.append(tid)
        times.append(time)
    return EventSequence.from_columns(type_ids, times, vocab)


def _is_header(row: List[str]) -> bool:
    """Is this first row a header (not an ``event_type,timestamp``
    record)?"""
    try:
        _require_two(row)
        parse_timestamp(row[1])
    except CsvFormatError:
        return True
    return False


def read_tenant_events(
    source: Union[str, IO],
    has_header: bool = None,
    quarantine: Optional[Quarantine] = None,
    default_key: str = "default",
) -> List[Tuple[str, str, str, int]]:
    """Read a multi-tenant event stream from CSV.

    Rows are ``tenant,event_type,timestamp`` with an optional fourth
    ``sequence_key`` column (missing or empty -> ``default_key``).
    Timestamps accept the same forms as :func:`read_events`.  Returns
    ``(tenant, key, event_type, time)`` tuples in file order - the
    submission format of
    :func:`repro.service.serve_events` and ``repro serve``.

    Header auto-detection and quarantine semantics mirror
    :func:`read_events`: strict without a quarantine, dead-letter with
    one.
    """
    if isinstance(source, str):
        with open(source, newline="") as handle:
            return read_tenant_events(
                handle,
                has_header=has_header,
                quarantine=quarantine,
                default_key=default_key,
            )
    rows = list(csv.reader(source))
    records: List[Tuple[str, str, str, int]] = []
    start = 0
    if rows and has_header is None:
        try:
            if len(rows[0]) < 3:
                raise CsvFormatError("short row")
            parse_timestamp(rows[0][2])
        except CsvFormatError:
            start = 1
    elif has_header:
        start = 1
    for number, row in enumerate(rows[start:], start=start + 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        try:
            if len(row) < 3:
                raise CsvFormatError(
                    "line %d: expected 'tenant,event_type,timestamp"
                    "[,sequence_key]', got %r" % (number, row)
                )
            tenant = row[0].strip()
            etype = row[1].strip()
            if not tenant:
                raise CsvFormatError("line %d: empty tenant" % number)
            if not etype:
                raise CsvFormatError("line %d: empty event type" % number)
            key = row[3].strip() if len(row) > 3 and row[3].strip() \
                else default_key
            records.append((tenant, key, etype, parse_timestamp(row[2])))
        except CsvFormatError as exc:
            if quarantine is None:
                raise
            quarantine.add(str(exc), raw=list(row), line=number)
    return records


def _require_two(row: List[str], line: int = 1) -> None:
    if len(row) < 2:
        raise CsvFormatError(
            "line %d: expected 'event_type,timestamp', got %r" % (line, row)
        )


def write_events(
    sequence: Iterable[Event],
    target: Union[str, IO],
    calendar_stamps: bool = True,
    header: bool = True,
) -> None:
    """Write events as CSV (calendar stamps by default)."""
    if isinstance(target, str):
        with open(target, "w", newline="") as handle:
            write_events(
                sequence,
                handle,
                calendar_stamps=calendar_stamps,
                header=header,
            )
        return
    writer = csv.writer(target)
    if header:
        writer.writerow(["event_type", "timestamp"])
    for event in sequence:
        stamp = (
            format_timestamp(event.time) if calendar_stamps else event.time
        )
        writer.writerow([event.etype, stamp])
