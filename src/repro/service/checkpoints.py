"""Durable session state: generational checkpoints plus a WAL.

An evicted session must cost almost nothing while idle and survive a
crashed worker.  Both properties come from the same store:

* :meth:`save` writes a session's checkpoint payload atomically
  (temp file + ``os.replace``) as a new *generation*, keeping the
  previous ``keep_generations - 1`` files.  A torn or deliberately
  corrupted newest generation therefore never strands the session:
  :meth:`load` falls back to the last readable generation (counting
  the fallback) and only raises
  :class:`~repro.service.errors.CheckpointCorruptError` when *no*
  generation parses.

* :meth:`append_wal` records every accepted event (``[seq, etype,
  time]``) *before* it is fed to the matcher, so crash recovery is
  "restore the last durable checkpoint, then replay the WAL suffix
  with ``seq`` greater than the checkpoint's".  :meth:`save`
  truncates the WAL through the checkpointed sequence number.  A torn
  final WAL line (the classic mid-write crash artefact) is skipped,
  not fatal.

Two implementations share the contract: :class:`DirectoryCheckpointStore`
persists under a root directory (one subdirectory per session, named
by a content hash of the ``(tenant, key)`` pair, with a ``meta.json``
so :meth:`sessions` can enumerate them back); and
:class:`MemoryCheckpointStore` keeps the same generational structure
in process memory - the default when no ``checkpoint_dir`` is
configured, where eviction still works but nothing survives the
process.  Since nothing leaves the process, the memory store keeps
each generation as :mod:`marshal` bytes rather than JSON text: about
as compact, several times cheaper to write and read back, and every
load is a private copy.  Keeping the payload objects themselves would
skip the encoding too, but holds about eight times the memory per
generation, and the memory store holds every evicted session.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..obs import counter
from .errors import CheckpointCorruptError

#: Session checkpoint wrapper version.
SESSION_CHECKPOINT_VERSION = 1

_CHECKPOINTS_WRITTEN = counter(
    "repro_service_checkpoints_written_total",
    "Session checkpoints written by the service store",
)
_WAL_APPENDS = counter(
    "repro_service_wal_appends_total",
    "Events appended to session write-ahead logs",
)
_FALLBACKS = counter(
    "repro_service_checkpoint_fallbacks_total",
    "Loads that skipped an unreadable checkpoint generation",
)

WalEntry = Tuple[int, str, int]


def session_payload(
    tenant: str, key: str, seq: int, matcher_checkpoint: Dict[str, Any]
) -> Dict[str, Any]:
    """Wrap a matcher checkpoint with its service-level coordinates."""
    return {
        "version": SESSION_CHECKPOINT_VERSION,
        "tenant": tenant,
        "key": key,
        "seq": seq,
        "matcher": matcher_checkpoint,
    }


def _validate_payload(payload: Any) -> Dict[str, Any]:
    """Reject payloads that parsed as JSON but are not checkpoints."""
    if (
        not isinstance(payload, dict)
        or payload.get("version") != SESSION_CHECKPOINT_VERSION
        or not isinstance(payload.get("seq"), int)
        or not isinstance(payload.get("matcher"), dict)
    ):
        raise ValueError("not a session checkpoint payload")
    return payload


class CheckpointStoreBase:
    """The shared generation/WAL bookkeeping; subclasses do the I/O."""

    def __init__(self, keep_generations: int = 2):
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self.keep_generations = keep_generations

    # -- subclass I/O primitives ---------------------------------------
    def _generations(self, tenant: str, key: str) -> List[int]:
        """Generation numbers present for a session, ascending."""
        raise NotImplementedError

    def _read_generation(self, tenant: str, key: str, gen: int) -> Any:
        """Parse one generation; raises ValueError when unreadable."""
        raise NotImplementedError

    def _write_generation(
        self, tenant: str, key: str, gen: int, payload: Dict[str, Any]
    ) -> None:
        raise NotImplementedError

    def _drop_generation(self, tenant: str, key: str, gen: int) -> None:
        raise NotImplementedError

    def _read_wal(self, tenant: str, key: str) -> List[WalEntry]:
        raise NotImplementedError

    def _write_wal(
        self, tenant: str, key: str, entries: List[WalEntry]
    ) -> None:
        raise NotImplementedError

    def _append_wal_entry(
        self, tenant: str, key: str, entry: WalEntry
    ) -> None:
        raise NotImplementedError

    # -- the contract ---------------------------------------------------
    def _generation_seq(self, tenant: str, key: str, gen: int):
        """The ``seq`` a generation covers, or None if unreadable.

        Read back from the generation itself, because stored bytes can
        be corrupted behind the store's back (a file on disk);
        :class:`MemoryCheckpointStore` keeps each seq beside its bytes.
        """
        try:
            return int(
                _validate_payload(
                    self._read_generation(tenant, key, gen)
                )["seq"]
            )
        except (ValueError, TypeError, KeyError):
            return None

    def save(
        self,
        tenant: str,
        key: str,
        seq: int,
        matcher_checkpoint: Dict[str, Any],
    ) -> None:
        """Write a new checkpoint generation; prune old ones and the
        WAL prefix they make redundant.

        The WAL keeps every entry newer than the *oldest retained*
        generation - not just the newest - so that when corruption
        forces :meth:`load` back a generation, the replay suffix to
        reach the present is still on disk.
        """
        generations = self._generations(tenant, key)
        gen = (generations[-1] + 1) if generations else 1
        self._write_generation(
            tenant, key, gen,
            session_payload(tenant, key, seq, matcher_checkpoint),
        )
        _CHECKPOINTS_WRITTEN.inc()
        dropped = max(0, len(generations) + 1 - self.keep_generations)
        for old in generations[:dropped]:
            self._drop_generation(tenant, key, old)
        # The new generation covers ``seq``; the older retained ones
        # say which seq they cover, and an unreadable one is skipped.
        covered = [seq] + [
            cover for cover in (
                self._generation_seq(tenant, key, g)
                for g in generations[dropped:]
            )
            if cover is not None
        ]
        floor = min(covered)
        self._write_wal(
            tenant, key,
            [entry for entry in self._read_wal(tenant, key)
             if entry[0] > floor],
        )

    def load(self, tenant: str, key: str) -> Optional[Dict[str, Any]]:
        """The newest readable checkpoint payload, or None.

        Unreadable generations are skipped newest-first (each skip
        counted); if generations exist but none parses, the session is
        genuinely lost and :class:`CheckpointCorruptError` is raised.
        """
        generations = self._generations(tenant, key)
        if not generations:
            return None
        detail = "no generations"
        for gen in reversed(generations):
            try:
                return _validate_payload(
                    self._read_generation(tenant, key, gen)
                )
            except ValueError as exc:
                detail = str(exc) or type(exc).__name__
                _FALLBACKS.inc()
        raise CheckpointCorruptError(tenant, key, detail)

    def append_wal(
        self, tenant: str, key: str, seq: int, etype: str, time: int
    ) -> None:
        """Record one accepted event ahead of feeding it."""
        self._append_wal_entry(tenant, key, (seq, etype, time))
        _WAL_APPENDS.inc()

    def wal_suffix(self, tenant: str, key: str, seq: int) -> List[WalEntry]:
        """WAL entries newer than ``seq``, in sequence order."""
        return sorted(
            (entry for entry in self._read_wal(tenant, key)
             if entry[0] > seq),
            key=lambda entry: entry[0],
        )

    def has(self, tenant: str, key: str) -> bool:
        """Does any durable state exist for the session?

        A WAL with no checkpoint yet still counts - a session that
        crashed before its first checkpoint recovers by replaying the
        WAL into a fresh matcher.
        """
        return bool(self._generations(tenant, key)) or bool(
            self._read_wal(tenant, key)
        )

    def discard(self, tenant: str, key: str) -> None:
        """Forget a session entirely (clean close)."""
        for gen in self._generations(tenant, key):
            self._drop_generation(tenant, key, gen)
        self._write_wal(tenant, key, [])

    def sessions(self) -> List[Tuple[str, str]]:
        """Every ``(tenant, key)`` with durable state, sorted."""
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStoreBase):
    """In-process store: eviction without durability (the default)."""

    def __init__(self, keep_generations: int = 2):
        super().__init__(keep_generations)
        # Each generation is ``(seq, marshal bytes)``.  The store wrote
        # every generation itself, so it knows each seq without reading
        # the bytes back; the seq is None once the bytes are unreadable.
        self._data: Dict[
            Tuple[str, str], Dict[int, Tuple[Optional[int], bytes]]
        ] = {}
        self._wals: Dict[Tuple[str, str], List[WalEntry]] = {}

    def _generations(self, tenant, key):
        return sorted(self._data.get((tenant, key), ()))

    def _generation_seq(self, tenant, key, gen):
        return self._data[(tenant, key)][gen][0]

    def _read_generation(self, tenant, key, gen):
        try:
            return marshal.loads(self._data[(tenant, key)][gen][1])
        except (EOFError, TypeError, ValueError) as exc:
            raise ValueError(str(exc) or type(exc).__name__)

    def _write_generation(self, tenant, key, gen, payload):
        self._data.setdefault((tenant, key), {})[gen] = (
            payload["seq"], marshal.dumps(payload),
        )

    def _drop_generation(self, tenant, key, gen):
        slot = self._data.get((tenant, key), {})
        slot.pop(gen, None)
        if not slot:
            self._data.pop((tenant, key), None)

    def _read_wal(self, tenant, key):
        return list(self._wals.get((tenant, key), ()))

    def _write_wal(self, tenant, key, entries):
        if entries:
            self._wals[(tenant, key)] = list(entries)
        else:
            self._wals.pop((tenant, key), None)

    def _append_wal_entry(self, tenant, key, entry):
        self._wals.setdefault((tenant, key), []).append(entry)

    def sessions(self):
        return sorted(set(self._data) | set(self._wals))

    def corrupt_latest(self, tenant: str, key: str) -> None:
        """Chaos-test hook: truncate the newest generation mid-write."""
        generations = self._generations(tenant, key)
        if not generations:
            raise KeyError((tenant, key))
        gen = generations[-1]
        _, blob = self._data[(tenant, key)][gen]
        self._data[(tenant, key)][gen] = (None, blob[: len(blob) // 2])


class DirectoryCheckpointStore(CheckpointStoreBase):
    """Disk-backed store under one root directory.

    Layout: ``root/<sha1(tenant,key)>/`` holding ``meta.json`` (the
    coordinates, for :meth:`sessions`), ``ckpt-<n>.json`` generations
    and ``wal.jsonl``.  Checkpoint writes go through a temp file and
    ``os.replace`` so a crash never leaves a half-written *current*
    generation - and if external corruption strikes anyway, the
    previous generation is still there.
    """

    def __init__(self, root: str, keep_generations: int = 2):
        super().__init__(keep_generations)
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    def _session_dir(self, tenant: str, key: str, create: bool = False):
        digest = hashlib.sha1(
            json.dumps([tenant, key]).encode("utf-8")
        ).hexdigest()[:24]
        path = os.path.join(self.root, digest)
        if create and not os.path.isdir(path):
            os.makedirs(path, exist_ok=True)
            self._atomic_write(
                os.path.join(path, "meta.json"),
                json.dumps({"tenant": tenant, "key": key}, sort_keys=True),
            )
        return path

    @staticmethod
    def _atomic_write(path: str, text: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _generations(self, tenant, key):
        path = self._session_dir(tenant, key)
        if not os.path.isdir(path):
            return []
        found = []
        for name in os.listdir(path):
            if name.startswith("ckpt-") and name.endswith(".json"):
                try:
                    found.append(int(name[5:-5]))
                except ValueError:
                    continue
        return sorted(found)

    def _gen_path(self, tenant, key, gen):
        return os.path.join(
            self._session_dir(tenant, key), "ckpt-%d.json" % gen
        )

    def _read_generation(self, tenant, key, gen):
        try:
            with open(self._gen_path(tenant, key, gen),
                      encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(str(exc))

    def _write_generation(self, tenant, key, gen, payload):
        self._session_dir(tenant, key, create=True)
        self._atomic_write(
            self._gen_path(tenant, key, gen),
            json.dumps(payload, sort_keys=True),
        )

    def _drop_generation(self, tenant, key, gen):
        try:
            os.remove(self._gen_path(tenant, key, gen))
        except OSError:
            pass

    def _wal_path(self, tenant, key):
        return os.path.join(self._session_dir(tenant, key), "wal.jsonl")

    def _read_wal(self, tenant, key):
        path = self._wal_path(tenant, key)
        if not os.path.isfile(path):
            return []
        entries: List[WalEntry] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    seq, etype, time = json.loads(line)
                    entries.append((int(seq), str(etype), int(time)))
                except (ValueError, TypeError):
                    # A torn final line from a mid-append crash; the
                    # event it described was never fed, so skipping it
                    # matches the matcher's actual state.
                    continue
        return entries

    def _write_wal(self, tenant, key, entries):
        path = self._wal_path(tenant, key)
        if not entries:
            try:
                os.remove(path)
            except OSError:
                pass
            return
        self._session_dir(tenant, key, create=True)
        self._atomic_write(
            path,
            "".join(json.dumps(list(entry)) + "\n" for entry in entries),
        )

    def _append_wal_entry(self, tenant, key, entry):
        self._session_dir(tenant, key, create=True)
        with open(self._wal_path(tenant, key), "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(list(entry)) + "\n")

    def sessions(self):
        found = []
        for name in sorted(os.listdir(self.root)):
            meta = os.path.join(self.root, name, "meta.json")
            if not os.path.isfile(meta):
                continue
            try:
                with open(meta, encoding="utf-8") as handle:
                    record = json.load(handle)
                found.append((str(record["tenant"]), str(record["key"])))
            except (OSError, ValueError, KeyError):
                continue
        return sorted(found)


def open_store(
    checkpoint_dir: Optional[str], keep_generations: int = 2
) -> CheckpointStoreBase:
    """The store for a config: directory-backed when a path is given."""
    if checkpoint_dir:
        return DirectoryCheckpointStore(checkpoint_dir, keep_generations)
    return MemoryCheckpointStore(keep_generations)
