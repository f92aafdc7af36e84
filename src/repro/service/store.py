"""Content-addressed artifact store.

Generalizes the tuner's cycle cache (:mod:`repro.tune.cache`) from
"cycle counts only" to *any* compilation artifact: compiled assembly
plus metadata, per-pass timings, tuned schedules, cycle measurements.
Every entry is a durable file (:mod:`repro.durable`; the contract is
``docs/ROBUSTNESS.md``, "Durable files"), written under the store-wide
``store.lock``.  On top of that contract the store adds content
addressing:

* **keys are content hashes** — an artifact is addressed by the sha256
  of exactly the inputs that determine it (for a compiled kernel: the
  canonical module text, the canonical pipeline spec, and
  ``ENGINE_VERSION``), so two processes that compile the same thing
  independently produce the same key and share the entry;
* **one file per artifact** — ``<root>/objects/<kind>/<kk>/<key>.json``
  (``kk`` = first two hex digits).  Concurrent writers of *different*
  artifacts never contend, and concurrent writers of the *same*
  artifact write identical bytes;
* **integrity hashes verified on read** — every entry embeds the
  sha256 of its canonical payload JSON; a mismatch (torn write, bit
  rot, hand edit) quarantines the file and reports a miss, never a
  wrong artifact;
* **LRU size cap** — ``max_bytes`` bounds the store; eviction removes
  least-recently-*used* entries (reads refresh an entry's mtime) and
  is accounted in :meth:`stats`.

A missing or unreadable store directory degrades to misses instead of
raising.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

from ..durable import (
    atomic_write,
    locked,
    pid_alive,
    quarantine,
    sweep_stale_tmp,
)
from ..snitch.engine import ENGINE_VERSION


class StoreError(ValueError):
    """A malformed key, kind, or artifact payload."""


#: Artifact kinds the repo currently stores.  The store itself is
#: kind-agnostic (any ``[a-z-]`` name works); these are the
#: conventional ones, documented in ``docs/SERVICE.md``.
KNOWN_KINDS = ("kernel", "cycles", "schedule")

_HEX = set("0123456789abcdef")


def content_key(*parts: object) -> str:
    """sha256 hex digest of a tuple of key parts.

    Parts are length-prefixed before hashing so no two distinct tuples
    can collide by concatenation (``("ab", "c")`` vs ``("a", "bc")``).
    """
    digest = hashlib.sha256()
    for part in parts:
        text = part if isinstance(part, str) else json.dumps(
            part, sort_keys=True, separators=(",", ":")
        )
        data = text.encode("utf-8")
        digest.update(f"{len(data)}:".encode("ascii"))
        digest.update(data)
    return digest.hexdigest()


def compile_key(
    module_text: str,
    pipeline_spec: str,
    engine_version: int = ENGINE_VERSION,
) -> str:
    """The content address of one compilation.

    The canonical module text and canonical pipeline spec pin the
    *compiler* inputs; the engine version rides along so artifacts
    that embed simulator-derived data (cycle counts) invalidate
    themselves when the timing model changes — the same policy as the
    tuner's cycle cache.
    """
    return content_key(module_text, pipeline_spec, int(engine_version))


def _payload_digest(payload: dict) -> str:
    """Integrity hash of an artifact payload (canonical JSON)."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed (kind, key) -> JSON payload store (see
    module docstring).

    ``max_bytes`` arms the LRU size cap: every :meth:`put` that pushes
    the store past the cap evicts least-recently-used entries until it
    fits again.  ``None`` (the default) means unbounded; :meth:`gc`
    applies a cap on demand either way.
    """

    SCHEMA = 1

    def __init__(
        self, root: str | Path, max_bytes: int | None = None
    ):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.quarantined = 0
        self._lock = threading.Lock()

    # -- paths ----------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def _entry_path(self, kind: str, key: str) -> Path:
        if not kind or not all(c.isalnum() or c == "-" for c in kind):
            raise StoreError(f"bad artifact kind {kind!r}")
        if len(key) != 64 or not set(key) <= _HEX:
            raise StoreError(
                f"bad artifact key {key!r} (want sha256 hex digest)"
            )
        return self.objects_dir / kind / key[:2] / f"{key}.json"

    def _locked(self):
        """The store-wide write lock."""
        return locked(self.root / "store.lock")

    # -- core API -------------------------------------------------------------

    def put(
        self,
        kind: str,
        key: str,
        payload: dict,
        meta: dict | None = None,
    ) -> Path:
        """Persist one artifact; returns its entry path.

        Identical (kind, key) pairs carry identical payloads by
        construction (the key is a content address), so overwrites are
        idempotent.  The write is an atomic durable-file write under
        the store lock.
        """
        if not isinstance(payload, dict):
            raise StoreError(
                f"artifact payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        path = self._entry_path(kind, key)
        entry = {
            "schema": self.SCHEMA,
            "kind": kind,
            "key": key,
            "integrity": _payload_digest(payload),
            "meta": meta or {},
            "payload": payload,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(entry, indent=2, sort_keys=True) + "\n"
        with self._locked():
            atomic_write(path, text)
        with self._lock:
            self.puts += 1
        sweep_stale_tmp(path.parent)
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return path

    def get(self, kind: str, key: str) -> dict | None:
        """The artifact payload, or None on miss.

        The embedded integrity hash is re-verified; a mismatching or
        unreadable entry is quarantined to ``<name>.corrupt`` (a
        warning names it) and reported as a miss.  A hit refreshes the
        entry's mtime — the LRU clock :meth:`gc` evicts by.
        """
        path = self._entry_path(kind, key)
        try:
            text = path.read_text()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        payload = self._verify(path, kind, key, text)
        with self._lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        if payload is not None:
            try:
                os.utime(path)  # LRU touch
            except OSError:  # pragma: no cover - entry raced away
                pass
        return payload

    def contains(self, kind: str, key: str) -> bool:
        """Whether an entry exists (no integrity check, no LRU touch)."""
        return self._entry_path(kind, key).exists()

    def _verify(
        self, path: Path, kind: str, key: str, text: str
    ) -> dict | None:
        """Parse + integrity-check one entry; quarantine on failure."""
        try:
            entry = json.loads(text)
        except ValueError:
            reason = "undecodable JSON"
        else:
            if not isinstance(entry, dict):
                reason = "not a JSON object"
            elif (
                entry.get("schema") != self.SCHEMA
                or entry.get("kind") != kind
                or entry.get("key") != key
                or not isinstance(entry.get("payload"), dict)
            ):
                reason = "malformed entry structure"
            elif entry.get("integrity") != _payload_digest(
                entry["payload"]
            ):
                reason = "integrity hash mismatch"
            else:
                return entry["payload"]
        with self._lock:
            self.quarantined += 1
        quarantine(path, reason)
        return None

    # -- maintenance ----------------------------------------------------------

    def _entries(self) -> list[tuple[Path, int, float]]:
        """(path, size, mtime) of every live entry file."""
        out = []
        if not self.objects_dir.is_dir():
            return out
        for path in sorted(self.objects_dir.rglob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_size, stat.st_mtime))
        return out

    def gc(self, max_bytes: int | None = None) -> dict:
        """Evict least-recently-used entries down to ``max_bytes``.

        Also sweeps stale temp files store-wide.  Returns a report:
        entries/bytes before and after, entries evicted.  ``None``
        (and no store-level cap) only sweeps temp files.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        with self._locked():
            if self.objects_dir.is_dir():
                for directory in {
                    p.parent for p in self.objects_dir.rglob("*.tmp")
                }:
                    sweep_stale_tmp(directory)
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            before = {"entries": len(entries), "bytes": total}
            evicted = 0
            if cap is not None:
                # Oldest mtime first = least recently used (reads
                # refresh mtime).
                entries.sort(key=lambda item: item[2])
                for path, size, _ in entries:
                    if total <= cap:
                        break
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    total -= size
                    evicted += 1
                    with self._lock:
                        self.evictions += 1
                        self.evicted_bytes += size
        return {
            "before": before,
            "after": {
                "entries": before["entries"] - evicted,
                "bytes": total,
            },
            "evicted": evicted,
        }

    def verify_all(self) -> dict:
        """Integrity-check every entry in place (no quarantine).

        Returns ``{"ok": N, "corrupt": N}`` — the concurrency drills
        use it to prove racing writers leave zero corrupt entries.
        """
        ok = corrupt = 0
        for path, _, _ in self._entries():
            try:
                entry = json.loads(path.read_text())
                payload = entry["payload"]
                good = (
                    entry["integrity"] == _payload_digest(payload)
                    and entry["schema"] == self.SCHEMA
                )
            except (OSError, ValueError, KeyError, TypeError):
                good = False
            if good:
                ok += 1
            else:
                corrupt += 1
        return {"ok": ok, "corrupt": corrupt}

    def stats(self) -> dict:
        """Traffic counters of this handle + current disk footprint."""
        entries = self._entries()
        with self._lock:
            return {
                "root": str(self.root),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "quarantined": self.quarantined,
                "entries": len(entries),
                "bytes": sum(size for _, size, _ in entries),
                "max_bytes": self.max_bytes,
            }


class RequestJournal:
    """Crash-safe record of accepted-but-unfinished requests.

    The server journals every request it admits for *computation*
    (store hits never touch the journal) and removes the entry once
    the result is persisted or faulted.  A server that dies mid-batch
    — SIGKILL, OOM, power loss — therefore leaves behind exactly the
    entries it never finished; on restart, :meth:`sweep` returns
    those interrupted records (entries whose recorded writer pid is
    dead) and clears them, so the new server can report what was lost
    and clients can resubmit (completed keys come back as cheap store
    hits).

    The journal is one durable file (:mod:`repro.durable`; the
    contract is ``docs/ROBUSTNESS.md``, "Durable files"), rewritten
    under ``<path>.lock``, so a crash mid-journal-write leaves the
    previous consistent state, never a truncated file.
    """

    SCHEMA = 1

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._mutex = threading.Lock()

    def _locked(self):
        return locked(self.path.with_name(self.path.name + ".lock"))

    def _read(self) -> dict:
        """Entry-id -> record.  A missing journal reads as empty; a
        corrupt one is quarantined, then reads as empty (never raise
        on bad durable state, never silently eat it)."""
        try:
            data = json.loads(self.path.read_text())
        except OSError:
            return {}
        except ValueError:
            data = None
        if (
            not isinstance(data, dict)
            or data.get("schema") != self.SCHEMA
            or not isinstance(data.get("entries"), dict)
        ):
            quarantine(self.path, "not a request journal")
            return {}
        return data["entries"]

    def _write(self, entries: dict) -> None:
        text = json.dumps(
            {"schema": self.SCHEMA, "entries": entries},
            indent=2,
            sort_keys=True,
        ) + "\n"
        atomic_write(self.path, text)
        sweep_stale_tmp(self.path.parent, self.path.name + ".")

    def begin(self, kind: str, key: str, label: str = "") -> str:
        """Record one accepted-but-unfinished request; returns its
        entry id."""
        entry_id = f"{kind}/{key}"
        with self._mutex, self._locked():
            entries = self._read()
            entries[entry_id] = {
                "kind": kind,
                "key": key,
                "label": label,
                "pid": os.getpid(),
                "started": time.time(),
            }
            self._write(entries)
        return entry_id

    def finish(self, entry_id: str) -> None:
        """Drop a completed (persisted or faulted) request's entry."""
        with self._mutex, self._locked():
            entries = self._read()
            if entries.pop(entry_id, None) is not None:
                self._write(entries)

    def sweep(self) -> list[dict]:
        """Interrupted work left by dead writers, cleared on return.

        An entry whose recorded pid is still alive belongs to a live
        server sharing the journal and is left alone.
        """
        with self._mutex, self._locked():
            entries = self._read()
            interrupted = [
                record
                for record in entries.values()
                if not pid_alive(record.get("pid", -1))
            ]
            if interrupted:
                survivors = {
                    entry_id: record
                    for entry_id, record in entries.items()
                    if pid_alive(record.get("pid", -1))
                }
                self._write(survivors)
        return sorted(
            interrupted, key=lambda r: (r.get("kind", ""), r.get("key", ""))
        )

    def pending(self) -> list[dict]:
        """Current unfinished entries (no sweep; a corrupt journal is
        still quarantined, hence the lock)."""
        with self._mutex, self._locked():
            return sorted(
                self._read().values(),
                key=lambda r: (r.get("kind", ""), r.get("key", "")),
            )


__all__ = [
    "ArtifactStore",
    "KNOWN_KINDS",
    "RequestJournal",
    "StoreError",
    "compile_key",
    "content_key",
]
