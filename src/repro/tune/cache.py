"""Crash-safe persistent cycle cache for schedule-space search.

Cycle counts on the simulator are deterministic: the engine's timing
model is data-independent, so one (kernel, shape, schedule config,
engine version) quadruple always scores the same.  That makes tuning
perfectly cacheable — repeated tuner runs, CI smoke jobs, and network-
wide sweeps only pay for configs they have never measured.

The store is a flat JSON file (schema 2)::

    {"schema": 2,
     "entries": {"<key>": <cycles>,
                 "<key>": {"fault": {"kind": "compile", ...}}, ...}}

A *failed* config is cached as its structured
:class:`~repro.tune.faults.Fault` — kind, stage, message, attempt
count — never as a bare ``null``, so reruns skip it with full
provenance.  Only **deterministic** faults (compile / verify / sim)
are persisted; transient ones (worker crashes, timeouts) are not,
because a later run on a healthier machine may well succeed.  Schema-1
files (``null`` failures) migrate on load: the ``null`` becomes an
``unknown``-kind fault.  The engine version is part of every key — a
timing-model change silently starts a fresh keyspace instead of
serving stale cycles.

The file is a durable file (:mod:`repro.durable`; the contract is
``docs/ROBUSTNESS.md``, "Durable files"): a corrupt one is
quarantined, and a save runs under the sidecar ``<path>.lock``.  On
top of that contract:

* **merge-on-save** — ``save()`` re-reads the store under the lock and
  unions the on-disk entries with this process's, so two tuner
  processes sharing one store *union* their work instead of
  last-writer-wins clobbering;
* **checkpointing** — with ``checkpoint_every=N`` the cache persists
  itself every N new measurements, so an interrupt loses at most one
  batch of work.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Sequence

from ..durable import atomic_write, locked, quarantine, sweep_stale_tmp
from ..snitch.engine import ENGINE_VERSION
from .faults import Fault, UnknownFault
from .schedule import ScheduleConfig

#: Internal miss sentinel (a cached failure is a *hit* with a fault).
_MISS = object()


def _parse_entries(payload) -> dict[str, int | Fault] | None:
    """Entries of a schema-1 or schema-2 payload; None if unreadable.

    Schema-1 ``null`` failures migrate to an ``unknown`` fault (the
    old format recorded no provenance).  Individually malformed
    entries are dropped; a structurally alien payload returns None so
    the caller can quarantine the file.
    """
    if not isinstance(payload, dict):
        return None
    raw = payload.get("entries")
    if not isinstance(raw, dict):
        return None
    schema = payload.get("schema")
    entries: dict[str, int | Fault] = {}
    if schema == 1:
        for key, cycles in raw.items():
            if cycles is None:
                entries[str(key)] = UnknownFault(
                    message=(
                        "schema-1 cached failure (no provenance "
                        "recorded)"
                    ),
                    candidate=None,
                )
            elif isinstance(cycles, int) and not isinstance(cycles, bool):
                entries[str(key)] = cycles
        return entries
    if schema == TuneCache.SCHEMA:
        for key, value in raw.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                entries[str(key)] = value
            elif isinstance(value, dict):
                try:
                    entries[str(key)] = Fault.from_json(value["fault"])
                except (KeyError, ValueError):
                    continue
        return entries
    return None


class TuneCache:
    """Thread-safe (kernel, shape, config, engine) -> cycles store."""

    SCHEMA = 2

    def __init__(
        self,
        path: str | Path | None = None,
        checkpoint_every: int | None = None,
    ):
        #: Backing file; None = in-memory only (still deduplicates
        #: within one tuning run).
        self.path = Path(path) if path is not None else None
        #: Auto-save after this many new measurements (None = only on
        #: explicit :meth:`save`).
        self.checkpoint_every = checkpoint_every
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: dict[str, int | Fault] = {}
        self._dirty = False
        self._puts_since_save = 0
        if self.path is not None:
            self._entries = self._load()

    def _sweep(self) -> None:
        sweep_stale_tmp(self.path.parent, self.path.name + ".")

    def _load(self) -> dict[str, int | Fault]:
        self._sweep()
        try:
            payload = json.loads(self.path.read_text())
        except OSError:
            return {}  # missing file: a fresh store
        except ValueError:  # undecodable bytes or JSON
            payload = None
        entries = _parse_entries(payload)
        if entries is None:
            quarantine(
                self.path,
                "not a tune cache; starting from an empty store",
            )
            return {}
        return entries

    @staticmethod
    def key(
        kernel: str,
        sizes: Sequence[int],
        config: ScheduleConfig,
        engine_version: int = ENGINE_VERSION,
    ) -> str:
        """The canonical cache key of one measurement."""
        shape = "x".join(str(int(s)) for s in sizes)
        return f"{kernel}/{shape}/{config.key()}/engine={engine_version}"

    def lookup(self, key: str) -> tuple[bool, int | None, Fault | None]:
        """(hit, cycles, fault).  A recorded failure is a hit with a
        structured fault and ``cycles is None``."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return False, None, None
            self.hits += 1
            if isinstance(value, Fault):
                return True, None, value
            return True, value, None

    def put(self, key: str, cycles: int | None) -> None:
        """Record a measurement.

        ``None`` (the legacy failure form) is upgraded to an
        ``unknown`` fault; prefer :meth:`put_failure` with a real one.
        """
        if cycles is None:
            self.put_failure(
                key,
                UnknownFault(message="recorded failure (no provenance)"),
            )
            return
        self._store(key, cycles)

    def put_failure(self, key: str, fault: Fault) -> None:
        """Record a config's structured failure."""
        self._store(key, fault)

    def _store(self, key: str, value: int | Fault) -> None:
        with self._lock:
            self._entries[key] = value
            self._dirty = True
            self._puts_since_save += 1
            if (
                self.checkpoint_every is not None
                and self._puts_since_save >= self.checkpoint_every
                and self.path is not None
            ):
                self._save_locked()

    def __len__(self) -> int:
        return len(self._entries)

    def save(self) -> None:
        """Merge-union persist the store (no-op when in-memory/clean).

        Concurrency-safe: under an exclusive file lock the current
        on-disk entries are re-read and unioned with this process's
        (ours win on key collisions — the oracle is deterministic, so
        collisions agree anyway), then written with
        :func:`~repro.durable.atomic_write`.
        """
        if self.path is None:
            return
        with self._lock:
            self._save_locked()

    def _save_locked(self) -> None:
        if not self._dirty:
            return
        with locked(self.path.with_name(self.path.name + ".lock")):
            # Merge-on-save: union entries another process persisted
            # since our load, instead of last-writer-wins clobbering.
            try:
                disk = _parse_entries(json.loads(self.path.read_text()))
            except (OSError, ValueError):
                disk = None
            if disk:
                merged = dict(disk)
                merged.update(self._entries)
                self._entries = merged
            serialized = {
                key: (
                    {"fault": value.to_json()}
                    if isinstance(value, Fault)
                    else value
                )
                for key, value in sorted(self._entries.items())
            }
            payload = {"schema": self.SCHEMA, "entries": serialized}
            atomic_write(self.path, json.dumps(payload, indent=2) + "\n")
            self._sweep()
        self._dirty = False
        self._puts_since_save = 0


__all__ = ["TuneCache"]
