"""Compile-and-tune as a service.

The multi-level compilation flow is deterministic: one (canonical
module text, pipeline spec, engine version) triple always yields the
same assembly, pass statistics, and simulated cycle count.  This
package turns that determinism into a serving layer:

* :mod:`repro.service.store` — :class:`ArtifactStore`, a
  content-addressed on-disk store for *any* compilation artifact
  (compiled kernels, cycle measurements, tuned schedules), keyed by
  sha256 of the inputs that determine it, with per-artifact integrity
  hashes, quarantine of corrupt entries, flock + atomic-rename writes,
  and an LRU size cap;
* :mod:`repro.service.server` — :class:`CompileServer`, a long-lived
  batch server: store-first request handling, single-flight
  deduplication of identical in-flight requests, a
  :class:`~repro.tune.workers.HardenedPool` worker tier for compile
  and simulate jobs, and per-request structured fault reporting via
  the :mod:`repro.tune.faults` taxonomy;
* :mod:`repro.service.client` — the wire protocol: a Unix-socket
  ``serve_forever`` loop (threaded connections, request deadlines,
  admission backpressure, graceful SIGTERM/SIGINT drain with
  documented exit codes, a crash-safe request journal, and a chaos
  injection layer via ``REPRO_FAULTS``) and
  :class:`ServiceClient` — connect/call timeouts, bounded retry with
  exponential backoff + jitter, transparent reconnect across server
  restarts, and a circuit breaker (:class:`CircuitOpenError`) that
  half-opens on a probe ping.  Transport failures surface as
  :class:`ServiceUnavailable` carrying a structured taxonomy fault.

``api.compile_linalg``/``api.compile_lowlevel`` accept ``store=`` for
an opt-in content-addressed fast path, ``tune_kernel`` reads and
writes :class:`~repro.tune.schedule.TunedSchedule` artifacts through
the same store, and ``python -m repro.tools.kernel_service`` is the
CLI (``serve`` / ``submit`` / ``batch`` / ``stats`` / ``gc``).

See ``docs/SERVICE.md``.
"""

from .client import (
    EXIT_CRASH,
    EXIT_OK,
    EXIT_SIGINT,
    EXIT_SIGTERM,
    CircuitOpenError,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    serve_forever,
)
from .server import CompileServer, ServiceRequest, ServiceResult
from .store import ArtifactStore, RequestJournal, StoreError

__all__ = [
    "EXIT_CRASH",
    "EXIT_OK",
    "EXIT_SIGINT",
    "EXIT_SIGTERM",
    "ArtifactStore",
    "CircuitOpenError",
    "CompileServer",
    "RequestJournal",
    "ServiceClient",
    "ServiceError",
    "ServiceRequest",
    "ServiceResult",
    "ServiceUnavailable",
    "StoreError",
    "serve_forever",
]
