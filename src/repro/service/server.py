"""The long-lived compile-and-tune batch server.

:class:`CompileServer` is the in-process serving core (the Unix-socket
front end lives in :mod:`repro.service.client`).  Every request is one
deterministic job — compile a kernel through a pipeline spec, or
measure a schedule config's cycles — and resolution is store-first:

1. the request is mapped to its content address (sha256 of canonical
   module text, canonical pipeline spec / config key, engine version);
2. the :class:`~repro.service.store.ArtifactStore` is consulted — a
   hit rehydrates the artifact without touching a worker;
3. misses are **single-flight deduplicated**: identical keys within a
   batch collapse to one job, and a key another thread is already
   computing is awaited instead of recomputed;
4. remaining jobs fan out across a
   :class:`~repro.tune.workers.HardenedPool` (watchdog timeouts,
   bounded retry, crash respawn, degradation to serial — PR 6's
   service-grade worker tier);
5. results are persisted to the store; failures come back as
   structured :class:`~repro.tune.faults.Fault` values on the result,
   never as exceptions — a batch always returns one result per
   request.

:meth:`submit` is a batch of one: it takes exactly the steps above,
through the same code as :meth:`batch`.  The server is thread-safe:
concurrent calls from many threads share in-flight work and serialize
on the worker pool.  :meth:`stats` reports traffic, dedup counts,
fault histograms, pool events, and the sizes of the process-wide
caches a long-lived server must keep in view (the engine decode
cache, the network layer memo).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace as _replace

from ..compiler import CompiledKernel, Compiler
from ..kernels import networks
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import (
    absorb,
    correlation,
    correlation_id,
    recording,
    span,
    tracing_enabled,
)
from ..snitch import engine
from ..tune.faults import (
    CancelledFault,
    Fault,
    OverloadFault,
    TimeoutFault,
    classify_error,
)
from ..tune.schedule import ScheduleConfig, resolve_kernel
from ..tune.search import evaluate_config
from ..tune.workers import HardenedPool, PoolConfig
from .store import (
    ArtifactStore,
    RequestJournal,
    StoreError,
    compile_key,
    content_key,
)

#: Request kinds the server understands.
REQUEST_KINDS = ("compile", "measure")


@dataclass(frozen=True)
class ServiceRequest:
    """One deterministic job for the compile server.

    ``kind="compile"`` compiles ``kernel`` at ``sizes`` through
    ``pipeline`` (a named pipeline or raw spec) and yields a
    :class:`~repro.compiler.CompiledKernel` artifact.

    ``kind="measure"`` scores schedule ``config`` by simulated cycles
    (the tuner's cycle oracle — multi-core configs row-partition
    across a cluster), validated against the numpy oracle when
    ``validate`` is set, and yields a ``{"cycles": N}`` artifact.
    """

    kind: str
    kernel: str
    sizes: tuple[int, ...]
    pipeline: str = "ours"
    config: ScheduleConfig = field(default_factory=ScheduleConfig)
    seed: int = 0
    validate: bool = True

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise StoreError(
                f"unknown request kind {self.kind!r} "
                f"(one of {', '.join(REQUEST_KINDS)})"
            )
        object.__setattr__(
            self, "sizes", tuple(int(s) for s in self.sizes)
        )

    def label(self) -> str:
        shape = "x".join(map(str, self.sizes))
        if self.kind == "compile":
            return f"compile {self.kernel} {shape} [{self.pipeline}]"
        return f"measure {self.kernel} {shape} [{self.config.key()}]"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "kernel": self.kernel,
            "sizes": list(self.sizes),
            "pipeline": self.pipeline,
            "config": self.config.to_json(),
            "seed": self.seed,
            "validate": self.validate,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ServiceRequest":
        try:
            return cls(
                kind=data["kind"],
                kernel=data["kernel"],
                sizes=tuple(data["sizes"]),
                pipeline=data.get("pipeline", "ours"),
                config=ScheduleConfig.from_json(
                    data.get("config") or {}
                ),
                seed=int(data.get("seed", 0)),
                validate=bool(data.get("validate", True)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(
                f"malformed service request: {error}"
            ) from None


@dataclass
class ServiceResult:
    """One request's outcome: an artifact payload or a structured
    fault, plus provenance (where it came from, how long it took)."""

    request: ServiceRequest
    #: Artifact kind/key in the store ("" when keying itself failed).
    artifact_kind: str
    key: str
    #: The artifact payload (kernel JSON / ``{"cycles": N}``); None on
    #: failure.
    payload: dict | None
    #: Structured failure (None on success).
    fault: Fault | None
    #: "store" (cache hit) | "computed" (fresh job) | "inflight"
    #: (another thread/batch slot computed it first) | "failed"
    #: (computation faulted) | "rejected" (refused at admission:
    #: overload or draining).
    source: str
    #: Submit-to-result wall-clock seconds.
    latency: float
    #: The correlation ID this request was served under ("" when the
    #: caller did not send one) — minted by :class:`ServiceClient`,
    #: carried on the wire message, echoed here and in the server's
    #: recent-request stats so one request can be joined across
    #: client, server, worker and simulator spans.
    correlation_id: str = ""

    @property
    def ok(self) -> bool:
        return self.payload is not None

    def kernel(self) -> CompiledKernel:
        """Rehydrate a compile result's kernel (no recompilation)."""
        if self.request.kind != "compile" or self.payload is None:
            raise StoreError(
                f"no compiled kernel on this result ({self.source}, "
                f"{self.request.label()})"
            )
        return CompiledKernel.from_json(self.payload)

    def to_json(self) -> dict:
        return {
            "request": self.request.to_json(),
            "artifact_kind": self.artifact_kind,
            "key": self.key,
            "payload": self.payload,
            "fault": self.fault.to_json() if self.fault else None,
            "source": self.source,
            "latency": self.latency,
            "correlation_id": self.correlation_id,
        }


def request_key(request: ServiceRequest) -> tuple[str, str]:
    """(artifact kind, content address) of one request.

    Compile requests share the keyspace of the ``api.compile_linalg``
    store fast path: sha256 of (canonical module text, canonical
    pipeline spec, engine version), so a server-filled store also
    serves direct API users and vice versa.
    """
    from ..ir.printer import print_op

    builder, sizes = resolve_kernel(request.kernel, request.sizes)
    module, _ = builder(*sizes)
    text = print_op(module)
    if request.kind == "compile":
        spec = Compiler(request.pipeline).pipeline_spec
        return "kernel", compile_key(text, spec)
    return "cycles", content_key(
        text,
        f"measure|{request.config.key()}|seed={request.seed}"
        f"|validate={request.validate}",
        engine.ENGINE_VERSION,
    )


def _service_task(task) -> tuple[dict | None, dict | None]:
    """One job in a pool worker: (payload, fault_json), never raises.

    When the payload asks for tracing (``trace`` + ``corr_id``), the
    worker records its spans locally — pool workers are forked
    processes, so the caller's recorder is out of reach — and smuggles
    them back inside the artifact dict under ``"__spans__"``, which
    :class:`CompileServer` pops (and re-emits) before persisting the
    artifact to the store.
    """
    payload, _injection = task
    deadline = payload.get("deadline")
    stage: list[str] = ["prepare"]

    def job() -> dict:
        request = ServiceRequest.from_json(payload["request"])
        if request.kind == "compile":
            stage[:] = ["compile"]
            builder, sizes = resolve_kernel(
                request.kernel, request.sizes
            )
            module, _ = builder(*sizes)
            compiled = Compiler(request.pipeline).compile(module)
            return compiled.to_json()
        cycles = evaluate_config(
            request.kernel,
            request.sizes,
            request.config,
            seed=request.seed,
            validate=request.validate,
            deadline_seconds=deadline,
            stage_out=stage,
        )
        return {"cycles": cycles}

    try:
        if not payload.get("trace"):
            return job(), None
        with recording() as recorder:
            with correlation(payload.get("corr_id")):
                with span("worker.job", label=payload["request"].get("kernel")):
                    artifact = job()
        artifact["__spans__"] = recorder.events_json()
        return artifact, None
    except KeyboardInterrupt:
        raise
    except Exception as error:  # classify, don't propagate
        fault = classify_error(
            error, stage=stage[0] if stage else None
        )
        return None, fault.to_json()


class _InFlight:
    """One key's in-flight computation, shared across waiters."""

    __slots__ = ("event", "result")

    def __init__(self):
        self.event = threading.Event()
        self.result: ServiceResult | None = None


class CompileServer:
    """Store-first, single-flight, pool-backed job server (see
    module docstring).  One server owns one
    :class:`~repro.tune.workers.HardenedPool`; call :meth:`close`
    (or use as a context manager) when done."""

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 1,
        deadline: float | None = None,
        retries: int = 2,
        max_inflight: int | None = None,
        request_deadline: float | None = None,
        journal: RequestJournal | None = None,
    ):
        self.store = store
        self.deadline = deadline
        #: Admission high-water mark: requests in flight (admitted,
        #: not yet resolved) beyond this are refused with a retryable
        #: OverloadFault instead of queuing unboundedly.
        self.max_inflight = max_inflight
        #: Default per-request wall-clock budget, admission to result
        #: (a per-call ``deadline=`` overrides it).
        self.request_deadline = request_deadline
        self.journal = journal
        #: Accepted-but-unfinished work a *previous* server left in
        #: the journal (it died mid-batch); swept and reported here so
        #: clients know to resubmit — completed keys come back as
        #: cheap store hits.
        self.interrupted: list[dict] = (
            journal.sweep() if journal is not None else []
        )
        self.pool = HardenedPool(
            _service_task,
            PoolConfig(
                workers=max(1, workers),
                deadline=deadline,
                retries=retries,
            ),
        )
        # Fork workers before any connection exists — a worker forked
        # mid-connection inherits the connection fds and can pin a
        # closed same-process peer open forever (no EOF).
        self.pool.prestart()
        self.started_at = time.monotonic()
        self._mutex = threading.Lock()
        #: Worker-pool access is serialized: HardenedPool.map is not
        #: reentrant.  Single-flight dedup keeps contention low —
        #: identical concurrent requests never both reach the pool.
        self._pool_mutex = threading.Lock()
        self._inflight: dict[tuple[str, str], _InFlight] = {}
        self._draining = False
        self._inflight_requests = 0
        #: Signalled whenever the in-flight request count drops —
        #: :meth:`drain` waits on it.
        self._idle = threading.Condition(self._mutex)
        #: Per-server metrics (private registry: one server per test
        #: must not see another's traffic).  The historical counter
        #: names are pre-registered so :meth:`stats` always reports
        #: the full set, zeros included.
        self.metrics = MetricsRegistry()
        for name in self._COUNTER_NAMES:
            self.metrics.counter(name)
        self._fault_kinds: dict[str, int] = {}
        #: Most recent requests (key, correlation id, source,
        #: latency) — the stats-side echo of the correlation IDs.
        self._recent: deque[dict] = deque(maxlen=32)

    _COUNTER_NAMES = (
        "requests",
        "store_hits",
        "computed",
        "deduped_in_batch",
        "joined_inflight",
        "faults",
        "rejected_overload",
        "rejected_draining",
        "deadline_expired",
    )

    # -- bookkeeping ----------------------------------------------------------

    def _count(self, name: str, by: int = 1) -> None:
        self.metrics.counter(name).inc(by)

    def _record_fault(self, fault: Fault) -> None:
        self.metrics.counter("faults").inc()
        with self._mutex:
            self._fault_kinds[fault.kind] = (
                self._fault_kinds.get(fault.kind, 0) + 1
            )

    def _finish(self, result: ServiceResult) -> ServiceResult:
        """Stamp the context's correlation ID on a resolved result and
        record it in the latency histogram + recent-request ring."""
        cid = correlation_id() or ""
        result.correlation_id = cid
        self.metrics.histogram(
            "request_latency_seconds", source=result.source
        ).observe(result.latency)
        with self._mutex:
            self._recent.append(
                {
                    "kind": result.request.kind,
                    "label": result.request.label(),
                    "key": result.key,
                    "correlation_id": cid,
                    "source": result.source,
                    "latency": result.latency,
                }
            )
        return result

    def _fail(
        self,
        request: ServiceRequest,
        error: Exception,
        stage: str,
        t0: float,
        artifact_kind: str = "",
        key: str = "",
    ) -> ServiceResult:
        fault = classify_error(
            error, stage=stage, candidate=request.label()
        )
        self._record_fault(fault)
        return ServiceResult(
            request=request,
            artifact_kind=artifact_kind,
            key=key,
            payload=None,
            fault=fault,
            source="failed",
            latency=time.monotonic() - t0,
        )

    # -- admission, drain, deadlines ------------------------------------------

    def _admit(self, count: int) -> str | None:
        """Admit ``count`` requests, or the refusal reason."""
        with self._mutex:
            if self._draining:
                return "draining"
            if (
                self.max_inflight is not None
                and self._inflight_requests + count > self.max_inflight
            ):
                return "overload"
            self._inflight_requests += count
            return None

    def _release(self, count: int) -> None:
        with self._idle:
            self._inflight_requests -= count
            self._idle.notify_all()

    def _refuse(
        self, request: ServiceRequest, reason: str, t0: float
    ) -> ServiceResult:
        """A structured admission refusal (never an exception)."""
        if reason == "draining":
            self._count("rejected_draining")
            fault: Fault = CancelledFault(
                message=(
                    "server is draining; retry against a restarted "
                    "server"
                ),
                candidate=request.label(),
                stage="admission",
            )
        else:
            self._count("rejected_overload")
            fault = OverloadFault(
                message=(
                    f"server at max in-flight capacity "
                    f"({self.max_inflight}); retry with backoff"
                ),
                candidate=request.label(),
                stage="admission",
            )
        self._record_fault(fault)
        return ServiceResult(
            request=request,
            artifact_kind="",
            key="",
            payload=None,
            fault=fault,
            source="rejected",
            latency=time.monotonic() - t0,
        )

    def reject(
        self, request: ServiceRequest, reason: str = "overload"
    ) -> ServiceResult:
        """A structured admission refusal *without* admitting —
        the ``reject-admission`` chaos injection uses this to make an
        injected overload indistinguishable from a real one."""
        self._count("requests")
        return self._finish(self._refuse(request, reason, time.monotonic()))

    def _enforce_deadline(
        self, result: ServiceResult, budget: float | None
    ) -> ServiceResult:
        """Fault a result that finished past its wall-clock budget.

        The artifact (if any) stays in the store — a client retry is
        a cheap store hit — but the caller is told the truth: the
        deadline was missed.  Results that already carry a fault keep
        their original, more specific fault.
        """
        if (
            budget is None
            or result.fault is not None
            or result.latency <= budget
        ):
            return result
        fault = TimeoutFault(
            message=(
                f"request exceeded its {budget:g}s wall-clock "
                f"deadline (took {result.latency:.3f}s)"
            ),
            candidate=result.request.label(),
            stage="request",
        )
        self._record_fault(fault)
        self._count("deadline_expired")
        return _replace(
            result, payload=None, fault=fault, source="failed"
        )

    def _job_deadline(self, deadline_at: float | None) -> float | None:
        """The evaluation deadline to ride into a worker: the pool's
        per-job deadline, tightened by the request's remaining
        wall-clock budget."""
        limits = [
            limit for limit in (self.deadline,) if limit is not None
        ]
        if deadline_at is not None:
            limits.append(max(0.0, deadline_at - time.monotonic()))
        return min(limits) if limits else None

    @property
    def draining(self) -> bool:
        with self._mutex:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new requests (idempotent)."""
        with self._mutex:
            self._draining = True

    def drain(self, timeout: float | None = None) -> bool:
        """Begin draining and wait for in-flight requests to resolve.

        Returns True when the server went idle within ``timeout``
        seconds (None = wait forever), False if in-flight work
        remained when the clock ran out — the caller then faults it
        by closing connections/pool.
        """
        self.begin_drain()
        deadline_at = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._idle:
            while self._inflight_requests > 0:
                remaining = (
                    deadline_at - time.monotonic()
                    if deadline_at is not None
                    else None
                )
                if remaining is not None and remaining <= 0:
                    return False
                if not self._idle.wait(remaining):
                    return False
        return True

    # -- request resolution ---------------------------------------------------

    def submit(
        self,
        request: ServiceRequest,
        deadline: float | None = None,
    ) -> ServiceResult:
        """Resolve one request: a batch of one (see :meth:`batch`).

        Thread-safe and single-flight: if another thread is already
        computing the same content address, this call waits for that
        result instead of recomputing.  ``deadline`` overrides the
        server's default per-request wall-clock budget; a request
        that resolves past its budget is faulted (``timeout``) even
        when the underlying work succeeded (the artifact stays in the
        store, so the retry is cheap).  When the server is at its
        in-flight high-water mark or draining, the request is refused
        with a retryable structured fault, never queued unboundedly.
        """
        [result] = self._serve(
            [request], deadline, "server.submit", label=request.label()
        )
        return result

    def batch(
        self,
        requests: list[ServiceRequest],
        deadline: float | None = None,
    ) -> list[ServiceResult]:
        """Resolve a batch: store-first, deduplicated, fanned out.

        Identical requests in the batch collapse to one job
        (single-flight within the batch); keys another thread is
        already computing are awaited, not recomputed.  All remaining
        jobs go to the worker pool in one ``map`` so they run
        concurrently when the pool is parallel.  Returns one result
        per request, in order — faults are reported on the result,
        never raised.

        Admission control and the per-request wall-clock ``deadline``
        apply exactly as in :meth:`submit`: a batch past the in-flight
        high-water mark (the whole batch counts) is refused with
        retryable faults, and each result is checked against the
        budget on completion.
        """
        return self._serve(
            requests, deadline, "server.batch", size=len(requests)
        )

    def _serve(
        self,
        requests: list[ServiceRequest],
        deadline: float | None,
        span_name: str,
        **attrs,
    ) -> list[ServiceResult]:
        """Admit, resolve and finish ``requests`` (admission ->
        store -> in-flight join -> compute), one result each."""
        t0 = time.monotonic()
        self._count("requests", len(requests))
        if not requests:
            return []
        budget = (
            self.request_deadline if deadline is None else deadline
        )
        reason = self._admit(len(requests))
        if reason is not None:
            return [
                self._finish(self._refuse(request, reason, t0))
                for request in requests
            ]
        try:
            with span(span_name, **attrs):
                results = self._resolve_batch(requests, t0, budget)
        finally:
            self._release(len(requests))
        return [
            self._finish(self._enforce_deadline(result, budget))
            for result in results
        ]

    def _claim(
        self, key: tuple[str, str]
    ) -> tuple[_InFlight, bool]:
        with self._mutex:
            record = self._inflight.get(key)
            if record is not None:
                return record, False
            record = _InFlight()
            self._inflight[key] = record
            return record, True

    @staticmethod
    def _pop_spans(payload):
        """Strip (and re-emit) worker spans smuggled in an artifact —
        they must never be persisted to the content-addressed store."""
        if isinstance(payload, dict):
            absorb(payload.pop("__spans__", None))
        return payload

    def _resolve_batch(
        self,
        requests: list[ServiceRequest],
        t0: float,
        budget: float | None,
    ) -> list[ServiceResult]:
        deadline_at = t0 + budget if budget is not None else None
        results: list[ServiceResult | None] = [None] * len(requests)
        #: (kind, key) -> positions in the batch that want it.
        wanted: dict[tuple[str, str], list[int]] = {}
        for pos, request in enumerate(requests):
            try:
                kk = request_key(request)
            except Exception as error:
                results[pos] = self._fail(
                    request, error, "prepare", t0
                )
                continue
            wanted.setdefault(kk, []).append(pos)
        duplicate_count = sum(
            len(slots) - 1 for slots in wanted.values()
        )
        self._count("deduped_in_batch", duplicate_count)

        # Store pass.
        misses: list[tuple[str, str]] = []
        for (kind, key), slots in wanted.items():
            payload = self.store.get(kind, key)
            if payload is None:
                misses.append((kind, key))
                continue
            self._count("store_hits", len(slots))
            elapsed = time.monotonic() - t0
            for pos in slots:
                results[pos] = ServiceResult(
                    request=requests[pos],
                    artifact_kind=kind,
                    key=key,
                    payload=payload,
                    fault=None,
                    source="store",
                    latency=elapsed,
                )

        # Claim misses; keys in flight elsewhere are awaited below.
        owned: dict[tuple[str, str], _InFlight] = {}
        awaited: list[tuple[tuple[str, str], _InFlight]] = []
        for kk in misses:
            record, owner = self._claim(kk)
            if owner:
                owned[kk] = record
            else:
                awaited.append((kk, record))

        # Fan owned jobs out across the pool in one map.  Each owned
        # job is journalled while in flight: a server killed here
        # leaves per-key records the restarted server sweeps.  Every
        # slot wanting an owned key is filled as its outcome lands.
        journal_ids: list[str] = []
        try:
            tasks = []
            job_deadline = self._job_deadline(deadline_at)
            trace = tracing_enabled()
            corr_id = correlation_id()
            for seq, (kind, key) in enumerate(owned):
                request = requests[wanted[(kind, key)][0]]
                if self.journal is not None:
                    journal_ids.append(
                        self.journal.begin(kind, key, request.label())
                    )
                tasks.append(
                    (
                        seq,
                        request.label(),
                        {
                            "request": request.to_json(),
                            "deadline": job_deadline,
                            "trace": trace,
                            "corr_id": corr_id,
                        },
                    )
                )
            if tasks:
                with self._pool_mutex:
                    outcomes = self.pool.map(tasks)
            else:
                outcomes = []
            for (kind, key), (payload, fault_json) in zip(
                owned, outcomes
            ):
                first, *duplicates = wanted[(kind, key)]
                if fault_json is not None:
                    fault = Fault.from_json(fault_json)
                    self._record_fault(fault)
                    payload = None
                    source = "failed"
                else:
                    fault = None
                    payload = self._pop_spans(payload)
                    self.store.put(kind, key, payload)
                    self._count("computed")
                    source = "computed"
                result = ServiceResult(
                    request=requests[first],
                    artifact_kind=kind,
                    key=key,
                    payload=payload,
                    fault=fault,
                    source=source,
                    latency=time.monotonic() - t0,
                )
                owned[(kind, key)].result = results[first] = result
                for pos in duplicates:
                    results[pos] = _replace(result, request=requests[pos])
        finally:
            for entry_id in journal_ids:
                self.journal.finish(entry_id)
            with self._mutex:
                for kk in owned:
                    self._inflight.pop(kk, None)
            for record in owned.values():
                record.event.set()

        # Join keys another thread is computing (after publishing our
        # own, so two batches awaiting each other cannot deadlock).
        for (kind, key), record in awaited:
            slots = wanted[(kind, key)]
            wait_budget = (
                max(0.0, deadline_at - time.monotonic())
                if deadline_at is not None
                else None
            )
            if not record.event.wait(wait_budget):
                for pos in slots:
                    fault = TimeoutFault(
                        message=(
                            "request deadline expired while waiting "
                            "on another caller's in-flight computation"
                        ),
                        candidate=requests[pos].label(),
                        stage="request",
                    )
                    self._record_fault(fault)
                    self._count("deadline_expired")
                    results[pos] = ServiceResult(
                        request=requests[pos],
                        artifact_kind=kind,
                        key=key,
                        payload=None,
                        fault=fault,
                        source="failed",
                        latency=time.monotonic() - t0,
                    )
                continue
            self._count("joined_inflight", len(slots))
            shared = record.result
            for pos in slots:
                if shared is None:  # owner died without publishing
                    results[pos] = self._fail(
                        requests[pos],
                        RuntimeError(
                            "in-flight computation vanished without "
                            "a result"
                        ),
                        "prepare",
                        t0,
                        kind,
                        key,
                    )
                    continue
                if shared.fault is not None:
                    self._record_fault(shared.fault)
                results[pos] = _replace(
                    shared,
                    request=requests[pos],
                    source="inflight" if shared.ok else shared.source,
                    latency=time.monotonic() - t0,
                )
        return results  # type: ignore[return-value]

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Traffic, dedup, faults, pool health, cache sizes, store."""
        with self._mutex:
            fault_kinds = dict(self._fault_kinds)
            recent = list(self._recent)
            inflight = len(self._inflight)
            draining = self._draining
            inflight_requests = self._inflight_requests
        counters = {
            name: self.metrics.counter(name).value
            for name in self._COUNTER_NAMES
        }
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "counters": counters,
            "fault_kinds": fault_kinds,
            "recent": recent,
            "metrics": self.metrics.to_json(),
            "inflight": inflight,
            "lifecycle": {
                "draining": draining,
                "inflight_requests": inflight_requests,
                "max_inflight": self.max_inflight,
                "request_deadline": self.request_deadline,
                "interrupted_on_restart": list(self.interrupted),
            },
            "pool": {
                "workers": self.pool.config.workers,
                "degraded": self.pool.degraded,
                "events": list(self.pool.events),
            },
            "caches": {
                "decode_programs": engine.decode_cache_size(),
                "layer_memo": networks.layer_cache_size(),
                "layer_memo_limit": networks.layer_cache_limit(),
            },
            "store": self.store.stats(),
        }

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


__all__ = [
    "REQUEST_KINDS",
    "CompileServer",
    "ServiceRequest",
    "ServiceResult",
    "request_key",
]
