"""The compile service wire protocol: Unix-socket server loop + client.

The transport is :mod:`multiprocessing.connection` over ``AF_UNIX`` —
stdlib, authenticated by filesystem permissions on the socket path,
and message-framed, so the protocol is plain dicts:

    request:  {"op": "submit", "request": <ServiceRequest JSON>,
               "deadline": <seconds|absent>,
               "corr_id": <hex|absent>, "trace": <bool|absent>}
              {"op": "batch", "requests": [<ServiceRequest JSON>, ...],
               "deadline": <seconds|absent>,
               "corr_id": <hex|absent>, "trace": <bool|absent>}
              {"op": "stats"} | {"op": "gc", "max_bytes": N|null}
              {"op": "ping"} | {"op": "shutdown"}
    reply:    {"ok": true, ...}   on success
              {"ok": false, "error": "..."} on a protocol-level error

Observability rides the same dicts: the client mints a correlation id
per call (``corr_id``), the server resolves the request under it —
every span and log line on the way down to the simulator carries that
id, and each result echoes it back (``correlation_id``).  When the
client has tracing active (:mod:`repro.obs.tracing`), ``trace: true``
asks the server to record its spans (including pool-worker spans) and
return them on the reply (``spans``), which the client absorbs into
its own recorder — one Perfetto-loadable timeline across client,
server, worker and simulator.  Setting ``REPRO_SERVICE_LOG=1`` in the
server's environment logs one line per served request (label, source,
latency, correlation id) to stderr.

Job-level failures are never protocol errors: a submit/batch reply is
``ok`` with each result carrying its own structured ``fault`` (the
:mod:`repro.tune.faults` taxonomy), so one bad kernel cannot take a
batch down.

**Server lifecycle** (:func:`serve_forever`): each accepted connection
is served on its own thread, so many clients can race one server —
the :class:`~repro.service.server.CompileServer`'s admission control
(``max_inflight``) is the backpressure valve.  SIGTERM/SIGINT (and the
``shutdown`` op) trigger a *graceful drain*: the listener closes, new
requests are refused with a retryable ``cancelled`` fault, in-flight
work gets ``drain_timeout`` seconds to finish (stragglers are faulted
at the wire by closing their connections), the store sweeps its
temporaries, and the loop returns a documented exit code
(:data:`EXIT_OK` / :data:`EXIT_SIGINT` / :data:`EXIT_SIGTERM` /
:data:`EXIT_CRASH`).

**Client** (:class:`ServiceClient`): one connection per call with a
connect timeout and a per-call reply timeout; transport failures and
retryable server faults (overload, drain, deadline) earn a bounded
retry with exponential backoff + jitter, reconnecting transparently
across server restarts; a circuit breaker fails fast
(:class:`CircuitOpenError`) after consecutive transport failures and
half-opens on a probe ``ping``.  Every failure the client surfaces is
either a structured fault *on a result* or a :class:`ServiceError`
carrying a taxonomy fault — never a raw ``EOFError`` or a hang.

**Chaos**: ``serve_forever(injector=...)`` (or the
``REPRO_FAULTS`` env var, same grammar as the tuner's) applies
service-scoped injections keyed by request sequence number:
``drop-connection``, ``delay-response``, ``crash-server``,
``reject-admission``.  See ``docs/SERVICE.md``.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import sys
import threading
import time
from contextlib import ExitStack
from multiprocessing.connection import Connection, Listener
from pathlib import Path

from ..obs.tracing import (
    absorb,
    correlation,
    correlation_id,
    new_correlation_id,
    recording,
    span,
    tracing_enabled,
)
from ..tune.faults import (
    Fault,
    FaultInjector,
    TimeoutFault,
    TransportFault,
)
from .server import CompileServer, ServiceRequest
from .store import ArtifactStore, RequestJournal

#: Exit codes :func:`serve_forever` returns (and the CLI propagates).
EXIT_OK = 0  #: clean ``shutdown`` op, drained
EXIT_CRASH = 70  #: injected ``crash-server`` (chaos harness; EX_SOFTWARE)
EXIT_SIGINT = 130  #: SIGINT received, drained
EXIT_SIGTERM = 143  #: SIGTERM received, drained

_EXIT_BY_REASON = {
    "shutdown": EXIT_OK,
    "crash": EXIT_CRASH,
    "sigint": EXIT_SIGINT,
    "sigterm": EXIT_SIGTERM,
}

#: Default seconds a draining server gives in-flight work.
DRAIN_TIMEOUT_DEFAULT = 10.0


class ServiceError(RuntimeError):
    """A protocol-level failure reported by the server."""


class ServiceUnavailable(ServiceError):
    """The server could not be reached (or never answered) after the
    client's bounded retries.  Carries the structured taxonomy
    :attr:`fault` (``transport`` or ``timeout``) so callers — and the
    chaos property — always see a classified failure, never a raw
    ``EOFError``."""

    def __init__(self, message: str, fault: Fault):
        super().__init__(message)
        self.fault = fault


class CircuitOpenError(ServiceUnavailable):
    """The client's circuit breaker is open: consecutive transport
    failures crossed the threshold, so calls fail fast without
    touching the socket until a half-open probe ``ping`` succeeds."""


#: Connections that must not leak into forked children.  The server
#: prestarts its worker pool before accepting (see ``CompileServer``),
#: but a worker *respawned* after a crash forks mid-connection and
#: inherits every open connection fd; when client and server share a
#: process (server thread — the bench/CI pattern), the inherited
#: client-side fd keeps the server's ``recv`` from ever seeing EOF.
#: Forked children therefore close every tracked connection first
#: thing.  The listener is deliberately NOT tracked: ``Listener.close``
#: unlinks the socket file, which would yank it out from under the
#: parent.
_GUARDED_CONNECTIONS: set = set()
_fork_guard_installed = False


def _close_guarded_connections() -> None:
    for connection in list(_GUARDED_CONNECTIONS):
        try:
            connection.close()
        except OSError:
            pass
    _GUARDED_CONNECTIONS.clear()


def _install_fork_guard() -> None:
    global _fork_guard_installed
    if not _fork_guard_installed:
        os.register_at_fork(after_in_child=_close_guarded_connections)
        _fork_guard_installed = True


# -- the server loop ------------------------------------------------------------


class _ServeState:
    """Shared lifecycle state of one :func:`serve_forever` run."""

    def __init__(self, listener: Listener):
        self.listener = listener
        self.mutex = threading.Lock()
        self.connections: set = set()
        self.threads: list[threading.Thread] = []
        #: First stop wins: "shutdown" | "sigterm" | "sigint" | "crash".
        self.stop_reason: str | None = None
        self._seq = 0

    def next_seq(self) -> int:
        """Admission sequence number of the next job-bearing message
        (the chaos injection key)."""
        with self.mutex:
            seq = self._seq
            self._seq += 1
            return seq

    def initiate_stop(self, reason: str) -> None:
        """Record the stop reason (first wins) and close the listener
        so the accept loop wakes up.  Safe from any thread and from a
        signal handler."""
        with self.mutex:
            if self.stop_reason is not None:
                return
            self.stop_reason = reason
        # shutdown() before close(): closing a listening socket from
        # another thread does NOT wake a blocked accept() on Linux,
        # shutting it down does.
        try:
            self.listener._listener._socket.shutdown(  # noqa: SLF001
                socket.SHUT_RDWR
            )
        except (OSError, AttributeError):
            pass
        try:
            self.listener.close()
        except OSError:
            pass

    def close_connections(self) -> None:
        with self.mutex:
            connections = list(self.connections)
        for connection in connections:
            _GUARDED_CONNECTIONS.discard(connection)
            try:
                connection.close()
            except OSError:
                pass


def _clear_stale_socket(socket_path: Path) -> None:
    """Unlink a socket file a crashed server left behind.

    A kill -9'd server never removes its socket, and binding over an
    existing file fails — so a restart would be impossible without
    this.  The file is probed first: if something answers, a live
    server owns it and we refuse to serve (two servers on one socket
    silently splits traffic).
    """
    if not socket_path.exists():
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.25)
        try:
            probe.connect(str(socket_path))
        except OSError:
            # Nothing listening: stale leftover from an unclean exit.
            try:
                socket_path.unlink()
            except (FileNotFoundError, OSError):
                pass
            return
        raise ServiceError(
            f"{socket_path} already has a live server"
        )
    finally:
        probe.close()


#: Env var that, when set (to anything non-empty), makes the serve
#: loop log one stderr line per served request — label, artifact
#: source, latency and the request's correlation id, so served
#: traffic can be grepped by corr id straight out of the logs.
SERVICE_LOG_ENV = "REPRO_SERVICE_LOG"


def _log_served(op: str, results) -> None:
    if not os.environ.get(SERVICE_LOG_ENV):
        return
    for result in results:
        fault = result.fault.kind if result.fault is not None else "-"
        print(
            f"[kernel-service] op={op} label={result.request.label()} "
            f"source={result.source} fault={fault} "
            f"latency={result.latency:.3f}s "
            f"corr_id={result.correlation_id or '-'}",
            file=sys.stderr,
        )


def _dispatch(
    server: CompileServer,
    message,
    state: _ServeState,
    injector: FaultInjector | None,
) -> tuple[dict | None, str | None]:
    """(reply, action) for one protocol message.

    ``action`` is None (send the reply and keep serving), ``"drop"``
    (close the connection without replying), ``"crash"`` (tear the
    whole server down abruptly), or ``"stop"`` (send the reply, then
    drain and exit).
    """
    if not isinstance(message, dict) or "op" not in message:
        return {"ok": False, "error": "malformed message"}, None
    op = message["op"]
    try:
        if op == "ping":
            return {"ok": True, "pong": True}, None
        if op in ("submit", "batch"):
            seq = state.next_seq()
            injection = (
                injector.for_request(seq) if injector else None
            )
            if injection is not None:
                if injection.action == "crash-server":
                    return None, "crash"
                if injection.action == "drop-connection":
                    return None, "drop"
            deadline = message.get("deadline")
            if deadline is not None:
                deadline = float(deadline)
            corr_id = message.get("corr_id") or None
            recorder = None
            with ExitStack() as stack:
                stack.enter_context(correlation(corr_id))
                if message.get("trace"):
                    recorder = stack.enter_context(recording())
                entries = (
                    [message["request"]]
                    if op == "submit"
                    else message.get("requests", [])
                )
                requests = [
                    ServiceRequest.from_json(entry) for entry in entries
                ]
                if (
                    injection is not None
                    and injection.action == "reject-admission"
                ):
                    results = [
                        server.reject(request) for request in requests
                    ]
                elif op == "submit":
                    results = [
                        server.submit(requests[0], deadline=deadline)
                    ]
                else:
                    results = server.batch(requests, deadline=deadline)
                _log_served(op, results)
            shaped = [result.to_json() for result in results]
            reply = (
                {"ok": True, "result": shaped[0]}
                if op == "submit"
                else {"ok": True, "results": shaped}
            )
            if recorder is not None:
                reply["spans"] = recorder.events_json()
            if (
                injection is not None
                and injection.action == "delay-response"
            ):
                time.sleep(injection.value)
            return reply, None
        if op == "stats":
            return {"ok": True, "stats": server.stats()}, None
        if op == "gc":
            report = server.store.gc(message.get("max_bytes"))
            return {"ok": True, "gc": report}, None
        if op == "shutdown":
            return {"ok": True, "shutdown": True}, "stop"
        return {"ok": False, "error": f"unknown op {op!r}"}, None
    except Exception as error:
        return {"ok": False, "error": str(error)}, None


def _serve_connection(
    server: CompileServer,
    connection,
    state: _ServeState,
    injector: FaultInjector | None,
) -> None:
    """One connection's request loop (runs on its own thread)."""
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            reply, action = _dispatch(server, message, state, injector)
            if action == "crash":
                state.initiate_stop("crash")
                break
            if action == "drop":
                break
            try:
                connection.send(reply)
            except (BrokenPipeError, OSError):
                break
            if action == "stop":
                state.initiate_stop("shutdown")
                break
    finally:
        _GUARDED_CONNECTIONS.discard(connection)
        with state.mutex:
            state.connections.discard(connection)
        try:
            connection.close()
        except OSError:
            pass


def serve_forever(
    store_dir: str | Path,
    socket_path: str | Path,
    workers: int = 1,
    deadline: float | None = None,
    retries: int = 2,
    max_bytes: int | None = None,
    ready=None,
    max_inflight: int | None = None,
    request_deadline: float | None = None,
    drain_timeout: float = DRAIN_TIMEOUT_DEFAULT,
    injector: FaultInjector | None = None,
) -> int:
    """Run a compile server on a Unix socket until shutdown or signal.

    Each accepted connection is served on its own thread; the
    server's admission control (``max_inflight``) bounds concurrent
    work.  ``ready``, if given, is called with the listener address
    once the socket is accepting connections (used by tests and the
    CLI to avoid connect races).  Removes the socket file on exit and
    returns a documented exit code: :data:`EXIT_OK` after a clean
    ``shutdown`` op, :data:`EXIT_SIGTERM` / :data:`EXIT_SIGINT` after
    a signal-triggered drain, :data:`EXIT_CRASH` after an injected
    ``crash-server``.

    Signal handlers are only installed when running on the main
    thread (tests host the loop on a worker thread and stop it via
    the ``shutdown`` op instead).  ``injector`` (or the
    ``REPRO_FAULTS`` env var) arms the service chaos harness.
    """
    socket_path = Path(socket_path)
    if injector is None:
        injector = FaultInjector.from_env()
    store = ArtifactStore(store_dir, max_bytes=max_bytes)
    journal = RequestJournal(store.root / "journal.json")
    server = CompileServer(
        store,
        workers=workers,
        deadline=deadline,
        retries=retries,
        max_inflight=max_inflight,
        request_deadline=request_deadline,
        journal=journal,
    )
    if server.interrupted:
        labels = ", ".join(
            record.get("label") or record.get("key", "?")
            for record in server.interrupted
        )
        print(
            f"recovered from an unclean shutdown: "
            f"{len(server.interrupted)} interrupted request(s) "
            f"[{labels}] — clients should resubmit (completed keys "
            f"are warm store hits)",
            file=sys.stderr,
        )
    _clear_stale_socket(socket_path)
    listener = Listener(str(socket_path), family="AF_UNIX")
    _install_fork_guard()
    state = _ServeState(listener)

    previous_handlers: dict[int, object] = {}
    on_main_thread = (
        threading.current_thread() is threading.main_thread()
    )
    if on_main_thread:
        for signum, reason in (
            (signal.SIGTERM, "sigterm"),
            (signal.SIGINT, "sigint"),
        ):
            previous_handlers[signum] = signal.signal(
                signum,
                lambda _signum, _frame, reason=reason: (
                    state.initiate_stop(reason)
                ),
            )
    try:
        if ready is not None:
            ready(str(socket_path))
        while True:
            try:
                connection = listener.accept()
            except OSError:
                break
            if state.stop_reason is not None:
                try:
                    connection.close()
                except OSError:
                    pass
                break
            _GUARDED_CONNECTIONS.add(connection)
            with state.mutex:
                state.connections.add(connection)
            thread = threading.Thread(
                target=_serve_connection,
                args=(server, connection, state, injector),
                daemon=True,
            )
            state.threads.append(thread)
            thread.start()
    except KeyboardInterrupt:
        state.initiate_stop("sigint")
    finally:
        reason = state.stop_reason or "shutdown"
        if reason == "crash":
            # Abrupt teardown — the whole point of the injection: no
            # drain, no replies, connections dropped mid-flight.
            state.close_connections()
            server.close()
        else:
            # Graceful drain: refuse new work, let in-flight requests
            # finish (or time out), flush replies, then fault any
            # stragglers at the wire by closing their connections.
            drained = server.drain(drain_timeout)
            grace = time.monotonic() + min(1.0, drain_timeout)
            for thread in state.threads:
                thread.join(max(0.0, grace - time.monotonic()))
            state.close_connections()
            stop_at = time.monotonic() + 5.0
            for thread in state.threads:
                thread.join(max(0.0, stop_at - time.monotonic()))
            server.close()
            store.gc()  # flush: sweep stale temporaries on the way out
            if not drained:
                print(
                    f"drain timed out after {drain_timeout:g}s; "
                    f"in-flight work was faulted at the wire",
                    file=sys.stderr,
                )
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        try:
            listener.close()
        except OSError:
            pass
        try:
            os.unlink(socket_path)
        except (FileNotFoundError, OSError):
            pass
    return _EXIT_BY_REASON[reason]


# -- the client -----------------------------------------------------------------


class ServiceClient:
    """Talk to a :func:`serve_forever` server from another process.

    One connection per call — stateless from the client's view::

        client = ServiceClient("/tmp/repro.sock")
        result = client.submit(
            ServiceRequest("compile", "matmul", (4, 8, 8))
        )
        assert result["source"] in ("store", "computed")

    Resilience knobs (all per-client):

    * ``connect_timeout`` / ``call_timeout`` — seconds to establish a
      connection / to wait for a reply (None = wait forever).  A
      wedged server surfaces a structured ``timeout`` fault instead
      of blocking the caller.
    * ``retries`` / ``backoff`` / ``max_backoff`` / ``jitter`` —
      bounded retry for *retryable* failures only (transport errors,
      timeouts, server-side ``overload``/``cancelled``/``timeout``
      faults); deterministic faults (compile, verify, sim) are
      returned immediately.  Attempt N waits
      ``min(max_backoff, backoff * 2**(N-1)) * (1 + jitter * U[0,1))``
      seconds — the jitter de-synchronizes herds of retrying clients.
    * ``breaker_threshold`` / ``breaker_cooldown`` — after
      ``breaker_threshold`` *consecutive* transport-level failures
      the circuit opens: calls raise :class:`CircuitOpenError`
      immediately (no socket traffic) until ``breaker_cooldown``
      seconds pass, then one probe ``ping`` half-opens it.

    Transport failures that outlive the retry budget raise
    :class:`ServiceUnavailable` carrying the taxonomy fault; job
    failures always come back *on the result*, never as exceptions.
    """

    def __init__(
        self,
        socket_path: str | Path,
        connect_timeout: float | None = 5.0,
        call_timeout: float | None = 60.0,
        retries: int = 3,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        jitter: float = 0.25,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
    ):
        self.address = str(socket_path)
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = breaker_cooldown
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._open_until: float | None = None

    # -- transport ------------------------------------------------------------

    def _connect(self) -> Connection:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.connect_timeout)
            sock.connect(self.address)
            sock.setblocking(True)
        except BaseException:
            sock.close()
            raise
        return Connection(sock.detach())

    def _call_once(self, message: dict) -> tuple[object, Fault | None]:
        """One connect-send-recv round: (reply, None) or (None, fault).

        Never raises on transport trouble — every failure mode maps
        onto the taxonomy (``transport`` or ``timeout``).
        """
        _install_fork_guard()
        try:
            connection = self._connect()
        except (socket.timeout, TimeoutError):
            return None, TimeoutFault(
                message=(
                    f"connect to {self.address} timed out after "
                    f"{self.connect_timeout:g}s"
                ),
                stage="connect",
            )
        except (ConnectionError, FileNotFoundError, OSError) as error:
            return None, TransportFault(
                message=(
                    f"connect to {self.address} failed: "
                    f"{type(error).__name__}: {error}"
                ),
                stage="connect",
            )
        _GUARDED_CONNECTIONS.add(connection)
        try:
            connection.send(message)
            if self.call_timeout is not None and not connection.poll(
                self.call_timeout
            ):
                return None, TimeoutFault(
                    message=(
                        f"no reply within {self.call_timeout:g}s "
                        f"(server wedged or overloaded)"
                    ),
                    stage="call",
                )
            return connection.recv(), None
        except (EOFError, BrokenPipeError, ConnectionError) as error:
            return None, TransportFault(
                message=(
                    f"connection lost mid-call: "
                    f"{type(error).__name__}: {error}"
                ),
                stage="call",
            )
        except OSError as error:
            return None, TransportFault(
                message=f"transport error mid-call: {error}",
                stage="call",
            )
        finally:
            _GUARDED_CONNECTIONS.discard(connection)
            try:
                connection.close()
            except OSError:
                pass

    # -- circuit breaker ------------------------------------------------------

    def _breaker_gate(self) -> None:
        """Fail fast while the circuit is open; half-open probe after
        the cooldown."""
        with self._lock:
            if self._open_until is None:
                return
            remaining = self._open_until - time.monotonic()
            if remaining > 0:
                raise CircuitOpenError(
                    f"circuit open ({self._consecutive_failures} "
                    f"consecutive transport failures); failing fast "
                    f"for another {remaining:.2f}s",
                    fault=TransportFault(
                        message="circuit breaker open; failing fast",
                        stage="circuit",
                    ),
                )
        # Half-open: one probe ping decides.
        reply, fault = self._call_once({"op": "ping"})
        healthy = (
            fault is None
            and isinstance(reply, dict)
            and bool(reply.get("pong"))
        )
        with self._lock:
            if healthy:
                self._consecutive_failures = 0
                self._open_until = None
                return
            self._open_until = (
                time.monotonic() + self.breaker_cooldown
            )
        raise CircuitOpenError(
            "half-open probe ping failed; circuit re-opened",
            fault=fault
            or TransportFault(
                message="probe ping got a malformed reply",
                stage="circuit",
            ),
        )

    def _record_outcome(self, ok: bool) -> None:
        with self._lock:
            if ok:
                self._consecutive_failures = 0
                self._open_until = None
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.breaker_threshold:
                self._open_until = (
                    time.monotonic() + self.breaker_cooldown
                )

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(
            self.max_backoff, self.backoff * (2 ** (attempt - 1))
        )
        time.sleep(delay * (1.0 + self.jitter * random.random()))

    # -- calls ----------------------------------------------------------------

    def _call(self, message: dict, retries: int | None = None) -> dict:
        """One protocol call with transport retry + circuit breaker.

        Raises :class:`CircuitOpenError` while the breaker is open,
        :class:`ServiceUnavailable` (with the taxonomy fault) once the
        retry budget is exhausted, and plain :class:`ServiceError` for
        protocol-level failures reported by the server.
        """
        budget = self.retries if retries is None else retries
        self._breaker_gate()
        attempt = 0
        while True:
            attempt += 1
            reply, fault = self._call_once(message)
            if fault is None:
                self._record_outcome(True)
                if not isinstance(reply, dict):
                    raise ServiceError(f"malformed reply: {reply!r}")
                if not reply.get("ok"):
                    raise ServiceError(
                        reply.get("error", "unknown server error")
                    )
                return reply
            self._record_outcome(False)
            if fault.retryable and attempt <= budget:
                self._sleep_backoff(attempt)
                continue
            raise ServiceUnavailable(
                fault.describe(),
                fault=fault.with_attempts(attempt),
            )

    def ping(self) -> bool:
        """One probe round-trip; False (never an exception) when the
        server is unreachable or answers garbage."""
        reply, fault = self._call_once({"op": "ping"})
        ok = (
            fault is None
            and isinstance(reply, dict)
            and bool(reply.get("pong"))
        )
        self._record_outcome(ok)
        return ok

    @staticmethod
    def _retryable(result: dict) -> bool:
        fault = result.get("fault")
        return bool(fault) and bool(fault.get("retryable"))

    def submit(
        self,
        request: ServiceRequest,
        deadline: float | None = None,
        corr_id: str | None = None,
    ) -> dict:
        """Resolve one request; returns the ServiceResult as JSON.

        Retryable *server-side* faults (overload, drain, request
        deadline) are retried with backoff just like transport
        failures — the store makes the retry cheap.  Deterministic
        faults come back immediately on the result.

        A correlation id is minted per call (inherited from an
        enclosing :func:`repro.obs.tracing.correlation` scope, or
        passed explicitly as ``corr_id``); it rides the wire, tags
        every server/worker/simulator span, and comes back on the
        result as ``correlation_id``.
        """
        cid = corr_id or correlation_id() or new_correlation_id()
        message: dict = {
            "op": "submit",
            "request": request.to_json(),
            "corr_id": cid,
        }
        if deadline is not None:
            message["deadline"] = deadline
        if tracing_enabled():
            message["trace"] = True
        attempt = 0
        with correlation(cid), span(
            "client.submit", label=request.label()
        ):
            while True:
                attempt += 1
                reply = self._call(message)
                absorb(reply.get("spans"))
                result = reply["result"]
                if (
                    not self._retryable(result)
                    or attempt > self.retries
                ):
                    return result
                self._sleep_backoff(attempt)

    def batch(
        self,
        requests: list[ServiceRequest],
        deadline: float | None = None,
        corr_id: str | None = None,
    ) -> list[dict]:
        """Resolve a batch; one result JSON per request, in order.

        Slots that come back with *retryable* faults (overload,
        drain, deadline) are resubmitted as a smaller batch, up to
        the retry budget; everything else keeps its first result.
        The whole batch (retries included) shares one correlation id.
        """
        cid = corr_id or correlation_id() or new_correlation_id()
        message: dict = {
            "op": "batch",
            "requests": [r.to_json() for r in requests],
            "corr_id": cid,
        }
        if deadline is not None:
            message["deadline"] = deadline
        if tracing_enabled():
            message["trace"] = True
        with correlation(cid), span(
            "client.batch", size=len(requests)
        ):
            reply = self._call(message)
            absorb(reply.get("spans"))
            results = reply["results"]
            for attempt in range(1, self.retries + 1):
                positions = [
                    pos
                    for pos, result in enumerate(results)
                    if self._retryable(result)
                ]
                if not positions:
                    break
                self._sleep_backoff(attempt)
                retry_message: dict = {
                    "op": "batch",
                    "requests": [
                        requests[pos].to_json() for pos in positions
                    ],
                    "corr_id": cid,
                }
                if deadline is not None:
                    retry_message["deadline"] = deadline
                if tracing_enabled():
                    retry_message["trace"] = True
                reply = self._call(retry_message)
                absorb(reply.get("spans"))
                fresh = reply["results"]
                for pos, result in zip(positions, fresh):
                    results[pos] = result
        return results

    def stats(self) -> dict:
        return self._call({"op": "stats"})["stats"]

    def gc(self, max_bytes: int | None = None) -> dict:
        return self._call({"op": "gc", "max_bytes": max_bytes})["gc"]

    def shutdown(self) -> None:
        """Ask the server to drain and exit (no transport retries —
        a second shutdown against a drained server would just fail)."""
        self._call({"op": "shutdown"}, retries=0)


__all__ = [
    "DRAIN_TIMEOUT_DEFAULT",
    "SERVICE_LOG_ENV",
    "EXIT_CRASH",
    "EXIT_OK",
    "EXIT_SIGINT",
    "EXIT_SIGTERM",
    "CircuitOpenError",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "serve_forever",
]
