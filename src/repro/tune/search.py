"""Cycle-oracle schedule search.

The driver walks a kernel's :class:`~repro.tune.schedule.ScheduleSpace`
and *measures* every candidate: compile through the ordinary
``Compiler`` facade with the config's pipeline spec, run on the
predecoded engine (or row-partitioned across a cluster for multi-core
configs), validate against the numpy oracle, score by cycles.  Three
strategies share one evaluation harness:

* ``exhaustive`` — every legal config (optionally budget-capped);
* ``random`` — the default plus a seeded random sample of the rest;
* ``greedy`` — coordinate descent: improve one schedule axis at a
  time until a full sweep finds nothing better or the budget runs out.

Candidates evaluate serially by default; ``workers > 1`` fans a batch
out across the fault-tolerant
:class:`~repro.tune.workers.HardenedPool` (compile + simulate is
pure-Python CPU work, so threads would serialize on the GIL;
fork-style workers inherit the loaded package for free, and platforms
without fork stay serial).  Every failure — compile error, oracle
mismatch, killed worker, blown deadline — surfaces as a structured
:class:`~repro.tune.faults.Fault` on the candidate's outcome;
transient faults are retried by the pool, deterministic ones are
persisted in the :class:`~repro.tune.cache.TuneCache` so reruns skip
them with provenance.  The compiler default is always measured, so the
winning schedule is never worse than the untuned pipeline.  ``Ctrl-C``
raises :class:`SearchInterrupted` carrying the best-so-far partial
result, after checkpointing the cache.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Sequence

import numpy as np

from .. import api
from ..compiler import Compiler
from ..obs.tracing import (
    absorb,
    correlation,
    correlation_id,
    recording,
    span,
    tracing_enabled,
)
from ..snitch.cluster import run_row_partitioned
from ..snitch.engine import ENGINE_VERSION
from .cache import TuneCache
from .faults import Fault, FaultInjector, InjectedError, classify_error
from .schedule import (
    ScheduleConfig,
    ScheduleError,
    ScheduleSpace,
    TunedSchedule,
    cluster_plan,
    resolve_kernel,
)
from .workers import HardenedPool, PoolConfig

STRATEGIES = ("exhaustive", "random", "greedy")


class SearchInterrupted(Exception):
    """Tuning was interrupted (Ctrl-C / SIGTERM / injected interrupt).

    ``partial`` carries the best-so-far :class:`TuneResult` when the
    default schedule had already been scored, else ``None``.  The
    persistent cache has been checkpointed either way.
    """

    def __init__(self, message: str, partial: "TuneResult | None" = None):
        super().__init__(message)
        self.partial = partial


def _apply_injection(injection, serial: bool, deadline) -> None:
    """Enact one planned fault at the top of a measurement."""
    if injection.action == "crash":
        if not serial:  # belt: the injector never returns crash serially
            signal.raise_signal(signal.SIGKILL)
        return
    if injection.action == "delay":
        if serial and deadline is not None and injection.value >= deadline:
            # A serial sleep has no watchdog to cut it short; model the
            # outcome (deadline blown) without actually burning the
            # wall-clock.
            from ..snitch.machine import DeadlineExceeded

            raise DeadlineExceeded(
                f"injected {injection.value:g}s delay exceeded the "
                f"{deadline:g}s deadline"
            )
        time.sleep(injection.value)
        return
    if injection.action == "raise":
        raise InjectedError("injected mid-measure failure")
    if injection.action == "interrupt":
        raise KeyboardInterrupt


def _measure_task(task) -> tuple[int | dict | None, dict | None]:
    """(cycles, fault_json) for one config — the pool's work item.

    Never raises (except ``KeyboardInterrupt``): every failure is
    classified into the fault taxonomy so the pool can apply retry
    policy and the cache can persist provenance.

    When the dispatching search runs under tracing, the payload
    carries the correlation ID (its seventh element); the measurement
    then records per-candidate spans into a local recorder — workers
    are separate processes, so span context cannot ride the
    ``contextvars`` — and smuggles them back through the pool's
    2-tuple result protocol as ``({"cycles": ..., "spans": [...]},
    fault_json)``, which :meth:`_SearchDriver._absorb` unwraps.
    """
    payload, injection, serial = task
    kernel, sizes, config, seed, validate, deadline = payload[:6]
    trace_ctx = payload[6] if len(payload) > 6 else None
    stage: list[str] = ["inject"] if injection is not None else []

    def measure() -> int:
        if injection is not None:
            _apply_injection(injection, serial, deadline)
        return evaluate_config(
            kernel,
            sizes,
            config,
            seed=seed,
            validate=validate,
            deadline_seconds=deadline,
            stage_out=stage,
        )

    try:
        if trace_ctx is None:
            return measure(), None
        with recording() as recorder, correlation(trace_ctx):
            with span("tune.candidate", candidate=config.key()):
                cycles = measure()
        return {"cycles": cycles, "spans": recorder.events_json()}, None
    except KeyboardInterrupt:
        raise
    except Exception as error:  # classify, don't rank
        fault = classify_error(
            error,
            stage=stage[0] if stage else None,
            candidate=config.key(),
        )
        return None, fault.to_json()


def _validate_arrays(kernel: str, arrays, expected) -> None:
    for got, want in zip(arrays, expected):
        if want is not None and not np.allclose(got, want, atol=1e-8):
            raise ScheduleError(
                f"{kernel}: schedule produced results that do not "
                "match the numpy oracle"
            )


def evaluate_config(
    kernel: str,
    sizes: Sequence[int],
    config: ScheduleConfig,
    seed: int = 0,
    validate: bool = True,
    deadline_seconds: float | None = None,
    stage_out: list[str] | None = None,
) -> int:
    """The cycle oracle: measured cycles of one schedule config.

    Compiles the kernel with the config's pipeline spec and simulates
    it on the predecoded engine; multi-core configs row-partition the
    kernel across a cluster sharing one TCDM and score the slowest
    core.  Raises (``ScheduleError`` or the underlying compiler error)
    when the config does not compile or fails validation — the search
    records such configs as invalid rather than ranking them.

    ``deadline_seconds`` arms the simulator's cooperative wall-clock
    watchdog.  ``stage_out``, when given, is overwritten in place with
    the evaluation stage currently executing (``compile`` /
    ``simulate`` / ``verify``) so a caller catching an exception can
    attribute it to the right layer.
    """

    def _stage(name: str) -> None:
        if stage_out is not None:
            stage_out[:] = [name]

    _stage("compile")
    builder, sizes = resolve_kernel(kernel, sizes)
    spec_text = config.pipeline_spec()
    module, kernel_spec = builder(*sizes)
    arguments = kernel_spec.random_arguments(seed=seed)
    if config.num_cores == 1:
        compiled = Compiler(spec_text).compile(module)
        _stage("simulate")
        run = api.run_kernel(
            compiled, arguments, deadline_seconds=deadline_seconds
        )
        if validate:
            _stage("verify")
            _validate_arrays(
                kernel, run.arrays, kernel_spec.reference(*arguments)
            )
        return run.trace.cycles
    plan = cluster_plan(kernel, sizes)
    if plan is None:
        raise ScheduleError(
            f"kernel {kernel!r} has no known row-partitioning"
        )

    def _compile_chunk(chunk_module, _spec):
        _stage("compile")
        compiled = Compiler(spec_text).compile(chunk_module)
        _stage("simulate")
        return compiled

    cluster = run_row_partitioned(
        plan.chunk_builder,
        _compile_chunk,
        plan.shape,
        config.num_cores,
        list(arguments),
        row_parallel_args=list(plan.row_parallel_args),
        deadline_seconds=deadline_seconds,
    )
    if validate:
        _stage("verify")
        _validate_arrays(
            kernel, cluster.arrays, kernel_spec.reference(*arguments)
        )
    return cluster.cycles


@dataclass
class CandidateOutcome:
    """One scored (or failed) schedule candidate."""

    config: ScheduleConfig
    spec: str
    #: Measured cycles; None when the config failed.
    cycles: int | None
    #: Whether the score came from the persistent cache.
    cached: bool
    #: Structured failure (None for a successful measurement).
    fault: Fault | None = None

    @property
    def valid(self) -> bool:
        return self.cycles is not None

    @property
    def error(self) -> str | None:
        """Legacy one-line error string (from the fault)."""
        return self.fault.describe() if self.fault is not None else None


@dataclass
class TuneResult:
    """Everything one tuning run learned."""

    kernel: str
    sizes: tuple[int, ...]
    strategy: str
    seed: int
    best: TunedSchedule
    candidates: list[CandidateOutcome] = field(default_factory=list)
    #: Persistent-cache traffic of this run only.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Pool fault-tolerance log: respawns, retries, watchdog kills,
    #: degradations.
    events: list[str] = field(default_factory=list)
    #: Whether evaluation fell back to serial (fork unavailable or the
    #: pool died repeatedly).
    degraded: bool = False
    #: Whether the search was cut short (the result is best-so-far).
    interrupted: bool = False
    #: Whether the whole result came from a stored TunedSchedule
    #: artifact (no candidates were evaluated this run).
    from_store: bool = False

    @property
    def default_cycles(self) -> int:
        return self.best.default_cycles

    @property
    def candidates_evaluated(self) -> int:
        return len(self.candidates)

    @property
    def faults(self) -> list[Fault]:
        """Structured faults of every failed candidate."""
        return [o.fault for o in self.candidates if o.fault is not None]

    def report(self) -> str:
        """A per-candidate table plus the winning schedule."""
        lines = [
            f"{self.kernel} {'x'.join(map(str, self.sizes))}: "
            f"{self.candidates_evaluated} candidates "
            f"({self.strategy}, seed {self.seed}), "
            f"default {self.default_cycles} -> best {self.best.cycles} "
            f"cycles ({self.best.speedup:.2f}x)"
            + (" [interrupted: partial result]" if self.interrupted else ""),
            f"{'config':<36} {'cycles':>8} {'source':>7}",
        ]
        for outcome in sorted(
            self.candidates,
            key=lambda o: (o.cycles is None, o.cycles or 0),
        ):
            cycles = "failed" if not outcome.valid else str(outcome.cycles)
            source = "cache" if outcome.cached else "run"
            line = f"{outcome.config.key():<36} {cycles:>8} {source:>7}"
            if outcome.fault is not None:
                line += f"  [{outcome.fault.kind}]"
            lines.append(line)
        cores = self.best.config.num_cores
        lines.append(
            f"winning spec: {self.best.pipeline_spec}"
            + (
                f"\n(cycles measured row-partitioned on {cores} cores;"
                " the spec alone is the single-core schedule)"
                if cores != 1
                else ""
            )
        )
        if self.events:
            lines.append("pool events:")
            lines.extend(f"  - {event}" for event in self.events)
        return "\n".join(lines)


class _SearchDriver:
    """Shared evaluation harness: budget, dedup, cache, fault policy."""

    def __init__(
        self,
        space: ScheduleSpace,
        cache: TuneCache,
        seed: int,
        validate: bool,
        workers: int | None,
        budget: int | None,
        deadline: float | None = None,
        retries: int = 2,
        injector: FaultInjector | None = None,
    ):
        self.space = space
        self.cache = cache
        self.seed = seed
        self.validate = validate
        self.workers = 1 if workers is None else max(1, workers)
        self.budget = budget
        self.deadline = deadline
        self.injector = injector
        self.count = 0
        self.ordered: list[CandidateOutcome] = []
        self.by_key: dict[str, CandidateOutcome] = {}
        self._hits0 = cache.hits
        self._misses0 = cache.misses
        #: Measurement sequence number: counts *measured* candidates in
        #: dispatch order (cache hits do not consume one) — the fault
        #: injector's key.
        self._seq = 0
        self.pool = HardenedPool(
            _measure_task,
            PoolConfig(
                workers=self.workers, deadline=deadline, retries=retries
            ),
            decorate=self._decorate,
        )

    def _decorate(self, payload, seq, attempt, serial):
        injection = (
            self.injector.for_attempt(seq, attempt, serial=serial)
            if self.injector is not None
            else None
        )
        return (payload, injection, serial)

    def _key(self, config: ScheduleConfig) -> str:
        return TuneCache.key(self.space.kernel, self.space.sizes, config)

    def remaining(self) -> int | None:
        if self.budget is None:
            return None
        return max(0, self.budget - self.count)

    def score(
        self, configs: Sequence[ScheduleConfig]
    ) -> list[CandidateOutcome]:
        """Score configs (budget-capped, deduplicated, fault-tolerant)."""
        admitted: list[tuple[str, ScheduleConfig]] = []
        for config in configs:
            key = self._key(config)
            if key in self.by_key or any(
                key == k for k, _ in admitted
            ):
                continue
            remaining = self.remaining()
            if remaining is not None and len(admitted) >= remaining:
                break
            admitted.append((key, config))
        self.count += len(admitted)

        pending: list[tuple[str, ScheduleConfig]] = []
        for key, config in admitted:
            hit, cycles, fault = self.cache.lookup(key)
            if hit:
                self._record(
                    key,
                    CandidateOutcome(
                        config=config,
                        spec=config.pipeline_spec(),
                        cycles=cycles,
                        cached=True,
                        fault=fault,
                    ),
                )
            else:
                pending.append((key, config))

        tasks = []
        # When the caller is tracing, ship the correlation ID with each
        # task so worker-side candidate spans join this trace.
        trace_ctx = (
            (correlation_id() or "") if tracing_enabled() else None
        )
        for _, config in pending:
            payload = (
                self.space.kernel,
                self.space.sizes,
                config,
                self.seed,
                self.validate,
                self.deadline,
                trace_ctx,
            )
            tasks.append((self._seq, config.key(), payload))
            self._seq += 1
        staged: dict[int, tuple] = {}
        try:
            measured = self.pool.map(tasks, on_result=staged.__setitem__)
        except KeyboardInterrupt:
            # Bank whatever finished before the interrupt, so the
            # partial result (and the cache checkpoint) keep it.
            for pos in sorted(staged):
                key, config = pending[pos]
                self._absorb(key, config, staged[pos])
            raise
        for (key, config), result in zip(pending, measured):
            self._absorb(key, config, result)
        # Checkpoint after every batch: an interrupt or crash later
        # loses at most one batch of measurements.
        if pending:
            self.cache.save()
        return [self.by_key[key] for key, _ in admitted]

    def _absorb(
        self, key: str, config: ScheduleConfig, result: tuple
    ) -> None:
        """Record one fresh measurement and apply the cache policy."""
        cycles, fault_json = result
        if isinstance(cycles, dict):
            # Traced measurement: unwrap the smuggled worker spans into
            # this context's recorder (see ``_measure_task``).
            absorb(cycles.get("spans"))
            cycles = cycles.get("cycles")
        fault = (
            Fault.from_json(fault_json) if fault_json is not None else None
        )
        if fault is None:
            self.cache.put(key, cycles)
        elif not fault.retryable:
            # Deterministic failures are worth remembering; transient
            # ones (timeout, crash) may succeed next run.
            self.cache.put_failure(key, fault)
        self._record(
            key,
            CandidateOutcome(
                config=config,
                spec=config.pipeline_spec(),
                cycles=cycles,
                cached=False,
                fault=fault,
            ),
        )

    def _record(self, key: str, outcome: CandidateOutcome) -> None:
        self.by_key[key] = outcome
        self.ordered.append(outcome)

    def cycles_of(self, config: ScheduleConfig) -> int | None:
        outcome = self.by_key.get(self._key(config))
        return outcome.cycles if outcome is not None else None

    # -- strategies ----------------------------------------------------------

    def run_exhaustive(self) -> None:
        self.score(list(self.space.configs()))

    def run_random(self) -> None:
        configs = list(self.space.configs())
        default, rest = configs[0], configs[1:]
        self.score([default])
        rng = Random(self.seed)
        limit = len(rest)
        if self.budget is not None:
            limit = min(limit, max(0, self.budget - 1))
        self.score(rng.sample(rest, limit))

    def run_greedy(self) -> None:
        configs = list(self.space.configs())
        current = configs[0]
        self.score([current])
        improved = True
        while improved and (self.remaining() or self.budget is None):
            improved = False
            for axis_values in self._axes(current):
                outcomes = self.score(axis_values)
                best_cycles = self.cycles_of(current)
                if best_cycles is None:
                    return  # default failed; nothing to descend from
                for outcome in outcomes:
                    if outcome.valid and outcome.cycles < best_cycles:
                        best_cycles = outcome.cycles
                        current = outcome.config
                        improved = True
                if self.remaining() == 0:
                    return

    def _axes(self, current: ScheduleConfig):
        space = self.space
        yield [
            replace(current, permutation=perm)
            for perm in (None,) + space.permutations
        ]
        yield [
            replace(current, unroll_factor=factor)
            for factor in space.unroll_factors_for(current.permutation)
        ]
        yield [
            replace(current, num_cores=cores)
            for cores in space.core_counts
        ]

    # -- result assembly -----------------------------------------------------

    def finish(self, strategy: str, interrupted: bool = False) -> TuneResult:
        default = next(
            (o for o in self.ordered if o.config.is_default), None
        )
        if default is None or not default.valid:
            detail = default.error if default is not None else "not scored"
            raise ScheduleError(
                f"{self.space.kernel}: the default schedule failed "
                f"({detail}); tuning has no baseline"
            )
        best = default
        for outcome in self.ordered:
            if outcome.valid and outcome.cycles < best.cycles:
                best = outcome
        tuned = TunedSchedule(
            kernel=self.space.kernel,
            sizes=self.space.sizes,
            config=best.config,
            pipeline_spec=best.spec,
            cycles=best.cycles,
            default_cycles=default.cycles,
        )
        return TuneResult(
            kernel=self.space.kernel,
            sizes=self.space.sizes,
            strategy=strategy,
            seed=self.seed,
            best=tuned,
            candidates=list(self.ordered),
            cache_hits=self.cache.hits - self._hits0,
            cache_misses=self.cache.misses - self._misses0,
            events=list(self.pool.events),
            degraded=self.pool.degraded,
            interrupted=interrupted,
        )


def tune_kernel(
    kernel: str,
    sizes: Sequence[int],
    strategy: str = "exhaustive",
    budget: int | None = None,
    seed: int = 0,
    cache: TuneCache | str | Path | None = None,
    workers: int | None = None,
    core_counts: Sequence[int] = (1,),
    validate: bool = True,
    deadline: float | None = None,
    retries: int = 2,
    injector: FaultInjector | None = None,
    store=None,
) -> TuneResult:
    """Search a kernel's schedule space; returns the full result.

    ``budget`` caps the number of scored candidates (the compiler
    default always counts as — and is — the first).  ``seed`` fixes
    both the input data and the random strategy's sampling, so a tuning
    run is reproducible end to end.  ``cache`` may be a path (opened,
    used, and saved) or an existing :class:`TuneCache` (saved but kept
    open, so several kernels can share one store).  ``workers > 1``
    evaluates each batch across the fault-tolerant
    :class:`~repro.tune.workers.HardenedPool` — worth it for large
    kernels or budgets; the default (serial) is fastest for the Table 1
    micro-shapes.

    ``deadline`` bounds each candidate's wall-clock seconds: in a
    worker the pool's watchdog SIGKILLs past-due candidates; serially
    the engine's cooperative :class:`DeadlineExceeded` fires.
    ``retries`` bounds extra dispatch attempts for transient faults
    (crashes, timeouts).  ``injector`` installs a deterministic
    fault-injection plan (testing / chaos drills).

    An interrupt (Ctrl-C) checkpoints the cache and raises
    :class:`SearchInterrupted` with the best-so-far partial result
    attached.

    ``store`` (an :class:`~repro.service.ArtifactStore`) persists the
    *outcome* of the whole search, complementing the per-measurement
    ``cache``: an identical (kernel, sizes, strategy, seed, budget,
    cores, validate, engine version) run returns the stored
    :class:`TunedSchedule` without evaluating anything
    (``result.from_store``); a fresh run writes its winner back.
    """
    if strategy not in STRATEGIES:
        raise ScheduleError(
            f"unknown strategy {strategy!r} (one of "
            f"{', '.join(STRATEGIES)})"
        )
    if budget is not None and budget < 1:
        raise ScheduleError("budget must allow at least one candidate")
    space = ScheduleSpace.for_kernel(kernel, sizes, core_counts)
    store_key = None
    if store is not None:
        # Lazy import: repro.service depends on this module.
        from ..service.store import content_key

        store_key = content_key(
            "tuned-schedule",
            kernel,
            "x".join(str(int(s)) for s in sizes),
            strategy,
            seed,
            -1 if budget is None else budget,
            list(core_counts),
            validate,
            ENGINE_VERSION,
        )
        payload = store.get("schedule", store_key)
        if payload is not None:
            best = TunedSchedule.from_json(payload)
            if best.engine_version == ENGINE_VERSION:
                return TuneResult(
                    kernel=kernel,
                    sizes=best.sizes,
                    strategy=strategy,
                    seed=seed,
                    best=best,
                    from_store=True,
                )
    if not isinstance(cache, TuneCache):
        cache = TuneCache(cache)
    driver = _SearchDriver(
        space,
        cache,
        seed,
        validate,
        workers,
        budget,
        deadline=deadline,
        retries=retries,
        injector=injector,
    )
    try:
        interrupted = False
        try:
            with span("tune.search", kernel=kernel, strategy=strategy):
                if strategy == "exhaustive":
                    driver.run_exhaustive()
                elif strategy == "random":
                    driver.run_random()
                else:
                    driver.run_greedy()
        except KeyboardInterrupt:
            interrupted = True
        if interrupted:
            partial = None
            try:
                partial = driver.finish(strategy, interrupted=True)
            except ScheduleError:
                pass  # default never scored: nothing to report
            raise SearchInterrupted(
                f"tuning {kernel} interrupted after "
                f"{len(driver.ordered)} candidates",
                partial=partial,
            )
        result = driver.finish(strategy)
        if store is not None:
            store.put("schedule", store_key, result.best.to_json())
        return result
    finally:
        driver.pool.close()
        cache.save()


__all__ = [
    "STRATEGIES",
    "CandidateOutcome",
    "SearchInterrupted",
    "TuneResult",
    "evaluate_config",
    "tune_kernel",
]
