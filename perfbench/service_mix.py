"""service_mix: compile and measure requests against a real server.

Set-up starts ``kernel_service serve`` (``serve_forever``, one worker)
in a child process on a fresh store and Unix socket.  Operations are
``submit`` calls and small ``batch`` calls holding a duplicate, over
compile requests (Table 1 kernels x nine pipelines) and ``measure``
requests (every ``ScheduleSpace`` config of the Table 1 kernels,
2-core cluster configs included).  The window is a series of passes
over that universe, each on a fresh server and store: every distinct
request first arrives as a miss, then repeats with seeded Zipf-like
popularity.  Every pass has the same make-up, so the host's speed sets
how many passes a run holds, not its mix of misses and hits; each pass
draws a new arrival order.
This is the only workload that crosses wire -> server ->
single-flight -> pool -> store: misses write the store, hits only read
it, so a store change that helps reads but hurts writes shows.
"""

from __future__ import annotations

import bisect
import os
from collections import Counter
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.compiler import CompiledKernel
from repro.kernels import KERNEL_BUILDERS
from repro.service import (
    ArtifactStore,
    ServiceClient,
    ServiceError,
    ServiceRequest,
)
from repro.transforms.pipelines import PIPELINE_NAMES
from repro.tune import ScheduleSpace, evaluate_config

from .ledger import ContainerCpu, mean
from .stages import (
    CHECK_BUDGET_MS,
    TABLE1,
    TABLE1_SMOKE,
    Measured,
    check_kernel,
    compile_kernel,
    label,
)

# The traffic of one pass is chosen, not taken from a record of real
# traffic (the repository has none): each run reports the hit ratio and
# the miss share of time it produced (``perfbench/README.md``).
#: Share of lone submits that are a request's first arrival (a miss).
NEW_SHARE = 0.15
#: Share of operations that are 3-request batches with a duplicate.
BATCH_SHARE = 0.2
#: Zipf exponent of repeat popularity (earlier arrivals are hotter).
ZIPF_S = 1.1
#: Seconds to wait for the server to accept connections.
START_TIMEOUT = 60.0


def universe(seed: int, smoke: bool) -> list[ServiceRequest]:
    """Every distinct request (``measure`` requests carry the seed)."""
    table = TABLE1_SMOKE if smoke else TABLE1
    pipelines = ("ours", "table3-baseline") if smoke else PIPELINE_NAMES
    requests = [
        ServiceRequest("compile", kernel, sizes, pipeline=pipeline)
        for kernel, sizes in table
        for pipeline in pipelines
    ]
    for kernel, sizes in table:
        space = ScheduleSpace.for_kernel(kernel, sizes, (1, 2))
        requests += [
            ServiceRequest("measure", kernel, sizes, config=config, seed=seed)
            for config in space.configs()
        ]
    return requests


def arrivals(requests: list[ServiceRequest], rng: random.Random) -> list:
    """One pass's arrival order: each kind shuffled, the kinds
    interleaved in a fixed pattern.  Zipf popularity follows arrival
    order, so every pass's hot requests hold compile and ``measure``
    requests in the same proportion, whatever the seed."""
    compiles = [r for r in requests if r.kind == "compile"]
    measures = [r for r in requests if r.kind != "compile"]
    rng.shuffle(compiles)
    rng.shuffle(measures)
    share = len(compiles) / len(requests)
    return [
        (compiles if int((i + 1) * share) > int(i * share) else measures).pop()
        for i in range(len(requests))
    ]


def stable(payload: dict | None):
    """A result as every compute of its request gives it: a compiled
    kernel without the compile's own wall-clock pass timings."""
    if payload is None or "pass_timings" not in payload:
        return payload
    return {k: v for k, v in payload.items() if k != "pass_timings"}


class ServiceMix:
    #: ``op_ms_tail`` is the mean of the operations beyond this
    #: percentile (``ledger.tail``).
    tail_percentile = 95

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.starts = 0
        self.process: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self.requests: list[ServiceRequest] = []
        #: Operations are served by the child, so they are timed by the
        #: CPU time of the whole container.
        self.clock = ContainerCpu()

    def setup(self, ledger) -> None:
        self.requests = universe(self.seed, self.smoke)
        self.start_server()

    def start_server(self) -> None:
        """A fresh store and server (any previous server is stopped)."""
        self.stop_server()
        self.starts += 1
        home = self.tmp / f"server-{self.starts}"
        home.mkdir()
        socket_path = home / "s.sock"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(home / "server.log", "w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.tools.kernel_service",
                    "serve",
                    "--store",
                    str(home / "store"),
                    "--socket",
                    str(socket_path),
                    "--workers",
                    "1",
                ],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.client = ServiceClient(socket_path, call_timeout=120.0)
        give_up = time.monotonic() + START_TIMEOUT
        while not (socket_path.exists() and self.client.ping()):
            if self.process.poll() is not None or time.monotonic() > give_up:
                raise RuntimeError(
                    f"compile server did not start (see {home / 'server.log'})"
                )
            time.sleep(0.01)

    def plan(self, rng: random.Random) -> list[str]:
        """One pass's operation kinds in seeded order: ``new`` (a lone
        miss), ``repeat`` (a lone repeat) and ``batch``.  Every pass has
        the same counts of each."""
        count = len(self.requests)
        repeats = round(count * (1 - NEW_SHARE) / NEW_SHARE)
        batches = round((count + repeats) * BATCH_SHARE / (1 - BATCH_SHARE))
        kinds = ["new"] * (count - 1) + ["repeat"] * repeats + ["batch"] * batches
        rng.shuffle(kinds)
        return ["new"] + kinds

    def run(self, seconds: float, ledger) -> Measured:
        measured = Measured()
        rng = random.Random(self.seed)
        popularity = []
        total = 0.0
        for rank in range(len(self.requests)):
            total += 1.0 / (rank + 1) ** ZIPF_S
            popularity.append(total)

        def repeat(seen: list[ServiceRequest]) -> ServiceRequest:
            point = rng.random() * popularity[len(seen) - 1]
            return seen[bisect.bisect_right(popularity, point, 0, len(seen) - 1)]

        # Every distinct request's first result, and its result in the
        # current pass: a hit must equal its pass's miss, and a miss
        # the first pass's result (but for the compile's own timings).
        first: dict[str, tuple[ServiceRequest, dict]] = {}
        sources: list[str] = []
        # (client wall ms, server wall ms[, key]): the server reports
        # only wall time, so the service.* split is in wall time.
        hits, misses = [], []
        batch_slots = 0
        counters = Counter()
        passes = 0
        deadline = time.perf_counter() + seconds
        index = 0
        while not passes or time.perf_counter() < deadline:
            if passes:
                self.start_server()
            order = arrivals(self.requests, rng)
            seen: list[ServiceRequest] = []
            this_pass: dict[str, dict] = {}
            for kind in self.plan(rng):
                measured.window.calibration.tick()
                if kind == "batch":
                    # Batches carry repeats only: every miss is a lone
                    # submit, so no operation's cost depends on how
                    # misses happen to be grouped.
                    one, two = repeat(seen), repeat(seen)
                    requests = [one, two, one]
                    rng.shuffle(requests)
                elif kind == "new":
                    seen.append(order[len(seen)])
                    requests = [seen[-1]]
                else:
                    requests = [repeat(seen)]
                ledger.op_id = index
                wall = time.perf_counter()
                start = self.clock()
                with ledger.span("op.service_mix"):
                    if kind == "batch":
                        results = self.client.batch(requests)
                    else:
                        results = [self.client.submit(requests[0])]
                ms = self.clock() - start
                wall_ms = (time.perf_counter() - wall) * 1e3
                index += 1
                problems = []
                for request, result in zip(requests, results):
                    sources.append(result["source"])
                    payload = result["payload"]
                    known = first.setdefault(result["key"], (request, payload))
                    if (
                        payload is None
                        or result["fault"]
                        or this_pass.setdefault(result["key"], payload) != payload
                        or stable(known[1]) != stable(payload)
                    ):
                        problems.append(
                            f"{request.label()}: {result['source']} {result['fault']}"
                        )
                source = None if kind == "batch" else results[0]["source"]
                measured.op(
                    ms,
                    not problems,
                    "; ".join(problems),
                    hit={"store": True, "computed": False}.get(source),
                )
                if kind == "batch":
                    batch_slots += len(requests)
                    continue
                server_ms = results[0]["latency"] * 1e3
                if source == "computed":
                    misses.append((wall_ms, server_ms, results[0]["key"]))
                elif source == "store":
                    hits.append((wall_ms, server_ms))
            counters.update(self.client.stats()["counters"])
            passes += 1
        ledger.op_id = -1
        measured.details["passes"] = passes
        job_ms = self.check(measured, first, ledger)
        if ledger.enabled:
            self.replay_store(first, ledger, measured)
        layers = measured.layers
        layers["service.client_ms"] = mean(h[0] for h in hits)
        layers["service.server_ms"] = mean(h[1] for h in hits)
        layers["service.wire_ms"] = (
            layers["service.client_ms"] - layers["service.server_ms"]
        )
        layers["service.job_ms"] = mean(job_ms.values())
        layers["service.pool_ms"] = mean(
            server - job_ms[key] for _, server, key in misses
        )
        layers["service.hit_ratio"] = sources.count("store") / len(sources)
        layers["service.dedup_ratio"] = counters["deduped_in_batch"] / max(
            1, batch_slots
        )
        # Per pass, so the count does not grow with the host's speed.
        layers["service.computed"] = counters["computed"] / passes
        layers["service.faults"] = counters["faults"]
        # Only the server's own latency is measured inside the op; the
        # wire share is derived, so it counts as uncovered.
        layers["trace.coverage"] = sum(m[1] for m in misses + hits) / sum(
            m[0] for m in misses + hits
        )
        return measured

    def check(self, measured: Measured, first: dict, ledger) -> dict[str, float]:
        """Replay every distinct job in-process (untimed): rehydrated
        asm and measured cycles must equal the in-process results."""
        job_ms: dict[str, float] = {}
        fastest: dict[tuple, int] = {}
        default: dict[tuple, int] = {}
        budget_ms = CHECK_BUDGET_MS / sum(
            1 for request, _ in first.values() if request.kind == "compile"
        )
        for index, (key, (request, payload)) in enumerate(first.items()):
            builder = KERNEL_BUILDERS[request.kernel][0]
            start = time.perf_counter()
            with ledger.span("service.job"):
                if request.kind == "compile":
                    with ledger.span("kernels.build"):
                        module, spec = builder(*request.sizes)
                    local = compile_kernel(module, request.pipeline, ledger)
                else:
                    cycles = evaluate_config(
                        request.kernel,
                        request.sizes,
                        request.config,
                        seed=request.seed,
                        validate=request.validate,
                    )
            job_ms[key] = (time.perf_counter() - start) * 1e3
            name = label(request.kernel, request.sizes, request.pipeline)
            if request.kind == "compile":
                served = CompiledKernel.from_json(payload)
                if served.asm != local.asm:
                    measured.fail(f"{name}: served asm differs")
                check_kernel(
                    measured,
                    name,
                    served,
                    spec,
                    self.seed * 1000 + index,
                    ledger,
                    budget_ms,
                )
                continue
            if cycles != payload["cycles"]:
                measured.fail(
                    f"{request.label()}: served {payload['cycles']} cycles, "
                    f"in-process {cycles}"
                )
            shape = (request.kernel, request.sizes)
            fastest[shape] = min(cycles, fastest.get(shape, cycles))
            if request.config.is_default:
                default[shape] = cycles
        measured.speedups += [
            default[shape] / fastest[shape] for shape in default
        ]
        return job_ms

    def replay_store(self, first: dict, ledger, measured: Measured) -> None:
        """Time store writes and reads on a fresh store holding this
        run's artifacts."""
        store = ArtifactStore(self.tmp / f"replay-{self.starts}")
        kinds = {}
        for key, (request, payload) in first.items():
            kinds[key] = "kernel" if request.kind == "compile" else "cycles"
            with ledger.span("service.store_put"):
                store.put(kinds[key], key, payload)
        for key, (request, payload) in first.items():
            with ledger.span("service.store_get"):
                stored = store.get(kinds[key], key)
            if stored != payload:
                measured.fail(f"{request.label()}: store replay differs")

    def close(self) -> None:
        self.stop_server()
        self.clock.close()

    def stop_server(self) -> None:
        """Stop the server and wait for it to exit."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            self.client.shutdown()
            process.wait(timeout=30)
        except (ServiceError, OSError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()
