"""tune_search: exhaustive schedule searches, cold then warm.

Each operation tunes one seeded (kernel, shape) draw with
``tune_kernel(exhaustive, core_counts=(1, 2), validate=True)``, first
on an empty cycle-cache file, then again on that file once warm.  This
is the only workload that runs the search driver and ``tune/cache.py``;
it reuses compile and simulate many times on one kernel.  The seed
orders the draws (every pool entry once per shuffled round) and draws
each search's validation inputs.
"""

from __future__ import annotations

import random
import time

from repro import api
from repro.kernels import KERNEL_BUILDERS
from repro.tune import TuneCache, evaluate_config, tune_kernel

from .ledger import cpu_ms, mean
from .stages import (
    CHECK_BUDGET_MS,
    TABLE1,
    Measured,
    check_kernel,
    label,
    rounds,
)

#: Table 1 plus four shapes whose best schedule differs in kind.  The
#: count is odd so the median operation is one pool entry's search.
POOL = TABLE1 + (
    ("matmul", (1, 16, 16)),
    ("conv3x3", (4, 8)),
    ("matvec", (4, 16)),
    ("sum", (4, 16)),
)
POOL_SMOKE = (("relu", (4, 8)), ("matvec", (4, 8)))
CORE_COUNTS = (1, 2)


def tune(kernel, sizes, seed, path, ledger):
    """One ``tune_kernel`` call; traced, the cache load is its own span."""
    if not ledger.enabled:
        return tune_kernel(
            kernel,
            sizes,
            "exhaustive",
            seed=seed,
            cache=path,
            core_counts=CORE_COUNTS,
            validate=True,
        )
    with ledger.span("tune.cache_load"):
        cache = TuneCache(path)
    with ledger.span("tune.search"):
        return tune_kernel(
            kernel,
            sizes,
            "exhaustive",
            seed=seed,
            cache=cache,
            core_counts=CORE_COUNTS,
            validate=True,
        )


class TuneSearch:
    #: ``op_ms_tail`` is the mean of the operations beyond this
    #: percentile (``ledger.tail``).
    tail_percentile = 90
    clock = staticmethod(cpu_ms)

    def __init__(self, seed: int, smoke: bool, tmp):
        self.seed = seed
        self.pool = POOL_SMOKE if smoke else POOL
        self.tmp = tmp

    def setup(self, ledger) -> None:
        # One small in-memory search, so lazy set-up finishes first.
        tune_kernel("fill", (4, 4), "exhaustive", core_counts=CORE_COUNTS)

    def draws(self):
        return rounds(random.Random(self.seed), self.pool)

    def run(self, seconds: float, ledger) -> Measured:
        measured = Measured()
        rng = random.Random(self.seed)
        draws = self.draws()
        cold_of: dict[tuple, object] = {}
        cold_ms: list[tuple[tuple, float]] = []
        calls = []
        deadline = time.perf_counter() + seconds
        index = 0
        # Whole rounds only, so every pool entry runs equally often.
        while time.perf_counter() < deadline or index % len(self.pool) or not index:
            measured.window.calibration.tick()
            kernel, sizes = draw = next(draws)
            seed = rng.randrange(2**31)
            path = self.tmp / f"cycles-{index}.json"
            ledger.op_id = index
            start = cpu_ms()
            with ledger.span("op.tune_search"):
                cold = tune(kernel, sizes, seed, path, ledger)
                middle = cpu_ms()
                warm = tune(kernel, sizes, seed, path, ledger)
            end = cpu_ms()
            # A search outlasts the host's speed swings: scale it by the
            # samples just before and just after it.
            measured.window.calibration.sample()
            index += 1
            path.unlink()
            ok = (
                warm.best.cycles == cold.best.cycles
                and warm.cache_misses == 0
                and cold.best.cycles <= cold.default_cycles
                and cold_of.setdefault(draw, cold).best.cycles == cold.best.cycles
            )
            measured.op(
                end - start,
                ok,
                f"{label(kernel, sizes, 'tune')}: inconsistent search",
                window=2,
            )
            measured.cache(middle - start, hit=False, window=2)
            measured.cache(end - middle, hit=True, window=2)
            cold_ms.append((draw, middle - start))
            calls += [cold, warm]
        ledger.op_id = -1
        self.check(measured, cold_of, ledger)
        layers = measured.layers
        layers["tune.candidates"] = mean(c.candidates_evaluated for c in calls[::2])
        layers["tune.invalid"] = sum(len(c.faults) for c in calls[::2])
        lookups = sum(c.cache_hits + c.cache_misses for c in calls)
        layers["tune.cache_hit_ratio"] = sum(c.cache_hits for c in calls) / lookups
        if ledger.enabled:
            evaluate = self.replay(cold_of, ledger)
            layers["tune.evaluate_ms"] = mean(evaluate[d] for d, _ in cold_ms)
            layers["tune.search_overhead_ms"] = mean(
                ms - evaluate[d] for d, ms in cold_ms
            )
        return measured

    def check(self, measured: Measured, cold_of: dict, ledger) -> None:
        """Untimed: the tuner's baseline is the plain compiler default,
        and that default simulates to the numpy result."""
        for index, ((kernel, sizes), cold) in enumerate(cold_of.items()):
            module, spec = KERNEL_BUILDERS[kernel][0](*sizes)
            compiled = api.compile_linalg(module)
            name = label(kernel, sizes, "ours")
            record = check_kernel(
                measured,
                name,
                compiled,
                spec,
                self.seed * 1000 + index,
                ledger,
                CHECK_BUDGET_MS / len(cold_of),
            )
            if record is not None and record.cycles != cold.default_cycles:
                measured.fail(
                    f"{name}: tuner default {cold.default_cycles} cycles, "
                    f"compiler default {record.cycles}"
                )
            measured.speedups.append(cold.default_cycles / cold.best.cycles)

    def replay(self, cold_of: dict, ledger) -> dict[tuple, float]:
        """Per draw: ms of ``evaluate_config`` over every candidate the
        search scored; also times saving those entries to a fresh file."""
        evaluate = {}
        for index, ((kernel, sizes), cold) in enumerate(cold_of.items()):
            total = 0.0
            cache = TuneCache(self.tmp / f"replay-{index}.json")
            for outcome in cold.candidates:
                if not outcome.valid:
                    continue
                start = cpu_ms()
                with ledger.span("tune.evaluate"):
                    evaluate_config(kernel, sizes, outcome.config, seed=cold.seed)
                total += cpu_ms() - start
                key = TuneCache.key(kernel, sizes, outcome.config)
                cache.put(key, outcome.cycles)
            with ledger.span("tune.cache_save"):
                cache.save()
            evaluate[(kernel, sizes)] = total
        return evaluate

    def close(self) -> None:
        pass
