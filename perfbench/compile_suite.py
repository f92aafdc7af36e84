"""compile_suite: seeded compiles of the Table 1 suite and Fig. 11 sweep.

Each operation builds one (kernel, shape, pipeline) draw and compiles
it through to the assembled program.  The compiler (``ir``,
``transforms``, ``backend``, the assembler) does all the work; the
simulator, store and wire do none.  Draws cover all nine linalg
pipelines, so a change to one pass shows only on the pipelines that
run it.  The seed orders the draws (every pool entry is compiled once
per shuffled round) and draws the validation inputs.
"""

from __future__ import annotations

import random
import time

from repro.kernels import KERNEL_BUILDERS
from repro.transforms.pipelines import PIPELINE_NAMES

from .ledger import NullLedger, cpu_ms
from .stages import (
    CHECK_BUDGET_MS,
    TABLE1,
    TABLE1_SMOKE,
    Measured,
    check_kernel,
    compile_kernel,
    compile_staged,
    label,
    rounds,
)

#: Fig. 11: ``matmul 1xNxN`` on the paper's flow and the MLIR flow.
SWEEP = tuple(range(4, 33, 4))
SWEEP_PIPELINES = ("ours", "mlir")


def pool(smoke: bool) -> list[tuple[str, tuple[int, ...], str]]:
    """Every (kernel, sizes, pipeline) a draw can name."""
    if smoke:
        table, pipelines, sweep = TABLE1_SMOKE, ("ours", "table3-baseline"), (4,)
    else:
        table, pipelines, sweep = TABLE1, PIPELINE_NAMES, SWEEP
    entries = [
        (kernel, sizes, pipeline)
        for kernel, sizes in table
        for pipeline in pipelines
    ]
    entries += [
        ("matmul", (1, n, n), pipeline)
        for n in sweep
        for pipeline in SWEEP_PIPELINES
    ]
    return entries


class CompileSuite:
    #: ``op_ms_tail`` is the mean of the operations beyond this
    #: percentile (``ledger.tail``).
    tail_percentile = 95
    clock = staticmethod(cpu_ms)

    def __init__(self, seed: int, smoke: bool, tmp):
        self.seed = seed
        self.pool = pool(smoke)

    def draws(self):
        return rounds(random.Random(self.seed), self.pool)

    def setup(self, ledger) -> None:
        # One compile per pipeline, so lazy set-up (pass registry,
        # pattern indexes) finishes before timing.
        builder = KERNEL_BUILDERS["fill"][0]
        for pipeline in dict.fromkeys(p for _, _, p in self.pool):
            module, _ = builder(4, 4)
            compile_kernel(module, pipeline, ledger)

    def run(self, seconds: float, ledger) -> Measured:
        measured = Measured()
        asm_of: dict[tuple, str] = {}
        draws = self.draws()
        deadline = time.perf_counter() + seconds
        index = 0
        # Whole rounds only, so every pool entry runs equally often.
        while time.perf_counter() < deadline or index % len(self.pool) or not index:
            measured.window.calibration.tick()
            draw = next(draws)
            kernel, sizes, pipeline = draw
            builder = KERNEL_BUILDERS[kernel][0]
            ledger.op_id = index
            start = cpu_ms()
            with ledger.span("op.compile_suite"):
                with ledger.span("kernels.build"):
                    module, _ = builder(*sizes)
                compiled = compile_kernel(module, pipeline, ledger)
            ms = cpu_ms() - start
            index += 1
            repeat = draw in asm_of
            expected = asm_of.setdefault(draw, compiled.asm)
            measured.op(
                ms,
                compiled.asm == expected,
                f"{label(*draw)}: asm differs between compiles",
                hit=repeat,
            )
        ledger.op_id = -1
        self.check(measured, asm_of, ledger)
        return measured

    def check(self, measured: Measured, asm_of: dict, ledger) -> None:
        """Untimed: both compile paths agree byte for byte, and every
        distinct kernel simulates to the numpy result."""
        module_ops = []
        for index, draw in enumerate(self.pool):
            kernel, sizes, pipeline = draw
            builder = KERNEL_BUILDERS[kernel][0]
            module, spec = builder(*sizes)
            reference = compile_kernel(module, pipeline, NullLedger())
            counts: list[int] = []
            staged = compile_staged(
                builder(*sizes)[0], pipeline, NullLedger(), op_counts=counts
            )
            module_ops.append(sum(counts))
            if not reference.asm == staged.asm == asm_of[draw]:
                measured.fail(
                    f"{label(*draw)}: staged compile, api.compile_linalg "
                    "and the timed compile disagree"
                )
            check_kernel(
                measured,
                label(*draw),
                reference,
                spec,
                self.seed * 1000 + index,
                ledger,
                CHECK_BUDGET_MS / len(self.pool),
            )
        measured.layers["ir.module_ops"] = sum(module_ops) / len(module_ops)
        for kernel, sizes in dict.fromkeys((k, s) for k, s, _ in self.pool):
            base = measured.kernels.get(label(kernel, sizes, "table3-baseline"))
            ours = measured.kernels.get(label(kernel, sizes, "ours"))
            if base is not None and ours is not None:
                measured.speedups.append(base.cycles / ours.cycles)

    def close(self) -> None:
        pass
