"""Calls into each layer, and the checks every workload shares.

Untraced, a compile is one ``api.compile_linalg`` call and a
simulation one ``api.run_kernel`` call, so the end-to-end metrics
time the public API.  Traced, the same work runs stage by stage
through each layer's public functions, each stage under its own span;
the checks prove both paths give the same assembly and cycles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro import api
from repro.backend.asm_emitter import emit_module
from repro.compiler import CompiledKernel, Compiler
from repro.dialects import riscv_func
from repro.ir.rewriter import REWRITE_STATS
from repro.ir.verifier import verify
from repro.snitch.engine import decode
from repro.snitch.machine import SnitchMachine
from repro.snitch.memory import TCDM
from repro.transforms.pipelines import build_pipeline

from .ledger import CAL_WINDOW, Calibration, cpu_ms, median

#: The Table 1 kernels at the shapes the repository's profiles use.
TABLE1 = (
    ("fill", (8, 16)),
    ("sum", (8, 16)),
    ("relu", (8, 16)),
    ("conv3x3", (8, 8)),
    ("max_pool3x3", (8, 8)),
    ("sum_pool3x3", (8, 8)),
    ("matmul", (4, 8, 8)),
    ("matmul_t", (4, 8, 8)),
    ("matvec", (8, 16)),
)

#: Host ms the checks spend re-running kernels for their timings,
#: split evenly over a workload's distinct kernels.
CHECK_BUDGET_MS = 600.0
#: Cap on timing repeats of one kernel.
MAX_REPEATS = 50

#: Smoke-size subset of :data:`TABLE1` (tests only).
TABLE1_SMOKE = (("relu", (4, 8)), ("matmul", (2, 4, 4)))


def label(kernel: str, sizes, pipeline: str) -> str:
    return f"{kernel} {'x'.join(map(str, sizes))} [{pipeline}]"


def rounds(rng, items):
    """Endless shuffled rounds over ``items``: every item equally often,
    so a run's mix, and the medians over it, do not drift with the seed."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


@dataclass
class KernelRecord:
    """Simulated facts of one distinct compiled kernel."""

    cycles: int
    fpu_arith: int
    static_insts: int
    int_insts: int
    fpu_insts: int
    ssr_elems: int
    loads_stores: int
    fpu_stall_cycles: int

    @classmethod
    def of(cls, compiled: CompiledKernel, trace) -> "KernelRecord":
        return cls(
            cycles=trace.cycles,
            fpu_arith=trace.fpu_arith_cycles,
            static_insts=len(compiled.program.instructions),
            int_insts=trace.int_instructions,
            fpu_insts=trace.fpu_instructions,
            ssr_elems=trace.ssr_reads + trace.ssr_writes,
            loads_stores=trace.loads + trace.stores,
            fpu_stall_cycles=trace.fpu_stall_cycles,
        )


@dataclass
class HostTimes:
    """Calibrated simulation timings of one phase."""

    calibration: Calibration = field(default_factory=Calibration)
    #: (simulated instructions, host ms) of fast-engine runs.
    sim_runs: list[tuple[int, float]] = field(default_factory=list)
    #: (simulated instructions, host ms) of profiled runs.
    profile_runs: list[tuple[int, float]] = field(default_factory=list)


@dataclass
class Measured:
    """What one timed window of a workload, and its checks, produced."""

    #: (host ms, ok) of every timed operation.  Host ms here and below
    #: are calibrated (:meth:`Calibration.scale`).
    ops: list[tuple[float, bool]] = field(default_factory=list)
    #: Host ms of operations served by a cache / computed afresh
    #: (on workloads without a cache: repeats / first requests).
    hit_ms: list[float] = field(default_factory=list)
    miss_ms: list[float] = field(default_factory=list)
    #: Timings inside the window (operations), and in the checks.
    window: HostTimes = field(default_factory=HostTimes)
    checks: HostTimes = field(default_factory=HostTimes)
    #: (profiled ms, fast ms) of the same kernel.
    profile_pairs: list[tuple[float, float]] = field(default_factory=list)
    #: Distinct kernels of the workload, by label.
    kernels: dict[str, KernelRecord] = field(default_factory=dict)
    #: One cycle profile per distinct profiled kernel, by label.
    profiles: dict[str, object] = field(default_factory=dict)
    #: Cycle ratios (reference schedule ÷ better schedule) per kernel.
    speedups: list[float] = field(default_factory=list)
    #: Why operations or checks failed.
    errors: list[str] = field(default_factory=list)
    failed_checks: int = 0
    #: Workload-specific per-layer rows.
    layers: dict[str, float] = field(default_factory=dict)
    #: Workload-specific facts for the result envelope.
    details: dict[str, object] = field(default_factory=dict)

    def op(
        self,
        raw_ms: float,
        ok: bool = True,
        error: str = "",
        hit=None,
        window: int = CAL_WINDOW,
    ):
        """Record one operation of ``raw_ms`` CPU ms; ``hit`` (when not
        None) also files it under hits or misses.  ``window``: the
        calibration samples it is scaled by (:meth:`Calibration.scale`)."""
        ms = self.window.calibration.scale(raw_ms, window)
        self.ops.append((ms, ok))
        if not ok:
            self.errors.append(error)
        if hit is not None:
            (self.hit_ms if hit else self.miss_ms).append(ms)
        return ms

    def cache(self, raw_ms: float, hit: bool, window: int = CAL_WINDOW) -> None:
        """File a part of an operation under hits or misses."""
        ms = self.window.calibration.scale(raw_ms, window)
        (self.hit_ms if hit else self.miss_ms).append(ms)

    def fail(self, message: str) -> None:
        """Record a failed check."""
        self.errors.append(message)
        self.failed_checks += 1


def compile_kernel(module, pipeline: str, ledger, entry=None):
    """Compile like ``api.compile_linalg`` (``entry`` given: like
    ``api.compile_lowlevel``) through to the assembled program."""
    if not ledger.enabled:
        if entry is None:
            compiled = api.compile_linalg(module, pipeline=pipeline)
        else:
            compiled = api.compile_lowlevel(module, entry)
        compiled.program
        return compiled
    return compile_staged(module, pipeline, ledger, entry=entry)


@functools.cache
def compiler_for(pipeline: str, lowlevel: bool) -> Compiler:
    """The compiler ``api.compile_linalg`` (``lowlevel``:
    ``api.compile_lowlevel``) builds; the staged compile takes its
    verify policy from it."""
    if lowlevel:
        return Compiler("lowlevel", verify_input=False)
    return Compiler(pipeline)


def compile_staged(
    module,
    pipeline: str,
    ledger,
    entry: str | None = None,
    op_counts: list[int] | None = None,
) -> CompiledKernel:
    """``Compiler(pipeline).compile(module)`` stage by stage.

    The input is verified when the program's compiler verifies it, and
    the module after each pass when the program's pass manager does.
    ``op_counts``, when given, receives the module's op count after
    every pass (the IR each per-pass verify walks).
    """
    compiler = compiler_for(pipeline, entry is not None)
    rewrites_before = REWRITE_STATS.snapshot()
    with ledger.span("transforms.build_pipeline"):
        manager = build_pipeline(
            compiler.pipeline, verify_each=compiler.verify_each
        )
    if compiler.verify_input:
        with ledger.span("ir.verify"):
            verify(module)
    for pass_ in manager.passes:
        with ledger.span("transforms." + pass_.name):
            pass_.run(module)
        if manager.verify_each:
            with ledger.span("ir.verify"):
                verify(module)
        if op_counts is not None:
            op_counts.append(sum(1 for _ in module.walk()))
    if entry is None:
        entry = next(
            op.sym_name
            for op in module.block.ops
            if isinstance(op, riscv_func.FuncOp)
        )
    with ledger.span("backend.emit"):
        asm = emit_module(module)
    compiled = CompiledKernel(module=module, asm=asm, entry=entry)
    with ledger.span("snitch.assemble"):
        compiled.program
    for name, amount in REWRITE_STATS.delta(rewrites_before).items():
        ledger.count("ir." + name, amount)
    return compiled


def simulate(compiled, arguments, ledger, profile: bool = False):
    """``api.run_kernel``; traced fast runs go stage by stage."""
    if profile:
        with ledger.span("obs.profile"):
            return api.run_kernel(compiled, arguments, profile=True)
    if not ledger.enabled:
        return api.run_kernel(compiled, arguments)
    with ledger.span("snitch.marshal"):
        memory = TCDM()
        int_args: dict[str, int] = {}
        float_args: dict[str, float] = {}
        placements = []
        for argument in arguments:
            if isinstance(argument, np.ndarray):
                base = memory.allocate(argument.nbytes)
                memory.write_array(base, argument)
                int_args[f"a{len(int_args)}"] = base
                placements.append((base, argument))
            else:
                float_args[f"fa{len(float_args)}"] = float(argument)
                placements.append(None)
        machine = SnitchMachine(compiled.program, memory)
    with ledger.span("snitch.run"):
        trace = machine.run(
            compiled.entry, int_args=int_args, float_args=float_args
        )
    with ledger.span("snitch.readback"):
        arrays = [
            None
            if placement is None
            else memory.read_array(
                placement[0], placement[1].shape, placement[1].dtype
            )
            for placement in placements
        ]
    return api.KernelRun(trace=trace, arrays=arrays)


def outputs_match(arrays, expected) -> bool:
    """Simulated arrays equal the numpy oracle (f32 at f32 tolerance)."""
    for got, want in zip(arrays, expected):
        if want is None:
            continue
        if got.dtype == np.float32:
            close = np.allclose(got, want, rtol=1e-4, atol=1e-6)
        else:
            close = np.allclose(got, want, atol=1e-8)
        if not close:
            return False
    return True


def sim_insts(trace) -> int:
    return trace.int_instructions + trace.fpu_instructions


def timed_runs(compiled, arguments, ledger, profile, budget_ms, calibration):
    """(first run, median host ms): repeat until ``budget_ms`` of
    runs (at most :data:`MAX_REPEATS`), so one noisy sample cannot set
    a kernel's time.  ``calibration`` samples the host's speed before
    and after every run, and each run is scaled by that pair."""
    times = []
    first = None
    calibration.sample()
    while not times or (sum(times) < budget_ms and len(times) < MAX_REPEATS):
        start = cpu_ms()
        run = simulate(compiled, arguments, ledger, profile)
        raw_ms = cpu_ms() - start
        calibration.sample()
        times.append(calibration.scale(raw_ms, window=2))
        first = first or run
    return first, median(times)


def check_kernel(
    measured: Measured,
    label: str,
    compiled: CompiledKernel,
    spec,
    seed: int,
    ledger,
    budget_ms: float,
    profile: bool = True,
    decoded: bool = False,
) -> KernelRecord | None:
    """Run one distinct kernel untimed against the numpy oracle, fast
    and (``profile``) profiled, and record it on ``measured``.

    ``budget_ms`` is the host time each kind of run is repeated for;
    workloads split a fixed budget over their distinct kernels.
    ``decoded`` says the workload already decoded this program, so the
    (memoized) decode here is not timed.
    """
    arguments = spec.random_arguments(seed=seed)
    with ledger.span("kernels.oracle"):
        expected = spec.reference(*arguments)
    if not decoded:
        with ledger.span("snitch.decode"):
            decode(compiled.program)
    speed = measured.checks.calibration
    run, fast_ms = timed_runs(
        compiled, arguments, ledger, False, budget_ms, speed
    )
    measured.checks.sim_runs.append((sim_insts(run.trace), fast_ms))
    if not outputs_match(run.arrays, expected):
        measured.fail(f"{label}: simulated outputs differ from numpy")
        return None
    record = KernelRecord.of(compiled, run.trace)
    measured.kernels[label] = record
    if profile:
        profiled, profile_ms = timed_runs(
            compiled, arguments, ledger, True, budget_ms, speed
        )
        measured.checks.profile_runs.append((sim_insts(run.trace), profile_ms))
        measured.profile_pairs.append((profile_ms, fast_ms))
        measured.profiles[label] = profiled.profile
        if (
            profiled.trace.cycles != run.trace.cycles
            or sum(profiled.profile.buckets.values()) != run.trace.cycles
            or not outputs_match(profiled.arrays, expected)
        ):
            measured.fail(f"{label}: profiled run disagrees with the fast run")
    return record
