"""simulate_mix: seeded simulations of three instruction mixes.

Set-up compiles the NSNet2 and AlexNet layer mixes and the Table 1
kernels on ``ours`` (FREP + SSR), the Table 1 kernels on
``table3-baseline`` (scalar, branchy) and the packed-SIMD
``lowlevel_matmul_t_f32`` (handwritten, Section 4.2), and decodes each
program.  Each operation is then one ``api.run_kernel`` on fresh
seeded inputs, so the ``snitch`` engine does nearly all the work and
the compiler runs only in set-up.  A fixed share of operations are
``profile=True`` runs of the Table 1 kernels on ``ours``, which cover
``obs.profiler``.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

from repro.kernels import KERNEL_BUILDERS, lowlevel_matmul_t_f32, networks
from repro.snitch.engine import decode

from .ledger import cpu_ms, median
from .stages import (
    CHECK_BUDGET_MS,
    TABLE1,
    TABLE1_SMOKE,
    Measured,
    check_kernel,
    compile_kernel,
    label,
    outputs_match,
    rounds,
    sim_insts,
    simulate,
)

# The operation mix is chosen, not taken from a record of real use (the
# repository has none): each run reports the share of time each mix and
# the profiled runs took (``perfbench/README.md``).
#: Fast runs per round of each instruction mix (40 / 40 / 20 %).
MIX_SHARES = {"frep_ssr": 2, "scalar": 2, "simd": 1}
#: One operation in this many is a profiled run (5 %).
PROFILE_EVERY = 20
#: Packed-SIMD ``matmul_t`` shapes (K, N): K even, N a multiple of 4.
SIMD_SHAPES = ((20, 40), (16, 24), (8, 40))


def entries(smoke: bool) -> list[tuple]:
    """(label, mix, build thunk, pipeline, lowlevel?, profiled?)."""
    table = TABLE1_SMOKE if smoke else TABLE1
    layers = networks.nsnet2_layers(8) if smoke else (
        networks.nsnet2_layers() + networks.alexnet_layers()
    )
    found: dict[str, tuple] = {}
    for layer in layers:
        name = label(layer.builder.__name__, layer.sizes, "ours")
        found.setdefault(
            name, (name, "frep_ssr", layer.build, "ours", False, False)
        )
    for kernel, sizes in table:
        builder = KERNEL_BUILDERS[kernel][0]
        for pipeline, mix in (("ours", "frep_ssr"), ("table3-baseline", "scalar")):
            name = label(kernel, sizes, pipeline)
            found[name] = (
                name,
                mix,
                lambda b=builder, s=sizes: b(*s),
                pipeline,
                False,
                pipeline == "ours",
            )
    for sizes in ((4, 8),) if smoke else SIMD_SHAPES:
        name = label("lowlevel_matmul_t_f32", sizes, "lowlevel")
        found[name] = (
            name,
            "simd",
            lambda s=sizes: lowlevel_matmul_t_f32(*s),
            "lowlevel",
            True,
            False,
        )
    return list(found.values())


class SimulateMix:
    #: ``op_ms_tail`` is the mean of the operations beyond this
    #: percentile (``ledger.tail``).
    tail_percentile = 95
    clock = staticmethod(cpu_ms)

    def __init__(self, seed: int, smoke: bool, tmp):
        self.seed = seed
        self.entries = entries(smoke)
        self.kernels: list[tuple] = []

    def setup(self, ledger) -> None:
        self.kernels = []
        for name, mix, build, pipeline, is_lowlevel, profiled in self.entries:
            with ledger.span("kernels.build"):
                module, spec = build()
            compiled = compile_kernel(
                module, pipeline, ledger, entry=spec.name if is_lowlevel else None
            )
            with ledger.span("snitch.decode"):
                decode(compiled.program)
            self.kernels.append((name, mix, compiled, spec, profiled))

    def schedule(self):
        """Endless seeded operations: (entry index, profiled?, input seed).

        Mixes, kernels within a mix and profiled kernels each come in
        shuffled rounds, so every run holds them in the same proportions.
        """
        rng = random.Random(self.seed)
        by_mix = defaultdict(list)
        for index, entry in enumerate(self.entries):
            by_mix[entry[1]].append(index)
        kernels = {mix: rounds(rng, indices) for mix, indices in by_mix.items()}
        mixes = rounds(
            rng, [mix for mix, share in MIX_SHARES.items() for _ in range(share)]
        )
        profiled = rounds(
            rng, [i for i, entry in enumerate(self.entries) if entry[5]]
        )
        while True:
            block = [
                (next(kernels[next(mixes)]), False)
                for _ in range(PROFILE_EVERY - 1)
            ]
            block.append((next(profiled), True))
            rng.shuffle(block)
            for index, profile in block:
                yield index, profile, rng.randrange(2**31)

    def run(self, seconds: float, ledger) -> Measured:
        measured = Measured()
        schedule = self.schedule()
        seen = set()
        cycles_of: dict[str, int] = {}
        fast_ms = defaultdict(list)
        profile_ms = defaultdict(list)
        mix_ms = defaultdict(float)
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            measured.window.calibration.tick()
            kernel, profile, input_seed = next(schedule)
            name, mix, compiled, spec, _ = self.kernels[kernel]
            arguments = spec.random_arguments(seed=input_seed)
            ledger.op_id = index
            start = cpu_ms()
            with ledger.span("op.simulate_mix"):
                run = simulate(compiled, arguments, ledger, profile)
            ms = cpu_ms() - start
            index += 1
            with ledger.span("kernels.oracle"):
                expected = spec.reference(*arguments)
            cycles = cycles_of.setdefault(name, run.trace.cycles)
            ok = outputs_match(run.arrays, expected) and cycles == run.trace.cycles
            key = (name, profile)
            ms = measured.op(
                ms, ok, f"{name}: simulated run failed its check", hit=key in seen
            )
            seen.add(key)
            mix_ms["profiled" if profile else mix] += ms
            if profile:
                measured.window.profile_runs.append((sim_insts(run.trace), ms))
                measured.profiles.setdefault(name, run.profile)
                profile_ms[name].append(ms)
            else:
                measured.window.sim_runs.append((sim_insts(run.trace), ms))
                fast_ms[name].append(ms)
        ledger.op_id = -1
        measured.details["time_share"] = {
            mix: ms / sum(mix_ms.values()) for mix, ms in sorted(mix_ms.items())
        }
        for name in profile_ms:
            if fast_ms[name]:
                measured.profile_pairs.append(
                    (median(profile_ms[name]), median(fast_ms[name]))
                )
        self.check(measured, cycles_of, ledger)
        return measured

    def check(self, measured: Measured, cycles_of: dict, ledger) -> None:
        """Untimed: every set-up kernel once against numpy; its cycles
        match the timed runs'."""
        for index, (name, _, compiled, spec, _) in enumerate(self.kernels):
            record = check_kernel(
                measured,
                name,
                compiled,
                spec,
                self.seed * 1000 + index,
                ledger,
                CHECK_BUDGET_MS / len(self.kernels),
                profile=False,
                decoded=True,
            )
            timed = cycles_of.get(name)
            if record is not None and timed not in (None, record.cycles):
                measured.fail(f"{name}: cycles differ between runs")
        for name, mix, _, _, _ in self.kernels:
            if mix == "scalar":
                ours = measured.kernels.get(name.replace("table3-baseline", "ours"))
                base = measured.kernels.get(name)
                if ours is not None and base is not None:
                    measured.speedups.append(base.cycles / ours.cycles)

    def close(self) -> None:
        pass

