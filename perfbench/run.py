"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload compile_suite --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ledger (see ``perfbench/README.md``).  The last line of
standard output is the result JSON; the line before it is the
fingerprinted envelope, also written to ``.perfbench/``.  Exits 1 when
any correctness check failed and 2 when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("compile_suite", "simulate_mix", "service_mix", "tune_search")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Every pass of the nine linalg pipelines and the ``lowlevel`` tail:
#: the passes with a row of their own.  ``transforms.pass_ms`` counts
#: every pass, listed or not.
PASSES = (
    "convert-linalg-to-memref-stream",
    "fuse-fill",
    "scalar-replacement",
    "unroll-and-jam",
    "lower-to-snitch",
    "verify-streams",
    "fuse-fmadd",
    "lower-snitch-stream",
    "canonicalize",
    "dce",
    "allocate-registers",
    "lower-riscv-scf",
    "eliminate-identity-moves",
    "lower-generic-to-loops",
    "convert-to-riscv",
    "lower-generic-to-pointer-loops",
)

#: Layers in request order (the per-layer ledger's row order).
LAYERS = (
    "kernels", "ir", "transforms", "backend", "snitch", "obs", "service",
    "tune", "trace",
)

#: Spans reported as mean ms per call.
CALL_SPANS = (
    "kernels.build",
    "kernels.oracle",
    "transforms.build_pipeline",
    "backend.emit",
    "snitch.assemble",
    "snitch.decode",
    "snitch.marshal",
    "snitch.run",
    "snitch.readback",
    "obs.profile",
    "service.store_get",
    "service.store_put",
    "tune.cache_load",
    "tune.cache_save",
)

#: Per-layer rows a workload computes itself (0 where it has none).
WORKLOAD_ROWS = (
    "ir.module_ops",
    "service.client_ms",
    "service.server_ms",
    "service.wire_ms",
    "service.job_ms",
    "service.pool_ms",
    "service.hit_ratio",
    "service.dedup_ratio",
    "service.computed",
    "service.faults",
    "tune.candidates",
    "tune.invalid",
    "tune.cache_hit_ratio",
    "tune.evaluate_ms",
    "tune.search_overhead_ms",
)


def workload_class(name: str):
    if name == "compile_suite":
        from perfbench.compile_suite import CompileSuite

        return CompileSuite
    if name == "simulate_mix":
        from perfbench.simulate_mix import SimulateMix

        return SimulateMix
    if name == "service_mix":
        from perfbench.service_mix import ServiceMix

        return ServiceMix
    from perfbench.tune_search import TuneSearch

    return TuneSearch


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> dict:
    from repro.snitch.engine import ENGINE_VERSION

    return {
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "engine_version": ENGINE_VERSION,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def ops_per_s(measured) -> float:
    return len(measured.ops) / (sum(ms for ms, _ in measured.ops) / 1e3)


def minst_per_s(runs) -> float:
    """Simulated instructions per host second, in millions."""
    return sum(i for i, _ in runs) / sum(ms for _, ms in runs) / 1e3


def end_to_end(measured, setup_times, rss_mb, tail_percentile):
    """The end-to-end metrics and their details.  Host times arrive
    calibrated (see ``ledger.Calibration``)."""
    from perfbench.ledger import geomean, median, tail

    op_ms = [ms for ms, _ in measured.ops]
    # Simulation timings come from the operations where there are any,
    # else from the checks.
    sims = measured.window if measured.window.sim_runs else measured.checks
    profiled = (
        measured.window if measured.window.profile_runs else measured.checks
    )
    failed = sum(1 for _, ok in measured.ops if not ok)
    tail_ms, percentile, samples = tail(op_ms, tail_percentile)
    kernels = measured.kernels.values()
    cycles = sum(k.cycles for k in kernels)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (ops_per_s(measured), "1/s"),
        "op_ms_p50": (median(op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ok_rate": (1.0 - failed / len(op_ms), "ratio"),
        "miss_ms_p50": (median(measured.miss_ms), "ms"),
        "hit_ms_p50": (median(measured.hit_ms), "ms"),
        "sim_minst_per_s": (minst_per_s(sims.sim_runs), "Minst/s"),
        "profile_minst_per_s": (minst_per_s(profiled.profile_runs), "Minst/s"),
        "sim_cycles": (cycles, "cycles"),
        "fpu_util": (sum(k.fpu_arith for k in kernels) / cycles, "ratio"),
        "code_insts": (sum(k.static_insts for k in kernels), "count"),
        "tuned_speedup": (geomean(measured.speedups), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    hit_ms, miss_ms = sum(measured.hit_ms), sum(measured.miss_ms)
    details = {
        "op_ms_tail": {"percentile": percentile, "samples": samples},
        "miss_samples": len(measured.miss_ms),
        "hit_samples": len(measured.hit_ms),
        # What the workload's chosen traffic amounted to in this run.
        "hit_ratio": len(measured.hit_ms)
        / (len(measured.hit_ms) + len(measured.miss_ms)),
        "miss_time_share": miss_ms / (hit_ms + miss_ms),
        "profile_samples": len(profiled.profile_runs),
        "distinct_kernels": len(measured.kernels),
        "setup_s_samples": list(setup_times),
        # Host speed ÷ reference speed, whole window and checks.
        "calibration": {
            "window": 1 / measured.window.calibration.factor(),
            "window_samples": len(measured.window.calibration.samples),
            "checks": 1 / measured.checks.calibration.factor(),
        },
        **measured.details,
    }
    return metrics, details


def pass_totals(totals) -> dict[str, float]:
    """pass name -> total ms of its ``transforms.<pass>`` spans, for
    every pass that ran, with a row in :data:`PASSES` or not."""
    prefix = "transforms."
    return {
        name[len(prefix):]: ms
        for name, (ms, _) in totals.items()
        if name.startswith(prefix) and name != prefix + "build_pipeline"
    }


def per_layer(ledger, measured, untraced_ops_per_s):
    """The per-layer ledger of one traced window (raw CPU ms;
    ``trace.overhead`` compares the calibrated rates of the two halves)."""
    from repro.obs.profiler import BUCKETS

    totals = ledger.totals()

    def total(name):
        return totals.get(name, (0.0, 0))

    def per_call(name):
        ms, calls = total(name)
        return ms / calls if calls else 0.0

    compiles = total("transforms.build_pipeline")[1]

    def per_compile(value):
        return value / compiles if compiles else 0.0

    pass_ms = sum(pass_totals(totals).values())
    verify_ms, verify_calls = total("ir.verify")
    compile_ms = (
        pass_ms
        + verify_ms
        + total("transforms.build_pipeline")[0]
        + total("backend.emit")[0]
        + total("snitch.assemble")[0]
    )
    kernels = list(measured.kernels.values())
    profiles = list(measured.profiles.values())
    profiled_cycles = sum(p.cycles for p in profiles)
    rows = {
        "ir.verify_ms": (per_compile(verify_ms), "ms"),
        "ir.verify_calls": (per_compile(verify_calls), "count"),
        "ir.verify_share": (verify_ms / compile_ms if compile_ms else 0.0, "ratio"),
        "ir.ops_visited": (per_compile(ledger.counts["ir.ops_visited"]), "count"),
        "ir.rewrites_applied": (
            per_compile(ledger.counts["ir.rewrites_applied"]),
            "count",
        ),
        "transforms.pass_ms": (per_compile(pass_ms), "ms"),
    }
    for name in PASSES:
        rows[f"transforms.{name}_ms"] = (per_call("transforms." + name), "ms")
    for name in CALL_SPANS:
        rows[f"{name}_ms"] = (per_call(name), "ms")
    for name in (
        "int_insts",
        "fpu_insts",
        "ssr_elems",
        "loads_stores",
        "fpu_stall_cycles",
    ):
        rows["snitch." + name] = (sum(getattr(k, name) for k in kernels), "count")
    pairs = measured.profile_pairs
    rows["obs.profile_overhead"] = (
        sum(p for p, _ in pairs) / sum(f for _, f in pairs) if pairs else 0.0,
        "ratio",
    )
    for bucket in BUCKETS:
        rows[f"obs.{bucket}_cycles"] = (
            sum(p.buckets.get(bucket, 0) for p in profiles),
            "cycles",
        )
    rows["obs.frep_body_share"] = (
        sum(sum(p.regions.get("frep_body", {}).values()) for p in profiles)
        / profiled_cycles
        if profiled_cycles
        else 0.0,
        "ratio",
    )
    for name in WORKLOAD_ROWS:
        unit = "ms" if name.endswith("_ms") else (
            "ratio" if name.endswith("ratio") else "count"
        )
        rows[name] = (measured.layers.get(name, 0.0), unit)
    rows["trace.coverage"] = (
        measured.layers.get("trace.coverage", ledger.coverage()),
        "ratio",
    )
    rows["trace.overhead"] = (
        ops_per_s(measured) / untraced_ops_per_s - 1.0,
        "ratio",
    )
    order = list(rows)
    return dict(
        sorted(
            rows.items(),
            key=lambda row: (
                LAYERS.index(row[0].split(".", 1)[0]),
                order.index(row[0]),
            ),
        )
    )


def run_workload(args) -> tuple[dict, dict]:
    """(result, envelope) of one run."""
    from perfbench.ledger import Calibration, Ledger, NullLedger

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    workload = workload_class(args.workload)(args.seed, args.smoke, tmp)
    untraced = NullLedger()
    try:
        setup_times = []
        setup_speed = Calibration()
        setup_speed.sample()
        for _ in range(SETUP_REPEATS):
            start = workload.clock()
            workload.setup(untraced)
            raw_ms = workload.clock() - start
            setup_speed.sample()
            setup_times.append(setup_speed.scale(raw_ms, window=2) / 1e3)
        if args.trace:
            # Same seed, same length: the untraced half is the
            # baseline of trace.overhead.
            plain = workload.run(args.seconds / 2, untraced)
            ledger = Ledger()
            workload.setup(ledger)
            measured = workload.run(args.seconds / 2, ledger)
            errors = plain.errors + measured.errors
            ops = plain.ops + measured.ops
            failed_checks = plain.failed_checks + measured.failed_checks
        else:
            measured = workload.run(args.seconds, untraced)
            errors = measured.errors
            ops = measured.ops
            failed_checks = measured.failed_checks
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    meta = fingerprint(args.seed)
    meta.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    if args.trace:
        metrics = per_layer(ledger, measured, ops_per_s(plain))
        details = {
            "spans": len(ledger.spans),
            # Passes timed into transforms.pass_ms without a row.
            "unlisted_passes": sorted(
                set(pass_totals(ledger.totals())) - set(PASSES)
            ),
        }
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        ledger.write_chrome_trace(trace_path, meta)
        details["chrome_trace"] = str(trace_path.relative_to(ROOT))
    else:
        metrics, details = end_to_end(
            measured, setup_times, peak_rss_mb(), workload.tail_percentile
        )
    details["clock"] = getattr(workload.clock, "name", "thread CPU")
    failed = min(len(ops), sum(1 for _, ok in ops if not ok) + failed_checks)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    envelope = {
        "fingerprint": meta,
        "details": details,
        "errors": errors[:20],
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(envelope, indent=1))
    return result, envelope


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny kernel pools (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.chdir(ROOT)
    # One CPU for the whole run (the server child inherits it): a
    # process that migrates between vCPUs of unequal speed would time
    # part of its work at each speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, envelope = run_workload(args)
    print(json.dumps(envelope))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
