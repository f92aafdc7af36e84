"""The benchmark's own tests, at smoke size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run  # noqa: E402
from perfbench.ledger import Ledger, quantile, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
#: Simulated metrics: a function of the seed alone.
SIMULATED = ("sim_cycles", "fpu_util", "code_insts", "tuned_speedup")


def smoke(workload: str, seed: int = 1, trace: int = 0, seconds: float = 0.5):
    result, envelope = run.run_workload(
        run.parse_args(
            [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--smoke",
            ]
        )
    )
    assert result["correct"], envelope["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, envelope


def values(result) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_repeats_simulated_metrics(workload):
    first, envelope = smoke(workload)
    second, _ = smoke(workload)
    assert list(first["metrics"]) == END_TO_END
    assert all(value > 0 for value in values(first).values())
    for name in SIMULATED:
        assert values(first)[name] == values(second)[name], name
    fingerprint = envelope["fingerprint"]
    assert {"seed", "python", "platform", "cpu", "nproc", "commit",
            "engine_version"} <= set(fingerprint)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, envelope = smoke(workload, trace=1, seconds=1.0)
    assert list(result["metrics"]) == PER_LAYER
    layers = values(result)
    assert layers["trace.coverage"] > 0
    if workload in ("compile_suite", "simulate_mix"):
        assert layers["trace.coverage"] >= 0.9
    trace = json.loads((ROOT / envelope["details"]["chrome_trace"]).read_text())
    events = trace["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
    assert any(event["name"] == f"op.{workload}" for event in events)
    if workload == "simulate_mix":
        from perfbench.simulate_mix import entries

        # Only the cold decodes of the traced set-up are timed.
        decodes = sum(1 for event in events if event["name"] == "snitch.decode")
        assert decodes == len(entries(True))


def test_different_seeds_draw_different_inputs(tmp_path):
    from perfbench.compile_suite import CompileSuite
    from perfbench.service_mix import arrivals, universe
    from perfbench.simulate_mix import SimulateMix
    from perfbench.tune_search import TuneSearch

    def first(workload_class, count, seed):
        workload = workload_class(seed, False, tmp_path)
        generator = (
            workload.schedule()
            if hasattr(workload, "schedule")
            else workload.draws()
        )
        return list(itertools.islice(generator, count))

    for workload_class in (CompileSuite, SimulateMix, TuneSearch):
        assert first(workload_class, 20, 1) == first(workload_class, 20, 1)
        assert first(workload_class, 20, 1) != first(workload_class, 20, 2)
    requests = universe(1, True)
    labels = [
        [r.label() for r in arrivals(requests, random.Random(seed))]
        for seed in (1, 2)
    ]
    assert labels[0] != labels[1] and sorted(labels[0]) == sorted(labels[1])


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile_suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_tail_is_the_mean_beyond_the_percentile():
    samples = list(range(1, 1001))
    value, percentile, count = tail(samples, 99)
    assert (percentile, count) == (99, 1000)
    assert value == sum(range(991, 1001)) / 10
    value, percentile, _ = tail(samples, 95)
    assert (value, percentile) == (sum(range(951, 1001)) / 50, 95)
    # Too few samples beyond the percentile: the ten slowest.
    value, percentile, _ = tail(samples[:100], 99)
    assert (value, percentile) == (sum(range(91, 101)) / 10, 90)
    # A rare slow cost near the percentile's rank moves the mean in
    # proportion, not in a jump to the slow cost.
    fast = [1.0] * 980
    assert tail(fast + [50.0] * 9 + [2.0] * 11, 99)[0] == (9 * 50 + 2) / 10
    assert tail(fast + [50.0] * 11 + [2.0] * 9, 99)[0] == 50.0
    assert quantile([1.0, 3.0], 0.5) == 2.0


def test_coverage_counts_direct_children_of_operations():
    ledger = Ledger()
    ledger.spans = [
        ["op.x", 0, 100, -1, 0, 0, 100],
        ["a", 0, 60, 0, 0, 0, 60],
        ["b", 10, 30, 1, 0, 10, 30],  # grandchild: inside "a" already
        ["c", 70, 95, 0, 0, 70, 95],
        ["d", 200, 300, -1, -1, 200, 300],  # outside any operation
    ]
    assert ledger.coverage() == pytest.approx(0.85)
    assert ledger.totals()["a"] == (60 / 1e6, 1)


def test_staged_compile_follows_the_program_verify_policy(monkeypatch):
    from repro.compiler import Compiler
    from repro.kernels import KERNEL_BUILDERS, lowlevel_matmul_t_f32

    from perfbench import stages

    def verifies(module, pipeline, entry=None):
        ledger = Ledger()
        stages.compile_staged(module, pipeline, ledger, entry=entry)
        totals = ledger.totals()
        passes = sum(
            calls
            for name, (_, calls) in totals.items()
            if name.startswith("transforms.") and name != "transforms.build_pipeline"
        )
        return totals.get("ir.verify", (0, 0))[1], passes

    builder = KERNEL_BUILDERS["relu"][0]
    calls, passes = verifies(builder(4, 8)[0], "ours")
    assert calls == passes + 1  # the input, then after every pass
    module, spec = lowlevel_matmul_t_f32(4, 8)
    calls, passes = verifies(module, "lowlevel", entry=spec.name)
    assert calls == passes  # api.compile_lowlevel skips the input
    monkeypatch.setattr(
        stages, "compiler_for", lambda p, _: Compiler(p, verify_each=False)
    )
    calls, passes = verifies(builder(4, 8)[0], "ours")
    assert (calls, passes > 0) == (1, True)


def test_pass_ms_counts_passes_without_a_row():
    from perfbench.stages import Measured

    ledger = Ledger()
    ledger.spans = [
        ["transforms.build_pipeline", 0, 1_000_000, -1, 0, 0, 0],
        ["transforms.dce", 0, 2_000_000, -1, 0, 0, 0],
        ["transforms.some-new-pass", 0, 3_000_000, -1, 0, 0, 0],
    ]
    measured = Measured()
    measured.ops.append((1.0, True))
    rows = run.per_layer(ledger, measured, 1000.0)
    assert rows["transforms.pass_ms"][0] == pytest.approx(5.0)


def test_service_passes_have_the_same_make_up(tmp_path):
    from collections import Counter

    from perfbench.service_mix import ServiceMix, universe

    workload = ServiceMix(1, True, tmp_path)
    workload.requests = universe(1, True)
    plans = [workload.plan(random.Random(seed)) for seed in (1, 2, 3)]
    assert all(plan[0] == "new" for plan in plans)
    assert plans[0] != plans[1]
    assert len({tuple(sorted(Counter(plan).items())) for plan in plans}) == 1
    assert Counter(plans[0])["new"] == len(workload.requests)
