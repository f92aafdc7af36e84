"""Command-line schedule-space autotuner.

Search the schedule space of a Table 1 kernel — interchange
permutation, unroll-and-jam factor, cluster core count — scoring every
candidate by cycles on the predecoded simulator::

    python -m repro.tools.kernel_tuner matmul 4 4 4
    python -m repro.tools.kernel_tuner matmul 1 16 64 --strategy greedy
    python -m repro.tools.kernel_tuner conv3x3 8 8 --cores 1,2,4 \\
        --strategy random --budget 12 --seed 3
    python -m repro.tools.kernel_tuner matmul 1 16 64 --emit-spec

``--emit-spec`` prints only the winning pipeline spec, ready to feed
back into ``kernel_compiler --pipeline`` (or ``api.compile_linalg``);
``--save`` persists the winning :class:`~repro.tune.TunedSchedule` as
a JSON artifact that network runs can apply.  Measurements go through
the persistent cycle cache (``--cache``), so re-tuning is incremental.

Evaluation is fault-tolerant (see ``docs/ROBUSTNESS.md``): with
``--workers N`` candidates run on a hardened pool that retries
transient faults, respawns crashed workers, and SIGKILLs candidates
past ``--deadline``; Ctrl-C or SIGTERM checkpoints the cache, saves
the best-so-far schedule, and exits with a distinct code.  The
``REPRO_FAULTS`` environment variable installs a deterministic
fault-injection plan (``ACTION@INDEX[=VALUE][:sticky]``; actions:
crash, delay, raise, interrupt) for chaos drills.
"""

from __future__ import annotations

import argparse
import signal
import sys

from ..kernels.builders import KERNEL_BUILDERS
from ..tune import (
    FaultInjector,
    ScheduleError,
    ScheduleSpace,
    SearchInterrupted,
    TuneCache,
    TunedSchedule,
    load_schedules,
    save_schedules,
    tune_kernel,
)
from ..tune.search import STRATEGIES

_EXIT_CODES = """\
exit codes:
  0    success
  2    usage error (bad arguments)
  3    tuning failed (the default schedule has no valid baseline)
  130  interrupted by Ctrl-C (cache checkpointed, partial results saved)
  143  terminated by SIGTERM (cache checkpointed, partial results saved)
"""


def build_argument_parser() -> argparse.ArgumentParser:
    """The tool's CLI schema."""
    parser = argparse.ArgumentParser(
        prog="repro-kernel-tuner",
        description=__doc__,
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "kernel",
        choices=sorted(KERNEL_BUILDERS),
        help="kernel name (Table 1 suite)",
    )
    parser.add_argument(
        "sizes", type=int, nargs="*", help="shape sizes (kernel-specific)"
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="exhaustive",
        help="search strategy (default: exhaustive)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="max candidates to score (default: unbounded)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for input data and random sampling — recorded with "
        "the results, so a tuning run is reproducible (default: 0)",
    )
    parser.add_argument(
        "--cores",
        default="1",
        metavar="LIST",
        help="comma-separated cluster core counts to explore "
        "(default: 1)",
    )
    parser.add_argument(
        "--cache",
        default="results/tune_cache.json",
        metavar="PATH",
        help="persistent cycle-cache file "
        "(default: results/tune_cache.json)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the persistent cache",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed artifact store directory: an identical "
        "prior run returns its stored TunedSchedule without "
        "re-evaluating anything; fresh runs persist their winner "
        "(see docs/SERVICE.md)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluation worker processes; >1 runs batches on the "
        "hardened pool (crash respawn, retry, watchdog), worth it for "
        "large kernels/budgets (default: 1 = serial)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-candidate wall-clock deadline; past-due workers are "
        "killed and the candidate recorded as a timeout fault "
        "(default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra dispatch attempts for transient faults — worker "
        "crashes and timeouts (default: 2)",
    )
    parser.add_argument(
        "--emit-spec",
        action="store_true",
        help="print only the winning pipeline spec",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="append the winning TunedSchedule to a JSON artifact",
    )
    parser.add_argument(
        "--list-space",
        action="store_true",
        help="print the legal schedule space and exit (no evaluation)",
    )
    return parser


def _parse_cores(
    parser: argparse.ArgumentParser, text: str
) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(
            f"bad --cores {text!r}: expected comma-separated integers"
        )


def _save_artifact(path: str, best: TunedSchedule) -> None:
    """Append ``best`` to the artifact, replacing any same-shape entry."""
    try:
        existing = load_schedules(path)
    except ScheduleError:
        existing = []
    keep = [
        schedule
        for schedule in existing
        if (schedule.kernel, schedule.sizes) != (best.kernel, best.sizes)
    ]
    save_schedules(path, keep + [best])


def _print_result(result, args) -> None:
    if args.emit_spec:
        print(result.best.pipeline_spec)
        if result.best.config.num_cores != 1:
            print(
                f"note: best cycles ({result.best.cycles}) were "
                f"measured on {result.best.config.num_cores} cores; "
                "the emitted spec reproduces the single-core "
                "schedule only",
                file=sys.stderr,
            )
        return
    print(result.report())
    if result.from_store:
        print(f"schedule served from artifact store ({args.store})")
    print(
        f"cache: {result.cache_hits} hits, "
        f"{result.cache_misses} misses"
        + ("" if args.no_cache else f" ({args.cache})")
    )
    if result.faults:
        kinds: dict[str, int] = {}
        for fault in result.faults:
            kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
        summary = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        print(f"faults: {summary}")


def main(argv=None) -> int:
    """Entry point; returns a process exit code (see ``--help``)."""
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    core_counts = _parse_cores(parser, args.cores)
    if args.list_space:
        try:
            space = ScheduleSpace.for_kernel(
                args.kernel, args.sizes, core_counts
            )
        except ScheduleError as error:
            print(f"tuning failed: {error}", file=sys.stderr)
            return 3
        print(
            f"{space.kernel}: bounds {list(space.bounds)}, "
            f"iterators {list(space.iterator_types)}, "
            f"{space.size()} legal configs"
        )
        for config in space.configs():
            print(f"  {config.key()}")
        return 0

    # SIGTERM (a supervisor's polite kill) checkpoints exactly like
    # Ctrl-C; the flag keeps the two distinguishable in the exit code.
    got_sigterm = False

    def _on_sigterm(signum, frame):
        nonlocal got_sigterm
        got_sigterm = True
        raise KeyboardInterrupt

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread (embedded use)
        previous_sigterm = None

    cache = TuneCache(None if args.no_cache else args.cache)
    store = None
    if args.store is not None:
        from ..service.store import ArtifactStore

        store = ArtifactStore(args.store)
    try:
        result = tune_kernel(
            args.kernel,
            args.sizes,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            cache=cache,
            workers=args.workers,
            core_counts=core_counts,
            deadline=args.deadline,
            retries=args.retries,
            injector=FaultInjector.from_env(),
            store=store,
        )
    except SearchInterrupted as interrupt:
        # The cache was checkpointed by the search; persist the
        # best-so-far schedule too, then report what survived.
        print(f"interrupted: {interrupt}", file=sys.stderr)
        if interrupt.partial is not None:
            _print_result(interrupt.partial, args)
            if args.save:
                _save_artifact(args.save, interrupt.partial.best)
                if not args.emit_spec:
                    print(
                        f"saved best-so-far schedule to {args.save}",
                        file=sys.stderr,
                    )
        return 143 if got_sigterm else 130
    except ScheduleError as error:
        print(f"tuning failed: {error}", file=sys.stderr)
        return 3
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)

    _print_result(result, args)
    if args.save:
        _save_artifact(args.save, result.best)
        if not args.emit_spec:
            print(f"saved tuned schedule to {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
