"""The schedule space: what a tuner is allowed to choose.

A *schedule* for a kernel is one point in the cross product of

* an interchange permutation of the iteration space (legal = keeps the
  parallel-then-reduction partition, see
  :func:`repro.transforms.interchange.legal_interchange_permutations`);
* an unroll-and-jam factor (legal = divides the bound of the chosen
  interleave dim, see
  :func:`repro.transforms.unroll_and_jam.legal_unroll_factors`);
* a cluster core count (legal = any, for kernels with a known
  row-partitioning; surplus cores simply idle).

:class:`ScheduleConfig` names one such point and renders it as a
textual pipeline spec, so every tuned schedule round-trips through the
ordinary ``Compiler``/CLI surface.  :class:`ScheduleSpace` enumerates
the legal configs of a concrete kernel by probing its
``memref_stream.generic`` after conversion.  :class:`TunedSchedule`
is the persisted artifact a search produces: JSON-serialisable and
directly appliable to ``api.compile_linalg`` or a network layer list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence
import json

from ..dialects import memref_stream
from ..durable import atomic_write, sweep_stale_tmp
from ..kernels.builders import KERNEL_BUILDERS
from ..snitch.engine import ENGINE_VERSION
from ..transforms.interchange import (
    format_permutation,
    legal_interchange_permutations,
)
from ..transforms.pipelines import build_pipeline, scheduled_pipeline_spec
from ..transforms.unroll_and_jam import (
    legal_unroll_factors,
    select_unroll_factor,
)


class ScheduleError(ValueError):
    """An unknown kernel, illegal config, or malformed artifact."""


@dataclass(frozen=True)
class ScheduleConfig:
    """One point in a kernel's schedule space.

    ``None`` always means "the compiler's own default": no interchange
    pass, the automatic unroll heuristic.  ``num_cores == 1`` is a
    plain single-core run; more cores row-partition the kernel across
    a cluster and score the slowest core.
    """

    permutation: tuple[int, ...] | None = None
    unroll_factor: int | None = None
    num_cores: int = 1

    @property
    def is_default(self) -> bool:
        """Whether this is exactly the untuned compiler behaviour."""
        return (
            self.permutation is None
            and self.unroll_factor is None
            and self.num_cores == 1
        )

    def pipeline_spec(self) -> str:
        """The schedule as a round-trippable textual pipeline spec."""
        return scheduled_pipeline_spec(
            permutation=(
                format_permutation(self.permutation)
                if self.permutation is not None
                else None
            ),
            unroll_factor=self.unroll_factor,
        )

    def key(self) -> str:
        """Canonical short form, used in cache keys and reports."""
        perm = (
            format_permutation(self.permutation)
            if self.permutation is not None
            else "id"
        )
        factor = (
            "auto" if self.unroll_factor is None else self.unroll_factor
        )
        return f"perm={perm}|factor={factor}|cores={self.num_cores}"

    def to_json(self) -> dict:
        return {
            "permutation": (
                list(self.permutation)
                if self.permutation is not None
                else None
            ),
            "unroll_factor": self.unroll_factor,
            "num_cores": self.num_cores,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScheduleConfig":
        permutation = data.get("permutation")
        return cls(
            permutation=(
                tuple(int(d) for d in permutation)
                if permutation is not None
                else None
            ),
            unroll_factor=data.get("unroll_factor"),
            num_cores=int(data.get("num_cores", 1)),
        )


def resolve_kernel(kernel: str, sizes: Sequence[int]):
    """(builder, sizes) for a canonical kernel name, arity-checked."""
    try:
        builder, arity = KERNEL_BUILDERS[kernel]
    except KeyError:
        raise ScheduleError(
            f"unknown kernel {kernel!r} (known: "
            f"{', '.join(sorted(KERNEL_BUILDERS))})"
        ) from None
    if len(sizes) != arity:
        raise ScheduleError(
            f"kernel {kernel!r} takes {arity} sizes, got {len(sizes)}"
        )
    return builder, tuple(int(s) for s in sizes)


@dataclass(frozen=True)
class ClusterPlan:
    """How to row-partition one kernel across cluster cores."""

    #: (rows, cols) the partitioner splits.
    shape: tuple[int, int]
    #: Indices of array arguments offset per row chunk.
    row_parallel_args: tuple[int, ...]
    #: ``(chunk_rows, cols) -> (module, spec)`` for one core's share.
    chunk_builder: Callable


def cluster_plan(kernel: str, sizes: Sequence[int]) -> ClusterPlan | None:
    """The row-partitioning of a paper kernel, or None if unknown.

    Every Table 1 kernel is parallel over its output rows; the plans
    record which arguments are split (the rest broadcast) and how to
    build one core's chunk-sized kernel.  Halo'd inputs (conv/pool
    images with their two extra boundary rows) work because the offset
    is taken in *that operand's* row pitch.
    """
    from ..kernels import builders

    sizes = tuple(sizes)
    if kernel == "fill":
        n, m = sizes
        return ClusterPlan((n, m), (1,), builders.fill)
    if kernel == "sum":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1, 2), builders.sum_kernel)
    if kernel == "relu":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1), builders.relu)
    if kernel == "conv3x3":
        n, m = sizes
        return ClusterPlan(
            (n, m), (0, 2), lambda r, c: builders.conv3x3(r, c)
        )
    if kernel == "max_pool3x3":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1), builders.max_pool3x3)
    if kernel == "sum_pool3x3":
        n, m = sizes
        return ClusterPlan((n, m), (0, 1), builders.sum_pool3x3)
    if kernel == "matmul":
        m_rows, k, n = sizes
        return ClusterPlan(
            (m_rows, n), (0, 2), lambda r, c: builders.matmul(r, k, n)
        )
    if kernel == "matmul_t":
        m_rows, k, n = sizes
        return ClusterPlan(
            (m_rows, n),
            (0, 2),
            lambda r, c: builders.matmul_transposed(r, k, n),
        )
    if kernel == "matvec":
        rows, cols = sizes
        return ClusterPlan((rows, cols), (1, 2), builders.matvec)
    return None


#: The probe pipeline: just enough lowering to see the scheduled
#: generic (explicit bounds, fill fused) without fixing any schedule.
_PROBE_SPEC = "convert-linalg-to-memref-stream,fuse-fill"


@dataclass(frozen=True)
class ScheduleSpace:
    """The legal schedule configs of one concrete kernel."""

    kernel: str
    builder: Callable
    sizes: tuple[int, ...]
    #: Iteration-space shape of the kernel's main generic.
    bounds: tuple[int, ...]
    iterator_types: tuple[str, ...]
    #: Per dim: whether every output varies along it (the unroll-and-
    #: jam candidate dims are the parallel ones among these).
    output_varying: tuple[bool, ...]
    #: Legal non-identity interchange permutations.
    permutations: tuple[tuple[int, ...], ...]
    core_counts: tuple[int, ...] = (1,)

    @classmethod
    def for_kernel(
        cls,
        kernel: str,
        sizes: Sequence[int],
        core_counts: Sequence[int] = (1,),
    ) -> "ScheduleSpace":
        """Probe a kernel and enumerate its legal schedule axes."""
        builder, sizes = resolve_kernel(kernel, sizes)
        core_counts = tuple(sorted(set(int(c) for c in core_counts)))
        if not core_counts or core_counts[0] < 1:
            raise ScheduleError("core counts must be positive")
        if core_counts != (1,) and cluster_plan(kernel, sizes) is None:
            raise ScheduleError(
                f"kernel {kernel!r} has no known row-partitioning; "
                "cluster core count is not tunable for it"
            )
        module, _ = builder(*sizes)
        build_pipeline(_PROBE_SPEC, verify_each=False).run(module)
        generic = None
        for op in module.walk():
            if isinstance(op, memref_stream.GenericOp):
                if generic is None or len(op.bounds) > len(generic.bounds):
                    generic = op
        if generic is None:
            raise ScheduleError(
                f"kernel {kernel!r} lowers to no memref_stream.generic"
            )
        kinds = tuple(generic.iterator_types)
        bounds = tuple(generic.bounds)
        out_maps = generic.indexing_maps[len(generic.inputs) :]
        varying = tuple(
            all(
                any(d != 0 for d in amap.unit_deltas()[dim])
                for amap in out_maps
            )
            for dim in range(len(bounds))
        )
        identity = tuple(range(len(bounds)))
        permutations = tuple(
            perm
            for perm in legal_interchange_permutations(list(kinds))
            if perm != identity
        )
        return cls(
            kernel=kernel,
            builder=builder,
            sizes=sizes,
            bounds=bounds,
            iterator_types=kinds,
            output_varying=varying,
            permutations=permutations,
            core_counts=core_counts,
        )

    # -- axis enumeration -----------------------------------------------------

    def unroll_dim_for(
        self, permutation: tuple[int, ...] | None
    ) -> int | None:
        """The dim unroll-and-jam would pick after an interchange.

        Mirrors ``select_unroll_dim``: the innermost parallel dim (in
        the permuted order) along which every output varies.  Returns
        the *old* dim index (whose bound is the factor's legality
        base), or None for pure-parallel kernels.
        """
        if "reduction" not in self.iterator_types:
            return None  # the pass only interleaves reductions
        order = permutation or tuple(range(len(self.bounds)))
        for old in reversed(order):
            if (
                self.iterator_types[old] == "parallel"
                and self.output_varying[old]
            ):
                return old
        return None

    def unroll_factors_for(
        self, permutation: tuple[int, ...] | None
    ) -> tuple[int | None, ...]:
        """Legal factor choices given an interchange: ``None`` (the
        automatic heuristic) plus every other exact divisor <= the
        register-pressure cap."""
        dim = self.unroll_dim_for(permutation)
        if dim is None:
            return (None,)
        bound = self.bounds[dim]
        heuristic = select_unroll_factor(bound)
        return (None,) + tuple(
            f for f in legal_unroll_factors(bound) if f != heuristic
        )

    def configs(self) -> Iterator[ScheduleConfig]:
        """Every legal config, the compiler default first."""
        for permutation in (None,) + self.permutations:
            for factor in self.unroll_factors_for(permutation):
                for cores in self.core_counts:
                    yield ScheduleConfig(
                        permutation=permutation,
                        unroll_factor=factor,
                        num_cores=cores,
                    )

    def size(self) -> int:
        """Number of configs :meth:`configs` enumerates."""
        return sum(1 for _ in self.configs())


@dataclass(frozen=True)
class TunedSchedule:
    """A winning schedule, ready to persist and apply.

    ``pipeline_spec`` carries the *compile-time* schedule (interchange
    + unroll): pass it straight to ``api.compile_linalg(module,
    pipeline=...)`` (or the CLI's ``--pipeline``) to recompile the
    kernel with it.  A cluster core count is an *execution* choice a
    pipeline spec cannot express — it lives in ``config.num_cores``,
    and ``cycles`` for a multi-core winner is the cluster latency of
    running that spec row-partitioned across those cores (re-measure
    with ``evaluate_config``, or run via
    ``snitch.run_row_partitioned``); compiling the spec alone
    reproduces only the single-core schedule.
    """

    kernel: str
    sizes: tuple[int, ...]
    config: ScheduleConfig
    pipeline_spec: str
    cycles: int
    default_cycles: int
    engine_version: int = ENGINE_VERSION

    @property
    def speedup(self) -> float:
        """Default-schedule cycles over tuned cycles (>= 1.0)."""
        return self.default_cycles / self.cycles if self.cycles else 1.0

    def builder_key(self) -> tuple[str, tuple[int, ...]]:
        """(builder ``__name__``, sizes) — the key network layer
        compilation matches layers against."""
        builder, sizes = resolve_kernel(self.kernel, self.sizes)
        return builder.__name__, sizes

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "sizes": list(self.sizes),
            "config": self.config.to_json(),
            "pipeline_spec": self.pipeline_spec,
            "cycles": self.cycles,
            "default_cycles": self.default_cycles,
            "engine_version": self.engine_version,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TunedSchedule":
        try:
            return cls(
                kernel=data["kernel"],
                sizes=tuple(int(s) for s in data["sizes"]),
                config=ScheduleConfig.from_json(data["config"]),
                pipeline_spec=data["pipeline_spec"],
                cycles=int(data["cycles"]),
                default_cycles=int(data["default_cycles"]),
                engine_version=int(
                    data.get("engine_version", ENGINE_VERSION)
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ScheduleError(
                f"malformed TunedSchedule record: {error}"
            ) from None


def save_schedules(path, schedules: Sequence[TunedSchedule]) -> None:
    """Write tuned schedules as a JSON artifact (a durable file, see
    :mod:`repro.durable`)."""
    payload = {
        "schema": 1,
        "schedules": [schedule.to_json() for schedule in schedules],
    }
    path = Path(path)
    atomic_write(path, json.dumps(payload, indent=2) + "\n")
    sweep_stale_tmp(path.parent, path.name + ".")


def load_schedules(path) -> list[TunedSchedule]:
    """Read a tuned-schedule artifact written by :func:`save_schedules`."""
    try:
        payload = json.loads(Path(path).read_text())
        records = payload["schedules"]
    except (OSError, ValueError, KeyError) as error:
        raise ScheduleError(
            f"cannot load schedules from {path}: {error}"
        ) from None
    return [TunedSchedule.from_json(record) for record in records]


def schedule_table(
    schedules: Sequence[TunedSchedule],
) -> dict[tuple[str, tuple[int, ...]], str]:
    """(builder name, sizes) -> tuned pipeline spec.

    The mapping ``kernels.networks.compile_layers`` consumes to run a
    whole network with per-layer tuned schedules.  Multi-core
    schedules are rejected: network layers run single-core, so a
    cluster-tuned schedule's cycles are unreachable through a pipeline
    spec and silently applying its spec would claim a speedup the run
    cannot reproduce — re-tune with ``core_counts=(1,)`` for network
    use.
    """
    for schedule in schedules:
        if schedule.config.num_cores != 1:
            raise ScheduleError(
                f"{schedule.kernel} {'x'.join(map(str, schedule.sizes))}"
                f": schedule was tuned on {schedule.config.num_cores} "
                "cores; a pipeline spec cannot express cluster "
                "partitioning, so it cannot be applied to a "
                "single-core network layer"
            )
    return {
        schedule.builder_key(): schedule.pipeline_spec
        for schedule in schedules
    }


__all__ = [
    "ClusterPlan",
    "ScheduleConfig",
    "ScheduleError",
    "ScheduleSpace",
    "TunedSchedule",
    "cluster_plan",
    "load_schedules",
    "resolve_kernel",
    "save_schedules",
    "schedule_table",
]
