"""Clocks, the in-memory span ledger, order statistics and the Chrome
trace export.

Spans are recorded only by the benchmark, around its calls into each
layer's public functions; nothing inside ``src/`` is instrumented.

Host time is CPU time, not wall time: on a shared host a neighbour can
steal the vCPU for tens of milliseconds, which inflates wall time by a
different amount on every run, while the kernel leaves stolen time out
of a thread's CPU time.  CPU time still swings with what the
neighbours do to shared caches and cores, so end-to-end host metrics
are calibrated as well (:class:`Calibration`).
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from collections import defaultdict

#: Name prefix of the span that wraps one whole timed operation.
OP_PREFIX = "op."


def cpu_ms() -> float:
    """CPU ms of the calling thread."""
    return time.thread_time() * 1e3


#: Calibrated times read as if :func:`calibration_work` took this many
#: CPU ms (the 2-vCPU Xeon VM this was written on takes 0.85-1.5 ms,
#: depending on its neighbours).
CAL_REFERENCE_MS = 1.0
#: Wall seconds between calibration samples inside a timed window: the
#: host's speed switches within a second.
CAL_EVERY_S = 0.02
#: A host time is scaled by the median of this many latest samples.
CAL_WINDOW = 3


class _Node:
    __slots__ = ("index", "name", "uses")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self.uses: list = []

    def weight(self) -> int:
        return self.index * 3 + len(self.uses)

    def key(self) -> tuple:
        return (self.name, -self.index)


def calibration_work(items: int = 700) -> int:
    """Fixed Python work of the program's kind: small objects,
    attribute access, dict and list traffic, sorting, string joins."""
    table: dict[str, list] = {}
    nodes = []
    for index in range(items):
        node = _Node(index, f"n{index % 97}")
        bucket = table.setdefault(node.name, [])
        if bucket:
            bucket[-1].uses.append(node)
        bucket.append(node)
        nodes.append(node)
    total = sum(node.weight() for node in nodes)
    ordered = sorted(nodes, key=_Node.key)
    return total + len(",".join(node.name for node in ordered[:200]))


class Calibration:
    """The host's speed, sampled through a run.

    The same benchmark-owned work (:func:`calibration_work`) is timed in
    CPU time every :data:`CAL_EVERY_S` of the run, and each host time is
    scaled by the speed measured next to it (:meth:`scale`).  That
    cancels the host's speed swings: on a 2-vCPU Xeon VM, compiling one
    kernel took 5.8-9.2 ms CPU across processes, while its ratio to the
    calibration stayed within 2.36-2.53.  The program never runs this
    code, and the garbage collector is off while it runs, so a change
    to the program (its heap included) cannot move the calibration.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        # With the collector off, the work's acyclic garbage is freed by
        # reference counting alone, and no collection it would trigger
        # scans the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = cpu_ms()
            calibration_work()
            self.samples.append(cpu_ms() - start)
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        """Sample if the last sample is :data:`CAL_EVERY_S` old; the
        first tick takes :data:`CAL_WINDOW` samples."""
        now = time.perf_counter()
        if now >= self._next:
            for _ in range(1 if self.samples else CAL_WINDOW):
                self.sample()
            self._next = now + CAL_EVERY_S

    def scale(self, ms: float, window: int = CAL_WINDOW) -> float:
        """``ms`` of host time expressed at reference speed, by the
        median of the ``window`` latest samples."""
        return ms * CAL_REFERENCE_MS / median(self.samples[-window:])

    def factor(self) -> float:
        """The whole run's scale (reported, not applied)."""
        return CAL_REFERENCE_MS / median(self.samples)


class ContainerCpu:
    """CPU ms of every process in this container's cgroup, so the work a
    child process does for a request counts.  Falls back to wall ms
    when no cgroup CPU counter is readable (:attr:`name` says which)."""

    #: (path, scale to ms): cgroup v2, then v1.
    SOURCES = (
        ("/sys/fs/cgroup/cpu.stat", 1e-3),
        ("/sys/fs/cgroup/cpuacct/cpuacct.usage", 1e-6),
    )

    def __init__(self):
        self.name = "wall"
        self._fd = None
        for path, scale in self.SOURCES:
            try:
                fd = os.open(path, os.O_RDONLY)
            except OSError:
                continue
            self._fd, self._scale, self.name = fd, scale, path
            try:
                self()
            except (OSError, ValueError, IndexError):
                self.close()
                self.name = "wall"
                continue
            break

    def __call__(self) -> float:
        if self._fd is None:
            return time.perf_counter() * 1e3
        text = os.pread(self._fd, 256, 0).split()
        # cpu.stat starts "usage_usec <n>"; cpuacct.usage is "<n>".
        return int(text[1] if text[0] == b"usage_usec" else text[0]) * self._scale

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class _Span:
    __slots__ = ("ledger", "name", "index")

    def __init__(self, ledger: "Ledger", name: str):
        self.ledger = ledger
        self.name = name

    def __enter__(self):
        ledger = self.ledger
        self.index = len(ledger.spans)
        parent = ledger._stack[-1] if ledger._stack else -1
        ledger.spans.append(
            [
                self.name,
                time.thread_time_ns(),
                0,
                parent,
                ledger.op_id,
                time.perf_counter_ns(),
                0,
            ]
        )
        ledger._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        ledger = self.ledger
        span = ledger.spans[self.index]
        span[2] = time.thread_time_ns()
        span[6] = time.perf_counter_ns()
        ledger._stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullLedger:
    """Records nothing: the untraced stand-in for :class:`Ledger`."""

    enabled = False
    op_id = -1

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, amount: int) -> None:
        pass


class Ledger:
    """Spans as ``[name, cpu start, cpu end, parent index, op id, wall
    start, wall end]`` (ns).  The metrics use CPU time; the Chrome trace
    is laid out in wall time, so waits (disk, socket) show there."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Id of the operation being timed (-1 outside operations).
        self.op_id = -1
        #: Counters recorded at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def totals(self) -> dict[str, tuple[float, int]]:
        """span name -> (total CPU ms, calls)."""
        sums: dict[str, list] = defaultdict(lambda: [0, 0])
        for span in self.spans:
            entry = sums[span[0]]
            entry[0] += span[2] - span[1]
            entry[1] += 1
        return {
            name: (total / 1e6, calls)
            for name, (total, calls) in sums.items()
        }

    def coverage(self) -> float:
        """CPU time of the direct child spans of operation spans over
        the operations' CPU time (0 when no operation ran)."""
        op_ns = 0
        child_ns = 0
        is_op = [span[0].startswith(OP_PREFIX) for span in self.spans]
        for name, start, end, parent, *_ in self.spans:
            if name.startswith(OP_PREFIX):
                op_ns += end - start
            elif parent >= 0 and is_op[parent]:
                child_ns += end - start
        return child_ns / op_ns if op_ns else 0.0

    def chrome_trace(self, metadata: dict) -> dict:
        """Chrome trace-event JSON (loads in Perfetto / about:tracing)."""
        origin = min((span[5] for span in self.spans), default=0)
        pid = os.getpid()
        events = []
        for name, cpu_start, cpu_end, parent, op, start, end in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        "op": op,
                        "cpu_us": (cpu_end - cpu_start) / 1e3,
                        "parent": self.spans[parent][0]
                        if parent >= 0
                        else None,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def write_chrome_trace(self, path, metadata: dict) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(metadata), handle)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def tail(values, percentile: float) -> tuple[float, float, int]:
    """(value, percentile, samples): the mean of the samples beyond
    ``percentile``, and at least of the ten slowest (the percentile
    reported is then the one those ten lie beyond).

    A mean over the tail, not the percentile itself: a percentile sits
    on whichever sample has its rank, and where a rare cost (a full
    garbage collection) hits about as many operations as the rank
    leaves beyond it, it jumps between that cost and the next one.
    The mean moves in proportion to how often and how long the slow
    operations are.
    """
    ordered = sorted(values)
    count = len(ordered)
    if not ordered:
        raise ValueError("tail of no samples")
    beyond = min(count, max(10, round(count * (1.0 - percentile / 100.0))))
    slowest = ordered[count - beyond:]
    return sum(slowest) / beyond, 100.0 * (1.0 - beyond / count), count


def mean(values) -> float:
    """Arithmetic mean; 0 for no samples (a layer the run never hit)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
