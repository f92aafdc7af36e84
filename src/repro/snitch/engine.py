"""Predecoded, closure-threaded execution engine.

The fast path behind :meth:`SnitchMachine.run`.  :func:`decode` runs
once per :class:`~repro.snitch.assembler.Program` and translates each
:class:`~repro.snitch.isa.Inst` into a specialized closure with
everything resolvable at decode time already resolved:

* register names become integer indices into flat list-based register
  files (one unified name space, so the dict-by-name semantics of the
  reference interpreter are preserved exactly);
* the mnemonic dispatch is burned into the closure — no ``if/elif``
  chain runs at execute time;
* branch and jump targets are pre-resolved to pc indices;
* memory accesses use prebound :class:`struct.Struct` codecs on the
  TCDM byte array;
* ``frep.o`` becomes a true macro-op: the body is legality-checked and
  decoded once, then replayed in a tight loop with the sequencer
  timing model applied incrementally;
* SSR address generation is incremental (add the innermost stride,
  carry on wrap) instead of re-summing over all dimensions per element.

Semantics are bit-exact with the reference interpreter
(:meth:`SnitchMachine.run_reference`): cycle counts, every
:class:`~repro.snitch.trace.ExecutionTrace` counter, recorded
timelines, and final memory contents are identical — the differential
test suite asserts this on randomized programs and on the paper's
kernels across all pipelines.

Decoded programs are cached on the ``Program`` object, so all cores of
a cluster (and repeated runs of one kernel) share one decode.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Mapping
from time import monotonic

import numpy as np

from ..backend.registers import FLOAT_REGISTERS, INT_REGISTERS
from ..obs.metrics import METRICS
from ..obs.tracing import span
from .assembler import AssemblerError, Program
from .isa import (
    FP_ARITH_FLOPS,
    FP_LOADS,
    FP_STORES,
    FPU_INSTRUCTIONS,
    Inst,
    KIND_BRANCH,
    KIND_FPU,
    KIND_FREP,
    KIND_INT,
    KIND_JUMP,
    KIND_RET,
    SSR_COUNT,
    SSR_MAX_DIMS,
    WORD_BOUND_BASE,
    WORD_READ_POINTER_BASE,
    WORD_REPEAT,
    WORD_STRIDE_BASE,
    WORD_WRITE_POINTER_BASE,
    classify,
    scfg_decode,
)
from .machine import (
    BRANCH_TAKEN_PENALTY,
    FP_LATENCY,
    FP_LOAD_LATENCY,
    INT_LOAD_LATENCY,
    MUL_LATENCY,
    STREAM_REGISTERS,
    DeadlineExceeded,
    SimulationError,
    SnitchMachine,
    _SCALAR_OPS,
    bits_to_f32,
    f32_to_bits,
    pack_f32x2,
    unpack_f32x2,
)
from .memory import U32, U64, F64, out_of_bounds

#: Unified register name space: the reference interpreter keys its
#: integer and FP register files by *name*, accepting any register name
#: in either file, so the flat engine mirrors that with one index space
#: covering both ABI name sets (integer domain ``xs``/``xready`` and FP
#: domain ``fs``/``fready`` are separate arrays over the same indices).
_REG_NAMES = INT_REGISTERS + FLOAT_REGISTERS
_REG_INDEX = {name: i for i, name in enumerate(_REG_NAMES)}
#: Data-mover index by unified register index (ft0..ft2 only).
_STREAM_MOVER = {_REG_INDEX[n]: k for k, n in enumerate(STREAM_REGISTERS)}

_TAKEN = 1 + BRANCH_TAKEN_PENALTY

# Prebound codecs (compiled once in memory.py).
_LOAD_U64 = U64.unpack_from
_STORE_U64 = U64.pack_into
_LOAD_U32 = U32.unpack_from
_STORE_U32 = U32.pack_into
_PACK_D = F64.pack
_UNPACK_D = F64.unpack
_PACK_Q = U64.pack
_UNPACK_Q = U64.unpack

_compute_packed = SnitchMachine._compute_packed

class _DecodeStats(Mapping):
    """Read-through view over the decode counters in the obs registry.

    Keeps the historical ``DECODE_STATS["programs_decoded"]`` reading
    idiom while the actual counts live in
    :data:`repro.obs.metrics.METRICS` as atomic counters
    (``engine_programs_decoded`` / ``engine_instructions_decoded``) —
    the PR-10 fix for unlocked ``+=`` on a module dict under the
    service's thread-per-connection loop.
    """

    def __init__(self):
        self._counters = {
            "programs_decoded": METRICS.counter(
                "engine_programs_decoded"
            ),
            "instructions_decoded": METRICS.counter(
                "engine_instructions_decoded"
            ),
        }

    def __getitem__(self, key: str) -> int:
        return self._counters[key].value

    def __iter__(self):
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def increment(self, key: str, amount: int = 1) -> None:
        self._counters[key].inc(amount)


#: Decode telemetry: bumped once per (cache-missing) decode; the
#: perf-smoke suite budgets these to prove decoding happens once per
#: program, not once per core or per run.
DECODE_STATS = _DecodeStats()

#: Version of the engine's timing semantics.  The schedule-space
#: autotuner persists measured cycle counts keyed on this value — bump
#: it whenever a change alters *cycle counts* (not just throughput) so
#: stale caches invalidate themselves instead of mis-ranking schedules.
ENGINE_VERSION = 1

#: Guards decode publication and the decode registry: concurrent
#: :func:`decode` calls on one ``Program`` (e.g. a threaded compile
#: server's workers) must observe either no decode or a complete one,
#: never a partially initialized ``DecodedProgram``.
_DECODE_LOCK = threading.Lock()

#: Registry of live decoded programs, ``id(program) -> weakref``.
#: Decodes are memoized *on* the ``Program`` object (``_decoded``), so
#: they die with it; this registry exists to let a long-lived process
#: introspect and clear that otherwise-invisible cache.  All access
#: happens under :data:`_DECODE_LOCK`.
_DECODED: dict[int, weakref.ref] = {}


def _prune_decoded() -> None:
    """Drop dead weakrefs.  Lock held."""
    dead = [key for key, ref in _DECODED.items() if ref() is None]
    for key in dead:
        del _DECODED[key]


def decode_cache_size() -> int:
    """Number of live decoded programs currently registered."""
    with _DECODE_LOCK:
        _prune_decoded()
        return len(_DECODED)


def clear_decode_cache() -> None:
    """Drop every memoized decode (programs re-decode on next use)."""
    with _DECODE_LOCK:
        for ref in _DECODED.values():
            program = ref()
            if program is not None:
                try:
                    del program._decoded
                except AttributeError:
                    pass
        _DECODED.clear()


def _u(name: str) -> int:
    index = _REG_INDEX.get(name)
    if index is None:
        raise AssemblerError(f"unknown register {name!r}")
    return index


def _src_meta(name: str) -> tuple[int, bool, int]:
    """(unified index, is-FP-named, data-mover index or -1)."""
    u = _u(name)
    return u, name.startswith("f"), _STREAM_MOVER.get(u, -1)


class _FastMover:
    """Incremental-address twin of :class:`machine.DataMover`.

    Maintains the invariant ``addr == base + sum(index[d] * strides[d]
    for d in range(dims))`` across advances, so each element costs one
    add instead of a sum over all dimensions.
    """

    __slots__ = (
        "bounds", "strides", "repeat", "direction", "dims", "base",
        "index", "repeat_count", "exhausted", "addr",
    )

    def __init__(self):
        self.bounds = [0] * SSR_MAX_DIMS
        self.strides = [0] * SSR_MAX_DIMS
        self.repeat = 0
        self.direction = None
        self.dims = 0
        self.base = 0
        self.index = [0] * SSR_MAX_DIMS
        self.repeat_count = 0
        self.exhausted = False
        self.addr = 0

    def arm(self, direction: str, dims: int, base: int) -> None:
        self.direction = direction
        self.dims = dims
        self.base = base
        self.index = [0] * SSR_MAX_DIMS
        self.repeat_count = 0
        self.exhausted = False
        self.addr = base

    def resync(self) -> None:
        """Recompute ``addr`` after a stride config write mid-pattern."""
        self.addr = self.base + sum(
            self.index[d] * self.strides[d] for d in range(self.dims)
        )

    def wrap(self) -> None:
        """Advance with carry (innermost dimension has hit its bound)."""
        index = self.index
        bounds = self.bounds
        strides = self.strides
        addr = self.addr
        for d in range(self.dims):
            i = index[d]
            if i < bounds[d]:
                index[d] = i + 1
                self.addr = addr + strides[d]
                return
            index[d] = 0
            addr -= i * strides[d]
        self.addr = addr
        self.exhausted = True


class _State:
    """Flat mutable execution state the decoded closures operate on."""

    __slots__ = (
        "xs", "fs", "xready", "fready", "int_time", "fpu_time",
        "streaming", "movers", "trace", "timeline", "executed",
        "max_instructions", "data", "size", "deadline",
    )


def make_state(machine: SnitchMachine) -> _State:
    """Seed a flat state from a machine's architectural dictionaries."""
    s = _State()
    int_regs = machine.int_regs
    float_regs = machine.float_regs
    int_ready = machine.int_ready
    fp_ready = machine.fp_ready
    s.xs = [int_regs.get(n, 0) for n in _REG_NAMES]
    s.fs = [float_regs.get(n, 0) for n in _REG_NAMES]
    s.xready = [int_ready.get(n, 0) for n in _REG_NAMES]
    s.fready = [fp_ready.get(n, 0) for n in _REG_NAMES]
    s.int_time = machine.int_time
    s.fpu_time = machine.fpu_time
    s.streaming = machine.streaming
    s.movers = []
    for dm in machine.movers:
        fm = _FastMover()
        fm.bounds = list(dm.bounds)
        fm.strides = list(dm.strides)
        fm.repeat = dm.repeat
        fm.direction = dm.direction
        fm.dims = dm.dims
        fm.base = dm.base
        fm.index = list(dm.index)
        fm.repeat_count = dm.repeat_count
        fm.exhausted = dm.exhausted
        fm.resync()
        s.movers.append(fm)
    s.trace = machine.trace
    s.timeline = machine.timeline if machine.record_timeline else None
    s.executed = machine._executed
    s.max_instructions = machine.max_instructions
    s.deadline = machine._deadline
    s.data = machine.memory.data
    s.size = machine.memory.size
    return s


def sync_state(machine: SnitchMachine, s: _State) -> None:
    """Write a flat state back into the machine's dictionaries.

    Zero-valued entries are dropped (the dict register files default to
    0 on read, so every accessor observes identical values); keys
    outside the ABI name space — only reachable through manual
    ``write_int``/``write_float_bits`` calls — are preserved.
    """

    def rebuild(old: dict, values: list) -> dict:
        new = {
            k: v for k, v in old.items() if k not in _REG_INDEX
        }
        for name, value in zip(_REG_NAMES, values):
            if value:
                new[name] = value
        return new

    machine.int_regs = rebuild(machine.int_regs, s.xs)
    machine.int_regs.setdefault("zero", 0)
    machine.float_regs = rebuild(machine.float_regs, s.fs)
    machine.int_ready = rebuild(machine.int_ready, s.xready)
    machine.fp_ready = rebuild(machine.fp_ready, s.fready)
    machine.int_time = s.int_time
    machine.fpu_time = s.fpu_time
    machine.streaming = s.streaming
    machine._executed = s.executed
    for dm, fm in zip(machine.movers, s.movers):
        dm.bounds = list(fm.bounds)
        dm.strides = list(fm.strides)
        dm.repeat = fm.repeat
        dm.direction = fm.direction
        dm.dims = fm.dims
        dm.base = fm.base
        dm.index = list(fm.index)
        dm.repeat_count = fm.repeat_count
        dm.exhausted = fm.exhausted


# -- SSR element transport ------------------------------------------------------


def _ssr_pop(s: _State, tr, m: _FastMover) -> int:
    """Pop the next element of a read stream (with incremental advance)."""
    if m.exhausted:
        raise SimulationError("stream read past end of pattern")
    addr = m.addr
    if addr < 0 or addr + 8 > s.size:
        raise out_of_bounds(addr, 8)
    bits = _LOAD_U64(s.data, addr)[0]
    if m.repeat_count < m.repeat:
        m.repeat_count += 1
    else:
        m.repeat_count = 0
        i = m.index[0]
        if i < m.bounds[0]:
            m.index[0] = i + 1
            m.addr = addr + m.strides[0]
        else:
            m.wrap()
    tr.ssr_reads += 1
    return bits


def _ssr_push(s: _State, tr, m: _FastMover, bits: int) -> None:
    """Push the next element of a write stream."""
    if m.exhausted:
        raise SimulationError("stream write past end of pattern")
    addr = m.addr
    if addr < 0 or addr + 8 > s.size:
        raise out_of_bounds(addr, 8)
    _STORE_U64(s.data, addr, bits)
    if m.repeat_count < m.repeat:
        m.repeat_count += 1
    else:
        m.repeat_count = 0
        i = m.index[0]
        if i < m.bounds[0]:
            m.index[0] = i + 1
            m.addr = addr + m.strides[0]
        else:
            m.wrap()
    tr.ssr_writes += 1


# -- integer-core closures ------------------------------------------------------
#
# Every factory burns the reference interpreter's exact sequence into a
# closure: bump the dynamic histogram, count the instruction, compute
# the issue cycle from the source-ready times, record the timeline row,
# advance the integer timeline, execute, publish the result-ready time.
# Writes to ``zero`` (unified index 0) are dropped, but its ready time
# is still published — exactly as the reference does.


def _make_li(rd, imm, next_pc, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h["li"] = h.get("li", 0) + 1
        tr.int_instructions += 1
        issue = s.int_time
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        if rd:
            s.xs[rd] = imm
        s.xready[rd] = issue + 1
        return next_pc

    return op


def _make_mv(rd, a, next_pc, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h["mv"] = h.get("mv", 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        r = xready[a]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        xs = s.xs
        if rd:
            xs[rd] = xs[a]
        xready[rd] = issue + 1
        return next_pc

    return op


def _make_alu2(mn, rd, a, b, combine, next_pc, text):
    """add/sub: two register sources, single-cycle result."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        r = xready[a]
        if r > issue:
            issue = r
        r = xready[b]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        xs = s.xs
        if rd:
            xs[rd] = combine(xs[a], xs[b])
        xready[rd] = issue + 1
        return next_pc

    return op


def _make_mul(rd, a, b, next_pc, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h["mul"] = h.get("mul", 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        r = xready[a]
        if r > issue:
            issue = r
        r = xready[b]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        xs = s.xs
        if rd:
            xs[rd] = xs[a] * xs[b]
        xready[rd] = issue + MUL_LATENCY
        return next_pc

    return op


def _make_alu1i(mn, rd, a, imm, shift, next_pc, text):
    """addi/slli: one register source plus an immediate."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        r = xready[a]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        xs = s.xs
        if rd:
            xs[rd] = (xs[a] << imm) if shift else (xs[a] + imm)
        xready[rd] = issue + 1
        return next_pc

    return op


def _make_lw(rd, base, imm, next_pc, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h["lw"] = h.get("lw", 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        r = xready[base]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        xs = s.xs
        addr = xs[base] + imm
        if addr < 0 or addr + 4 > s.size:
            raise out_of_bounds(addr, 4)
        if rd:
            xs[rd] = _LOAD_U32(s.data, addr)[0]
        tr.loads += 1
        xready[rd] = issue + INT_LOAD_LATENCY
        return next_pc

    return op


def _make_sw(value, base, imm, next_pc, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h["sw"] = h.get("sw", 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        r = xready[value]
        if r > issue:
            issue = r
        r = xready[base]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        xs = s.xs
        addr = xs[base] + imm
        if addr < 0 or addr + 4 > s.size:
            raise out_of_bounds(addr, 4)
        _STORE_U32(s.data, addr, xs[value] & 0xFFFFFFFF)
        tr.stores += 1
        return next_pc

    return op


def _make_scfgwi(src, action, next_pc, text):
    """SSR config write; ``action`` is pre-decoded from the immediate."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h["scfgwi"] = h.get("scfgwi", 0) + 1
        tr.int_instructions += 1
        issue = s.int_time
        r = s.xready[src]
        if r > issue:
            issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        tag = action[0]
        if tag == "badmover":
            raise SimulationError(f"scfgwi: no data mover {action[1]}")
        if tag == "badword":
            raise SimulationError(
                f"scfgwi: unknown config word {action[1]}"
            )
        value = s.xs[src]
        m = s.movers[action[1]]
        if tag == "bound":
            m.bounds[action[2]] = value
        elif tag == "stride":
            m.strides[action[2]] = value
            m.resync()
        elif tag == "repeat":
            m.repeat = value
        else:  # arm
            m.arm(action[2], action[3], value)
        return next_pc

    return op


def _make_csr(mn, csr, next_pc, text):
    supported = csr == "ssrcfg"
    enable = mn == "csrsi"

    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        tr.int_instructions += 1
        issue = s.int_time
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        if not supported:
            raise SimulationError(f"unsupported CSR {csr!r}")
        if enable:
            s.streaming = True
        else:
            # Disabling streaming synchronizes with the FPU.
            if s.fpu_time > s.int_time:
                s.int_time = s.fpu_time
            s.streaming = False
        return next_pc

    return op


def _make_int_unhandled(mn, srcs, text):
    """The reference raises after the issue bookkeeping; mirror that."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        for u in srcs:
            r = xready[u]
            if r > issue:
                issue = r
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "int", text))
        s.int_time = issue + 1
        raise SimulationError(f"unhandled instruction {mn!r}")

    return op


def _make_bnez(a, target_pc, target, next_pc, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h["bnez"] = h.get("bnez", 0) + 1
        tr.int_instructions += 1
        issue = s.int_time
        r = s.xready[a]
        if r > issue:
            issue = r
        if s.xs[a] != 0:
            s.int_time = issue + _TAKEN
            if target_pc is None:
                raise AssemblerError(f"undefined label {target!r}")
            return target_pc
        s.int_time = issue + 1
        return next_pc

    return op


def _make_branch2(mn, a, b, compare, target_pc, target, next_pc, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        tr.int_instructions += 1
        xready = s.xready
        issue = s.int_time
        r = xready[a]
        if r > issue:
            issue = r
        r = xready[b]
        if r > issue:
            issue = r
        xs = s.xs
        if compare(xs[a], xs[b]):
            s.int_time = issue + _TAKEN
            if target_pc is None:
                raise AssemblerError(f"undefined label {target!r}")
            return target_pc
        s.int_time = issue + 1
        return next_pc

    return op


def _make_j(target_pc, target, text):
    def op(s):
        tr = s.trace
        h = tr.histogram
        h["j"] = h.get("j", 0) + 1
        s.int_time += _TAKEN
        if target_pc is None:
            raise AssemblerError(f"undefined label {target!r}")
        return target_pc

    return op


def _ret_op(s):
    return None


_BRANCH_COMPARE = {
    "blt": lambda lhs, rhs: lhs < rhs,
    "bge": lambda lhs, rhs: lhs >= rhs,
    "bne": lambda lhs, rhs: lhs != rhs,
    "beq": lambda lhs, rhs: lhs == rhs,
}


# -- FPU-side closures ----------------------------------------------------------
#
# FPU closures have signature ``fn(state, dispatch)`` — the integer
# core's dispatch cycle is an argument so the same closure serves both
# the standalone case (dispatch = integer issue slot) and FREP replay
# (dispatch pre-computed for the first iteration, 0 afterwards).


def _make_fp_load(mn, rd, src, imm, text):
    u0, isfp0, k0 = src
    double = mn == "fld"
    width = 8 if double else 4
    loader = _LOAD_U64 if double else _LOAD_U32

    def fn(s, dispatch):
        tr = s.trace
        tr.fpu_instructions += 1
        ready = dispatch
        if isfp0:
            if not (
                k0 >= 0
                and s.streaming
                and s.movers[k0].direction == "read"
            ):
                r = s.fready[u0]
                if r > ready:
                    ready = r
        else:
            r = s.xready[u0]
            if r > ready:
                ready = r
        ft = s.fpu_time
        issue = ready if ready > ft else ft
        if issue > ft:
            tr.fpu_stall_cycles += issue - ft
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "fpu", text))
        s.fpu_time = issue + 1
        addr = s.xs[u0] + imm
        if addr < 0 or addr + width > s.size:
            raise out_of_bounds(addr, width)
        s.fs[rd] = loader(s.data, addr)[0]
        tr.loads += 1
        s.fready[rd] = issue + FP_LOAD_LATENCY

    return fn


def _make_fp_store(mn, value, base, imm, text):
    uv, isfpv, kv = value
    ub, isfpb, kb = base
    double = mn == "fsd"
    width = 8 if double else 4

    def fn(s, dispatch):
        tr = s.trace
        tr.fpu_instructions += 1
        streaming = s.streaming
        movers = s.movers
        ready = dispatch
        if isfpv:
            if not (
                kv >= 0 and streaming and movers[kv].direction == "read"
            ):
                r = s.fready[uv]
                if r > ready:
                    ready = r
        else:
            r = s.xready[uv]
            if r > ready:
                ready = r
        if isfpb:
            if not (
                kb >= 0 and streaming and movers[kb].direction == "read"
            ):
                r = s.fready[ub]
                if r > ready:
                    ready = r
        else:
            r = s.xready[ub]
            if r > ready:
                ready = r
        ft = s.fpu_time
        issue = ready if ready > ft else ft
        if issue > ft:
            tr.fpu_stall_cycles += issue - ft
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "fpu", text))
        s.fpu_time = issue + 1
        addr = s.xs[ub] + imm
        if addr < 0 or addr + width > s.size:
            raise out_of_bounds(addr, width)
        bits = s.fs[uv]
        if double:
            _STORE_U64(s.data, addr, bits)
        else:
            _STORE_U32(s.data, addr, bits & 0xFFFFFFFF)
        tr.stores += 1

    return fn


def _make_fcvt(rd, rd_k, src, text):
    u0, isfp0, k0 = src

    def fn(s, dispatch):
        tr = s.trace
        tr.fpu_instructions += 1
        streaming = s.streaming
        ready = dispatch
        if isfp0:
            if not (
                k0 >= 0
                and streaming
                and s.movers[k0].direction == "read"
            ):
                r = s.fready[u0]
                if r > ready:
                    ready = r
        else:
            r = s.xready[u0]
            if r > ready:
                ready = r
        ft = s.fpu_time
        issue = ready if ready > ft else ft
        if issue > ft:
            tr.fpu_stall_cycles += issue - ft
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "fpu", text))
        s.fpu_time = issue + 1
        res = _UNPACK_Q(_PACK_D(float(s.xs[u0])))[0]
        if (
            rd_k >= 0
            and streaming
            and s.movers[rd_k].direction == "write"
        ):
            _ssr_push(s, tr, s.movers[rd_k], res)
        else:
            s.fs[rd] = res
            s.fready[rd] = issue + 1

    return fn


def _make_fmadd_d(rd, rd_k, s0, s1, s2, text):
    """The GEMM workhorse: ``fmadd.d`` with inline stream handling."""
    u0, _, k0 = s0
    u1, _, k1 = s1
    u2, _, k2 = s2

    def fn(s, dispatch):
        tr = s.trace
        tr.fpu_instructions += 1
        streaming = s.streaming
        movers = s.movers
        fready = s.fready
        m0 = m1 = m2 = None
        if streaming:
            if k0 >= 0:
                m = movers[k0]
                if m.direction == "read":
                    m0 = m
            if k1 >= 0:
                m = movers[k1]
                if m.direction == "read":
                    m1 = m
            if k2 >= 0:
                m = movers[k2]
                if m.direction == "read":
                    m2 = m
        ready = dispatch
        if m0 is None:
            r = fready[u0]
            if r > ready:
                ready = r
        if m1 is None:
            r = fready[u1]
            if r > ready:
                ready = r
        if m2 is None:
            r = fready[u2]
            if r > ready:
                ready = r
        ft = s.fpu_time
        issue = ready if ready > ft else ft
        if issue > ft:
            tr.fpu_stall_cycles += issue - ft
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "fpu", text))
        s.fpu_time = issue + 1
        fs = s.fs
        if m0 is not None:
            b0 = _ssr_pop(s, tr, m0)
            fs[u0] = b0
        else:
            b0 = fs[u0]
        if m1 is not None:
            b1 = _ssr_pop(s, tr, m1)
            fs[u1] = b1
        else:
            b1 = fs[u1]
        if m2 is not None:
            b2 = _ssr_pop(s, tr, m2)
            fs[u2] = b2
        else:
            b2 = fs[u2]
        res = _UNPACK_Q(_PACK_D(
            _UNPACK_D(_PACK_Q(b0))[0] * _UNPACK_D(_PACK_Q(b1))[0]
            + _UNPACK_D(_PACK_Q(b2))[0]
        ))[0]
        tr.fpu_arith_cycles += 1
        tr.flops += 2
        tr.fmadd += 1
        if (
            rd_k >= 0
            and streaming
            and movers[rd_k].direction == "write"
        ):
            _ssr_push(s, tr, movers[rd_k], res)
        else:
            fs[rd] = res
            fready[rd] = issue + FP_LATENCY

    return fn


_ARITH2_D = {
    "fadd.d": lambda a, b: a + b,
    "fsub.d": lambda a, b: a - b,
    "fmul.d": lambda a, b: a * b,
    "fdiv.d": lambda a, b: a / b,
    "fmax.d": max,
    "fmin.d": min,
}


def _make_arith2_d(mn, rd, rd_k, s0, s1, text):
    """Two-source scalar-double arithmetic with inline bit codecs."""
    u0, _, k0 = s0
    u1, _, k1 = s1
    combine = _ARITH2_D[mn]
    flops = FP_ARITH_FLOPS[mn]

    def fn(s, dispatch):
        tr = s.trace
        tr.fpu_instructions += 1
        streaming = s.streaming
        movers = s.movers
        fready = s.fready
        m0 = m1 = None
        if streaming:
            if k0 >= 0:
                m = movers[k0]
                if m.direction == "read":
                    m0 = m
            if k1 >= 0:
                m = movers[k1]
                if m.direction == "read":
                    m1 = m
        ready = dispatch
        if m0 is None:
            r = fready[u0]
            if r > ready:
                ready = r
        if m1 is None:
            r = fready[u1]
            if r > ready:
                ready = r
        ft = s.fpu_time
        issue = ready if ready > ft else ft
        if issue > ft:
            tr.fpu_stall_cycles += issue - ft
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "fpu", text))
        s.fpu_time = issue + 1
        fs = s.fs
        if m0 is not None:
            b0 = _ssr_pop(s, tr, m0)
            fs[u0] = b0
        else:
            b0 = fs[u0]
        if m1 is not None:
            b1 = _ssr_pop(s, tr, m1)
            fs[u1] = b1
        else:
            b1 = fs[u1]
        res = _UNPACK_Q(_PACK_D(combine(
            _UNPACK_D(_PACK_Q(b0))[0], _UNPACK_D(_PACK_Q(b1))[0]
        )))[0]
        tr.fpu_arith_cycles += 1
        tr.flops += flops
        if (
            rd_k >= 0
            and streaming
            and movers[rd_k].direction == "write"
        ):
            _ssr_push(s, tr, movers[rd_k], res)
        else:
            fs[rd] = res
            fready[rd] = issue + FP_LATENCY

    return fn


def _make_fmv_d(rd, rd_k, s0, text):
    """``fmv.d``: a counted register copy (1 FLOP per paper Table 1)."""
    u0, _, k0 = s0

    def fn(s, dispatch):
        tr = s.trace
        tr.fpu_instructions += 1
        streaming = s.streaming
        movers = s.movers
        fready = s.fready
        m0 = None
        if streaming and k0 >= 0:
            m = movers[k0]
            if m.direction == "read":
                m0 = m
        ready = dispatch
        if m0 is None:
            r = fready[u0]
            if r > ready:
                ready = r
        ft = s.fpu_time
        issue = ready if ready > ft else ft
        if issue > ft:
            tr.fpu_stall_cycles += issue - ft
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "fpu", text))
        s.fpu_time = issue + 1
        fs = s.fs
        if m0 is not None:
            res = _ssr_pop(s, tr, m0)
            fs[u0] = res
        else:
            res = fs[u0]
        tr.fpu_arith_cycles += 1
        tr.flops += 1
        if (
            rd_k >= 0
            and streaming
            and movers[rd_k].direction == "write"
        ):
            _ssr_push(s, tr, movers[rd_k], res)
        else:
            fs[rd] = res
            fready[rd] = issue + FP_LATENCY

    return fn


def _compute_fn(mn):
    """Bit-level compute function for the generic FPU closure, matching
    :meth:`SnitchMachine._compute_fp` branch for branch."""
    if mn == "fmv.d":
        return lambda bits: bits[0]
    if mn == "vfcpka.s.s":
        return lambda bits: pack_f32x2(
            bits_to_f32(bits[0] & 0xFFFFFFFF),
            bits_to_f32(bits[1] & 0xFFFFFFFF),
        )
    if mn.endswith(".d"):
        scalar = _SCALAR_OPS[mn[:-2]]

        def compute(bits):
            values = [_UNPACK_D(_PACK_Q(b))[0] for b in bits]
            return _UNPACK_Q(_PACK_D(scalar(values)))[0]

        return compute
    if mn.startswith("vf"):
        return lambda bits: _compute_packed(
            mn, [unpack_f32x2(b) for b in bits]
        )
    if mn.endswith(".s"):
        scalar = _SCALAR_OPS[mn[:-2]]

        def compute(bits):
            values = [bits_to_f32(b & 0xFFFFFFFF) for b in bits]
            return f32_to_bits(np.float32(scalar(values)))

        return compute

    def unhandled(bits):
        raise SimulationError(f"unhandled FP instruction {mn!r}")

    return unhandled


def _make_fp_generic(mn, rd, rd_k, srcs, text):
    """Arity-agnostic arithmetic/move closure (``.s``, packed SIMD...)."""
    compute = _compute_fn(mn)
    arith = mn in FP_ARITH_FLOPS
    flops = FP_ARITH_FLOPS.get(mn, 0)
    latency = FP_LATENCY if arith else 1
    is_fmadd = mn in ("fmadd.d", "fmadd.s")

    def fn(s, dispatch):
        tr = s.trace
        tr.fpu_instructions += 1
        streaming = s.streaming
        movers = s.movers
        fready = s.fready
        xready = s.xready
        ready = dispatch
        for u, isfp, k in srcs:
            if isfp:
                if (
                    k >= 0
                    and streaming
                    and movers[k].direction == "read"
                ):
                    continue
                r = fready[u]
            else:
                r = xready[u]
            if r > ready:
                ready = r
        ft = s.fpu_time
        issue = ready if ready > ft else ft
        if issue > ft:
            tr.fpu_stall_cycles += issue - ft
        tl = s.timeline
        if tl is not None:
            tl.append((issue, "fpu", text))
        s.fpu_time = issue + 1
        fs = s.fs
        bits = []
        for u, isfp, k in srcs:
            if isfp and k >= 0 and streaming:
                m = movers[k]
                if m.direction == "read":
                    b = _ssr_pop(s, tr, m)
                    fs[u] = b
                    bits.append(b)
                    continue
            bits.append(fs[u])
        res = compute(bits)
        if arith:
            tr.fpu_arith_cycles += 1
            tr.flops += flops
            if is_fmadd:
                tr.fmadd += 1
        if rd is not None:
            if (
                rd_k >= 0
                and streaming
                and movers[rd_k].direction == "write"
            ):
                _ssr_push(s, tr, movers[rd_k], res)
            else:
                fs[rd] = res
                fready[rd] = issue + latency

    return fn


def _make_fpu_fn(inst: Inst):
    """Select and build the execute closure for one FPU instruction."""
    mn = inst.mnemonic
    text = str(inst)
    srcs = tuple(_src_meta(name) for name in inst.sources)
    rd = _u(inst.rd) if inst.rd is not None else None
    rd_k = _STREAM_MOVER.get(rd, -1) if rd is not None else -1
    if mn in FP_LOADS and rd is not None and len(srcs) == 1:
        return _make_fp_load(mn, rd, srcs[0], inst.imm or 0, text)
    if mn in FP_STORES and len(srcs) == 2:
        return _make_fp_store(mn, srcs[0], srcs[1], inst.imm or 0, text)
    if mn == "fcvt.d.w" and rd is not None and len(srcs) == 1:
        return _make_fcvt(rd, rd_k, srcs[0], text)
    all_fp = all(isfp for _, isfp, _ in srcs)
    if rd is not None and all_fp:
        if mn == "fmadd.d" and len(srcs) == 3:
            return _make_fmadd_d(rd, rd_k, *srcs, text)
        if mn in _ARITH2_D and len(srcs) == 2:
            return _make_arith2_d(mn, rd, rd_k, *srcs, text)
        if mn == "fmv.d" and len(srcs) == 1:
            return _make_fmv_d(rd, rd_k, srcs[0], text)
    return _make_fp_generic(mn, rd, rd_k, srcs, text)


# -- FREP macro-op --------------------------------------------------------------


def _raising_after_record(mn, exc):
    """Record the mnemonic (as ``_step`` would), then raise."""

    def op(s):
        h = s.trace.histogram
        h[mn] = h.get(mn, 0) + 1
        raise exc

    return op


def _make_frep(rs, length, body, next_pc):
    """``frep.o`` as a macro-op: the body — decoded and legality-checked
    once — is replayed in a tight loop.  Iteration 0 carries the
    sequencer's staggered dispatch cycles; later iterations replay with
    dispatch 0, exactly as the reference models it."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h["frep.o"] = h.get("frep.o", 0) + 1
        iterations = s.xs[rs] + 1
        tr.frep += 1
        tr.int_instructions += 1
        t = s.int_time
        r = s.xready[rs]
        frep_issue = t if t > r else r
        s.int_time = frep_issue + 1 + length
        base = frep_issue + 1
        maxi = s.max_instructions
        executed = s.executed
        deadline = s.deadline
        try:
            first = True
            for _ in range(iterations):
                if deadline is not None and monotonic() > deadline:
                    raise DeadlineExceeded(
                        "wall-clock deadline exceeded after "
                        f"{executed} instructions (inside frep)"
                    )
                d = base
                for fn, mn in body:
                    h[mn] = h.get(mn, 0) + 1
                    executed += 1
                    if executed > maxi:
                        raise SimulationError(
                            "instruction budget exceeded inside frep"
                        )
                    if first:
                        fn(s, d)
                        d += 1
                    else:
                        fn(s, 0)
                first = False
        finally:
            s.executed = executed
        return next_pc

    return op


def _decode_frep(inst: Inst, pc: int, insts, fpu_fns):
    length = inst.frep_length or 0
    if length <= 0:
        return _raising_after_record(
            "frep.o",
            SimulationError("frep.o with non-positive body length"),
        )
    body_start = pc + 1
    if body_start + length > len(insts):
        return _raising_after_record(
            "frep.o",
            SimulationError("frep.o body runs past end of program"),
        )
    for binst in insts[body_start : body_start + length]:
        if binst.mnemonic not in FPU_INSTRUCTIONS:
            return _raising_after_record(
                "frep.o",
                SimulationError(
                    f"illegal instruction in FREP body: {binst.mnemonic}"
                ),
            )
    body = tuple(
        (fpu_fns[i], insts[i].mnemonic)
        for i in range(body_start, body_start + length)
    )
    return _make_frep(_u(inst.sources[0]), length, body, pc + 1 + length)


# -- decode driver --------------------------------------------------------------


def _decode_int(inst: Inst, next_pc: int):
    mn = inst.mnemonic
    text = str(inst)
    if mn == "li":
        return _make_li(_u(inst.rd), inst.imm, next_pc, text)
    if mn == "mv":
        return _make_mv(_u(inst.rd), _u(inst.sources[0]), next_pc, text)
    if mn == "add":
        return _make_alu2(
            mn, _u(inst.rd), _u(inst.sources[0]), _u(inst.sources[1]),
            lambda a, b: a + b, next_pc, text,
        )
    if mn == "sub":
        return _make_alu2(
            mn, _u(inst.rd), _u(inst.sources[0]), _u(inst.sources[1]),
            lambda a, b: a - b, next_pc, text,
        )
    if mn == "mul":
        return _make_mul(
            _u(inst.rd), _u(inst.sources[0]), _u(inst.sources[1]),
            next_pc, text,
        )
    if mn in ("addi", "slli"):
        return _make_alu1i(
            mn, _u(inst.rd), _u(inst.sources[0]), inst.imm,
            mn == "slli", next_pc, text,
        )
    if mn == "lw":
        return _make_lw(
            _u(inst.rd), _u(inst.sources[0]), inst.imm or 0,
            next_pc, text,
        )
    if mn == "sw":
        return _make_sw(
            _u(inst.sources[0]), _u(inst.sources[1]), inst.imm or 0,
            next_pc, text,
        )
    if mn == "scfgwi":
        return _make_scfgwi(
            _u(inst.sources[0]), _scfg_action(inst.imm), next_pc, text
        )
    if mn in ("csrsi", "csrci"):
        return _make_csr(mn, inst.csr, next_pc, text)
    return _make_int_unhandled(
        mn, tuple(_u(name) for name in inst.sources), text
    )


def _scfg_action(imm: int) -> tuple:
    """Pre-decode an ``scfgwi`` immediate into an action tuple."""
    mover_index, word = scfg_decode(imm)
    if not 0 <= mover_index < SSR_COUNT:
        return ("badmover", mover_index)
    if WORD_BOUND_BASE <= word < WORD_BOUND_BASE + SSR_MAX_DIMS:
        return ("bound", mover_index, word - WORD_BOUND_BASE)
    if WORD_STRIDE_BASE <= word < WORD_STRIDE_BASE + SSR_MAX_DIMS:
        return ("stride", mover_index, word - WORD_STRIDE_BASE)
    if word == WORD_REPEAT:
        return ("repeat", mover_index)
    if (
        WORD_READ_POINTER_BASE
        <= word
        < WORD_READ_POINTER_BASE + SSR_MAX_DIMS
    ):
        return ("arm", mover_index, "read", word - WORD_READ_POINTER_BASE + 1)
    if (
        WORD_WRITE_POINTER_BASE
        <= word
        < WORD_WRITE_POINTER_BASE + SSR_MAX_DIMS
    ):
        return (
            "arm", mover_index, "write", word - WORD_WRITE_POINTER_BASE + 1
        )
    return ("badword", word)


class DecodedProgram:
    """One program translated to threaded closures, decode run once."""

    __slots__ = ("program", "code", "n", "insts", "labels")

    def __init__(self, program: Program, code: list):
        self.program = program
        self.code = code
        self.n = len(code)
        # Snapshot for cache invalidation (see :meth:`matches`).
        self.insts = list(program.instructions)
        self.labels = dict(program.labels)

    def matches(self, program: Program) -> bool:
        """Whether this decode is still valid for ``program``.

        Catches instruction-list edits (insert/remove/replace, by
        object identity) and label-map changes.  Mutating a *field* of
        an ``Inst`` in place is not detectable — programs are treated
        as frozen once assembled.
        """
        insts = program.instructions
        if self.n != len(insts):
            return False
        if self.labels != program.labels:
            return False
        return all(a is b for a, b in zip(self.insts, insts))


def decode(program: Program) -> DecodedProgram:
    """Translate (and cache) a program into specialized closures.

    The result is memoized on the ``Program`` object, so every machine
    executing the same program — every core of a cluster, every run of
    a reused compiled kernel — shares a single decode.

    Thread-safe: the decode is published under :data:`_DECODE_LOCK`
    with a double check, so racing callers (a threaded compile
    server's submitters) share one complete decode — never a torn one,
    and never two redundant ones.  The lock-free fast path reads the
    already-published attribute, which CPython assignment makes atomic.
    """
    cached = getattr(program, "_decoded", None)
    if cached is not None and cached.matches(program):
        return cached
    with _DECODE_LOCK:
        return _decode_locked(program)


def _decode_locked(program: Program) -> DecodedProgram:
    """Decode under :data:`_DECODE_LOCK` (double-checked)."""
    cached = getattr(program, "_decoded", None)
    if cached is not None and cached.matches(program):
        return cached
    with span("engine.decode", instructions=len(program.instructions)):
        return _decode_miss(program)


def _decode_miss(program: Program) -> DecodedProgram:
    insts = program.instructions
    code: list = [None] * len(insts)
    fpu_fns: list = [None] * len(insts)
    freps = []
    for pc, inst in enumerate(insts):
        kind = inst.kind or classify(inst.mnemonic)
        next_pc = pc + 1
        if kind == KIND_RET:
            code[pc] = _ret_op
        elif kind == KIND_FPU:
            fn = _make_fpu_fn(inst)
            fpu_fns[pc] = fn
            code[pc] = _wrap_fpu(inst.mnemonic, fn, next_pc)
        elif kind == KIND_BRANCH:
            target_pc = program.labels.get(inst.target)
            if inst.mnemonic == "bnez":
                code[pc] = _make_bnez(
                    _u(inst.sources[0]), target_pc, inst.target,
                    next_pc, str(inst),
                )
            else:
                code[pc] = _make_branch2(
                    inst.mnemonic,
                    _u(inst.sources[0]), _u(inst.sources[1]),
                    _BRANCH_COMPARE[inst.mnemonic],
                    target_pc, inst.target, next_pc, str(inst),
                )
        elif kind == KIND_JUMP:
            code[pc] = _make_j(
                program.labels.get(inst.target), inst.target, str(inst)
            )
        elif kind == KIND_FREP:
            freps.append(pc)
        else:
            code[pc] = _decode_int(inst, next_pc)
    for pc in freps:
        code[pc] = _decode_frep(insts[pc], pc, insts, fpu_fns)
    decoded = DecodedProgram(program, code)
    program._decoded = decoded
    DECODE_STATS.increment("programs_decoded")
    DECODE_STATS.increment("instructions_decoded", len(insts))
    _DECODED[id(program)] = weakref.ref(program)
    _prune_decoded()
    return decoded


def _wrap_fpu(mn, fn, next_pc):
    """Standalone FPU instruction: one integer-core dispatch slot, then
    hand off to the FPU closure."""

    def op(s):
        tr = s.trace
        h = tr.histogram
        h[mn] = h.get(mn, 0) + 1
        d = s.int_time
        s.int_time = d + 1
        fn(s, d)
        return next_pc

    return op


def execute(machine: SnitchMachine, entry: str):
    """Run a machine to ``ret`` on the predecoded engine.

    Mirrors the reference interpreter's main loop (including the order
    of the pc-range, budget, and ``ret`` checks) on flat state; the
    state is written back to the machine's dictionaries even when an
    execution error propagates.
    """
    decoded = decode(machine.program)
    code = decoded.code
    n = decoded.n
    pc = machine.program.entry(entry)
    s = make_state(machine)
    maxi = s.max_instructions
    deadline = s.deadline
    try:
        while True:
            if pc < 0 or pc >= n:
                raise SimulationError(f"pc out of range: {pc}")
            ex = s.executed + 1
            s.executed = ex
            if ex > maxi:
                raise SimulationError(
                    "instruction budget exceeded (infinite loop?)"
                )
            if (
                deadline is not None
                and (ex & 4095) == 0
                and monotonic() > deadline
            ):
                raise DeadlineExceeded(
                    "wall-clock deadline exceeded after "
                    f"{ex} instructions"
                )
            nxt = code[pc](s)
            if nxt is None:
                break
            pc = nxt
    finally:
        sync_state(machine, s)


__all__ = [
    "DECODE_STATS",
    "ENGINE_VERSION",
    "DecodedProgram",
    "clear_decode_cache",
    "decode",
    "decode_cache_size",
    "execute",
    "make_state",
    "sync_state",
]
