"""Vectorized schedule-replay engine: one NumPy pass for a whole batch.

The schedule-replay fast path (:mod:`repro.machine.fastpath`) already
exploits the pipeline's data-independent timing: control is recorded once
and only the data path re-executes per trace.  This module takes the next
step the recorded schedule makes possible — since N traces of the same
program march in lockstep, the per-cycle data path can be evaluated for
the *whole batch at once*:

* the replayed program is first compiled (once per program, cached) into a
  :class:`_VectorPlan`: a symbolic sweep over the schedule resolves every
  latched value to either a compile-time constant (immediates, loop
  counters, addresses — constant-folded through the scalar ALU handlers),
  an ALU result row, or a load row;
* at run time the plan executes as a flat list of NumPy ops over
  ``[n_traces]`` operand vectors, with data memory held as one dense
  ``[n_traces, window_words]`` matrix;
* the energy post-pass materializes the six latched value streams as
  ``[n_cycles + 1, n_traces]`` matrices and hands them, a block of
  cycles at a time, to the :class:`~.scoring.EnergyScorer` the fast
  engine also uses, which emits per-cycle energy for every trace.

The accuracy contract is the same **bit identity** the fast engine claims:
the shared scorer performs every floating-point addition in the order the
reference hook sequence performs it (see :mod:`.scoring`), and each job's
noise is drawn from its own tracker stream, draw for draw.
``tests/machine/test_vector.py`` enforces this differentially against the
reference engine for every experiment workload.

Like the fast engine, correctness never depends on the data-independence
heuristic: every recorded branch/indirect-jump outcome is re-checked
against the batch (vectorized, after the data sweep — sound because replay
is unconditional and nothing is committed on failure) and a mismatch
raises :class:`~repro.machine.fastpath.ScheduleDivergence`.  Programs the
vector model cannot express — data-dependent addresses leaving the
modeled memory window, computed store addresses that could alias the
marker port — raise :class:`VectorUnsupported`.  Either way
:func:`run_job_batch` declines the batch and the harness runs it per job
on the scalar engines.

The engine is batch-only: its one entry point is :func:`run_job_batch`
(the engine registry's ``batch`` hook).  A single trace requested on
``vector`` replays on the fast engine, which matches it warm at width 1
and pays neither the plan compile nor the batch working set.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..energy.tracker import COMPONENTS, EnergyTracker
from ..isa.instructions import AluOp
from ..isa.program import Program
from .fastpath import (_ALU_FUNCS, _BRANCH_FUNCS, _MEM_LB, _MEM_LBU,
                       _MEM_LW, _MEM_SW, _WORD_MASK, ScheduleDivergence,
                       ScheduleFallback, ScheduleUnavailable, _BoundSchedule,
                       bound_schedule_for, mark_divergent, program_digest)
from .pipeline import MARKER_ADDR
from .scoring import (SCORE_BLOCK, STREAM_NA, STREAM_NB, STREAM_NST,
                      STREAM_OUT, STREAM_ST, STREAM_WBV, STREAMS, EnergyScorer,
                      running_total)

#: Slack above/below the statically known data extent, so small pointer
#: arithmetic past an array stays inside the modeled window.
_WINDOW_MARGIN_WORDS = 64
#: Refuse to model absurdly scattered address ranges densely.
_MAX_WINDOW_WORDS = 1 << 22
#: Whole-batch working-set ceiling; larger batches fall back to scalar.
_MAX_BATCH_BYTES = 1 << 30


class VectorUnsupported(ScheduleUnavailable):
    """The vector engine cannot serve this program or batch (model limits,
    not divergence); callers fall back to the scalar engines."""


# ---------------------------------------------------------------------------
# Vector ALU
# ---------------------------------------------------------------------------

def _i32(x):
    """Signed reinterpretation of a uint32 vector or scalar operand."""
    if isinstance(x, np.ndarray):
        return x.view(np.int32)
    value = int(x)
    if value & 0x8000_0000:
        value -= 0x1_0000_0000
    return np.int32(value)


_SH31 = np.uint32(31)


def _sh(b):
    return np.bitwise_and(b, _SH31)


# Vector twins of fastpath._ALU_FUNCS; each writes a full [n] uint32 row.
# uint32 arithmetic wraps exactly like the scalar ``& _WORD_MASK``.

def _v_add(a, b, out):
    np.add(a, b, out=out)


def _v_sub(a, b, out):
    np.subtract(a, b, out=out)


def _v_and(a, b, out):
    np.bitwise_and(a, b, out=out)


def _v_or(a, b, out):
    np.bitwise_or(a, b, out=out)


def _v_xor(a, b, out):
    np.bitwise_xor(a, b, out=out)


def _v_nor(a, b, out):
    np.bitwise_or(a, b, out=out)
    np.invert(out, out=out)


def _v_slt(a, b, out):
    out[...] = np.less(_i32(a), _i32(b))


def _v_sltu(a, b, out):
    out[...] = np.less(a, b)


def _v_sll(a, b, out):
    np.left_shift(a, _sh(b), out=out)


def _v_srl(a, b, out):
    np.right_shift(a, _sh(b), out=out)


def _v_sra(a, b, out):
    out[...] = np.right_shift(_i32(a), _sh(b))


def _v_lui(a, b, out):
    np.left_shift(b, np.uint32(16), out=out)


def _v_pass_a(a, b, out):
    out[...] = a


#: Scalar ALU handler (a bound record's ``alu_fn``) -> its vector twin.
_VALU = {_ALU_FUNCS[op.value]: fn for op, fn in (
    (AluOp.ADD, _v_add), (AluOp.SUB, _v_sub), (AluOp.AND, _v_and),
    (AluOp.OR, _v_or), (AluOp.XOR, _v_xor), (AluOp.NOR, _v_nor),
    (AluOp.SLT, _v_slt), (AluOp.SLTU, _v_sltu), (AluOp.SLL, _v_sll),
    (AluOp.SRL, _v_srl), (AluOp.SRA, _v_sra), (AluOp.LUI, _v_lui),
    (AluOp.PASS_A, _v_pass_a))}

#: Branch predicate (a bound record's ``taken_fn``) -> check kind (index
#: into the vector predicate dispatch).
_BR_KINDS = {_BRANCH_FUNCS[name]: kind for kind, name in enumerate(
    ("beq", "bne", "blez", "bgtz", "bltz", "bgez"))}
_BR_JR = 6

# Symbol tags: a latched value is a constant, an ALU output row, or a
# loaded-word row.
_CONST, _OUT, _LOAD = 0, 1, 2
_ZERO = (_CONST, 0)

# Runtime op tags.
(_OP_ALU, _OP_LW_C, _OP_LW_V, _OP_LB_C, _OP_LB_V,
 _OP_SW_C, _OP_SW_V, _OP_SB_C, _OP_SB_V) = range(9)


# ---------------------------------------------------------------------------
# Plan compilation: symbolic sweep over the recorded schedule
# ---------------------------------------------------------------------------

class _Gather:
    """Materializer for one per-cycle symbol list into rows ``1..cycles``
    of a ``[cycles + 1, n]`` uint32 stream (row 0 is the state before
    cycle 0, the layout :meth:`~.scoring.EnergyScorer.score` takes)."""

    __slots__ = ("const_rows", "const_vals", "out_rows", "out_src",
                 "load_rows", "load_src")

    def __init__(self, syms: list[tuple[int, int]]):
        const_rows: list[int] = []
        const_vals: list[int] = []
        out_rows: list[int] = []
        out_src: list[int] = []
        load_rows: list[int] = []
        load_src: list[int] = []
        for row, (tag, value) in enumerate(syms, 1):
            if tag == _CONST:
                const_rows.append(row)
                const_vals.append(value & _WORD_MASK)
            elif tag == _OUT:
                out_rows.append(row)
                out_src.append(value)
            else:
                load_rows.append(row)
                load_src.append(value)
        self.const_rows = np.asarray(const_rows, np.int64)
        self.const_vals = np.asarray(const_vals, np.uint32)
        self.out_rows = np.asarray(out_rows, np.int64)
        self.out_src = np.asarray(out_src, np.int64)
        self.load_rows = np.asarray(load_rows, np.int64)
        self.load_src = np.asarray(load_src, np.int64)

    def materialize(self, out: np.ndarray, loads: np.ndarray,
                    dest: np.ndarray) -> None:
        if self.const_rows.size:
            dest[self.const_rows] = self.const_vals[:, None]
        if self.out_rows.size:
            dest[self.out_rows] = out[self.out_src]
        if self.load_rows.size:
            dest[self.load_rows] = loads[self.load_src]


class _VectorPlan:
    """A program's schedule, compiled for whole-batch vector replay."""

    __slots__ = (
        "cycles", "n_loads", "w0", "window_words", "data_rel", "data_image",
        "ops", "checks", "marker_syms",
        "out_fill_rows", "out_fill_vals",
        "st_gather", "na_gather", "nb_gather", "nst_gather",
        "wbv_gather", "bytes_per_trace",
    )


def _enc(sym: tuple[int, int]):
    """Pre-wrap an operand symbol for the runtime loop (consts become
    NumPy scalars so the elementwise ops never re-box them)."""
    tag, value = sym
    if tag == _CONST:
        return (_CONST, np.uint32(value & _WORD_MASK))
    return (tag, value)


def _compile_plan(program: Program, bound: _BoundSchedule) -> _VectorPlan:
    schedule = bound.schedule
    n_cycles = schedule.cycles
    if n_cycles == 0:
        raise VectorUnsupported("empty schedule")

    # ---- symbolic data-path sweep --------------------------------------
    regs_sym: list[tuple[int, int]] = [_ZERO] * 32
    wb_sym = memalu_sym = memstore_sym = _ZERO
    idexa_sym = idexb_sym = idexst_sym = _ZERO

    out_syms: list[tuple[int, int]] = []
    st_syms: list[tuple[int, int]] = []
    na_syms: list[tuple[int, int]] = []
    nb_syms: list[tuple[int, int]] = []
    nst_syms: list[tuple[int, int]] = []
    wbv_syms: list[tuple[int, int]] = []
    raw_ops: list[tuple] = []
    checks: list[tuple] = []
    marker_syms: list[tuple] = []
    const_addrs: list[tuple[int, int]] = []
    n_loads = 0

    records = bound.fast
    for c, slot in enumerate(schedule.steps):
        (wb_wr, mem_kind, alu_fn, a_sel, b_sel, st_sel, ex_link, ctl,
         dec_live, a_reg, a_const, b_reg, b_const, st_reg) = records[slot]
        # ---- WB ----
        if wb_wr >= 0:
            regs_sym[wb_wr] = wb_sym
        # ---- MEM ----
        new_wb = memalu_sym
        if mem_kind:
            addr_sym = memalu_sym
            if mem_kind == _MEM_LW or mem_kind == _MEM_LBU \
                    or mem_kind == _MEM_LB:
                raw_ops.append(("load", mem_kind, addr_sym, n_loads))
                if addr_sym[0] == _CONST:
                    const_addrs.append((addr_sym[1], mem_kind))
                new_wb = (_LOAD, n_loads)
                n_loads += 1
            elif addr_sym[0] == _CONST and addr_sym[1] == MARKER_ADDR:
                marker_syms.append((c, memstore_sym))
            else:
                raw_ops.append(("store", mem_kind, addr_sym, memstore_sym))
                if addr_sym[0] == _CONST:
                    const_addrs.append((addr_sym[1], mem_kind))
        # ---- EX (forwarding pre-resolved) ----
        a_sym = idexa_sym if a_sel == 0 else (memalu_sym if a_sel == 1
                                              else wb_sym)
        b_sym = idexb_sym if b_sel == 0 else (memalu_sym if b_sel == 1
                                              else wb_sym)
        stv_sym = idexst_sym if st_sel == 0 else (memalu_sym if st_sel == 1
                                                  else wb_sym)
        if ex_link >= 0:
            out_sym = (_CONST, ex_link)
        elif alu_fn is None:
            out_sym = _ZERO
        elif a_sym[0] == _CONST and b_sym[0] == _CONST:
            out_sym = (_CONST, alu_fn(a_sym[1], b_sym[1]))
        else:
            out_sym = (_OUT, c)
            raw_ops.append(("alu", c, alu_fn, a_sym, b_sym))
        if ctl is not None:
            taken_fn, expected = ctl
            if taken_fn is not None:
                if a_sym[0] == _CONST and b_sym[0] == _CONST:
                    if taken_fn(a_sym[1], b_sym[1]) \
                            != expected:  # pragma: no cover - defensive
                        raise VectorUnsupported(
                            "constant branch disagrees with recording")
                else:
                    checks.append((c, _BR_KINDS[taken_fn], _enc(a_sym),
                                   _enc(b_sym), expected))
            elif a_sym[0] == _CONST:
                if a_sym[1] != expected:  # pragma: no cover - defensive
                    raise VectorUnsupported(
                        "constant jump target disagrees with recording")
            else:
                checks.append((c, _BR_JR, _enc(a_sym), None, expected))
        # ---- ID ----
        if dec_live:
            next_a = regs_sym[a_reg] if a_reg >= 0 else (_CONST, a_const)
            next_b = regs_sym[b_reg] if b_reg >= 0 else (_CONST, b_const)
            next_st = regs_sym[st_reg] if st_reg >= 0 else _ZERO
        else:
            next_a = next_b = next_st = _ZERO
        out_syms.append(out_sym)
        st_syms.append(stv_sym)
        na_syms.append(next_a)
        nb_syms.append(next_b)
        nst_syms.append(next_st)
        wbv_syms.append(new_wb)
        # ---- state rotation ----
        wb_sym = new_wb
        memalu_sym = out_sym
        memstore_sym = stv_sym
        idexa_sym, idexb_sym, idexst_sym = next_a, next_b, next_st

    # ---- memory window -------------------------------------------------
    lo = program.data_base >> 2
    hi = lo + len(program.data)
    for addr, kind in const_addrs:
        if (kind == _MEM_LW or kind == _MEM_SW) and addr & 3:
            raise VectorUnsupported(
                f"constant unaligned word access at 0x{addr:08x}")
        word = addr >> 2
        lo = min(lo, word)
        hi = max(hi, word + 1)
    lo = max(0, lo - _WINDOW_MARGIN_WORDS)
    hi += _WINDOW_MARGIN_WORDS
    window_words = hi - lo
    if window_words > _MAX_WINDOW_WORDS:
        raise VectorUnsupported(
            f"modeled memory window too large ({window_words} words)")

    # ---- finalize runtime ops ------------------------------------------
    ops: list[tuple] = []
    for raw in raw_ops:
        if raw[0] == "alu":
            _t, c, alu_fn, a_sym, b_sym = raw
            ops.append((_OP_ALU, c, _VALU[alu_fn], _enc(a_sym),
                        _enc(b_sym)))
        elif raw[0] == "load":
            _t, kind, addr_sym, k = raw
            if addr_sym[0] == _CONST:
                rel = (addr_sym[1] >> 2) - lo
                if kind == _MEM_LW:
                    ops.append((_OP_LW_C, rel, k))
                else:
                    shift = (addr_sym[1] & 3) * 8
                    ops.append((_OP_LB_C, rel, shift, kind == _MEM_LB, k))
            elif kind == _MEM_LW:
                ops.append((_OP_LW_V, _enc(addr_sym), k))
            else:
                ops.append((_OP_LB_V, _enc(addr_sym), kind == _MEM_LB, k))
        else:
            _t, kind, addr_sym, val_sym = raw
            if addr_sym[0] == _CONST:
                rel = (addr_sym[1] >> 2) - lo
                if kind == _MEM_SW:
                    ops.append((_OP_SW_C, rel, _enc(val_sym)))
                else:
                    shift = (addr_sym[1] & 3) * 8
                    ops.append((_OP_SB_C, rel, shift, _enc(val_sym)))
            elif kind == _MEM_SW:
                ops.append((_OP_SW_V, _enc(addr_sym), _enc(val_sym)))
            else:
                ops.append((_OP_SB_V, _enc(addr_sym), _enc(val_sym)))

    plan = _VectorPlan()
    plan.cycles = n_cycles
    plan.n_loads = n_loads
    plan.w0 = lo
    plan.window_words = window_words
    plan.data_rel = (program.data_base >> 2) - lo
    plan.data_image = np.asarray([w & _WORD_MASK for w in program.data],
                                 np.uint32)
    plan.ops = ops
    plan.checks = checks
    plan.marker_syms = [(c, _enc(sym)) for c, sym in marker_syms]
    # OUT rows not produced by an op hold schedule constants; filling them
    # in-place turns OUT into the materialized EX-result stream.
    fill_rows = [c for c, sym in enumerate(out_syms) if sym[0] == _CONST]
    plan.out_fill_rows = np.asarray(fill_rows, np.int64)
    plan.out_fill_vals = np.asarray(
        [out_syms[c][1] & _WORD_MASK for c in fill_rows], np.uint32)
    plan.st_gather = _Gather(st_syms)
    plan.na_gather = _Gather(na_syms)
    plan.nb_gather = _Gather(nb_syms)
    plan.nst_gather = _Gather(nst_syms)
    plan.wbv_gather = _Gather(wbv_syms)
    # uint32 state matrices (OUT/ST/NA/NB/NST/WBV + loads + window) plus
    # float64 energy matrices (total; funits, dbus, latches when the
    # batch collects components).
    plan.bytes_per_trace = (window_words * 4 + n_loads * 4
                            + n_cycles * (6 * 4 + 4 * 8))
    return plan


#: ``(program digest, operand_isolation) -> (bound schedule, plan)``.  The
#: bound schedule identity is re-checked on every lookup so a cleared or
#: re-recorded fastpath cache invalidates the plan too.
_PLANS: dict[tuple[str, bool], tuple[_BoundSchedule, _VectorPlan]] = {}


def plan_for(program: Program, bound: _BoundSchedule) -> _VectorPlan:
    key = (program_digest(program), bound.schedule.operand_isolation)
    entry = _PLANS.get(key)
    if entry is not None and entry[0] is bound:
        return entry[1]
    plan = _compile_plan(program, bound)
    _PLANS[key] = (bound, plan)
    return plan


def _clear_caches() -> None:
    """Test hook: forget all compiled vector plans."""
    _PLANS.clear()


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

def _resolve(operand, out: np.ndarray, loads: np.ndarray):
    tag, value = operand
    if tag == _OUT:
        return out[value]
    if tag == _LOAD:
        return loads[value]
    return value


class _BatchRun:
    """Raw results of one vector batch execution.

    ``streams`` is the scorer's ``[STREAMS, cycles + 1, n]`` stream
    array with a zero row 0; :func:`_execute` fills the EX/MEM
    ``alu_out`` stream, the energy pass the other five.
    """

    __slots__ = ("n", "streams", "loads", "marker_values")

    def markers_for(self, t: int) -> tuple[tuple[int, int], ...]:
        return tuple((c, int(v[t]) if isinstance(v, np.ndarray) else int(v))
                     for c, v in self.marker_values)


class _BatchEnergy:
    """Per-cycle, per-trace energy plus exact sequential totals.

    ``totals`` and ``parts`` (the component columns, kept only when a job
    collects components) follow :meth:`~.scoring.EnergyScorer.score`:
    one column for an input-independent component, else one per trace.
    """

    __slots__ = ("total", "totals", "parts")

    def totals_for(self, t: int) -> dict[str, float]:
        return {name: float(total[min(t, total.shape[0] - 1)])
                for name, total in zip(COMPONENTS, self.totals)} \
            | {"noise": 0.0}

    def components_for(self, t: int) -> np.ndarray:
        return np.column_stack([part[:, min(t, part.shape[1] - 1)]
                                for part in self.parts])


def _execute(program: Program, plan: _VectorPlan, n: int,
             inputs_list: list[list[tuple[int, list[int]]]],
             operand_isolation: bool) -> _BatchRun:
    """Run the plan for ``n`` traces; raises :class:`ScheduleDivergence`
    (after marking the program divergent) or :class:`VectorUnsupported`."""
    window = plan.window_words
    w0 = plan.w0
    memmat = np.zeros((n, window), np.uint32)
    if plan.data_image.size:
        memmat[:, plan.data_rel:plan.data_rel + plan.data_image.size] = \
            plan.data_image
    for t, pairs in enumerate(inputs_list):
        for addr, words in pairs:
            if addr & 3:
                raise VectorUnsupported(
                    f"unaligned input write at 0x{addr:08x}")
            rel = (addr >> 2) - w0
            if rel < 0 or rel + len(words) > window:
                raise VectorUnsupported(
                    "input symbol outside modeled memory window")
            memmat[t, rel:rel + len(words)] = np.asarray(
                [w & _WORD_MASK for w in words], np.uint32)

    streams = np.empty((STREAMS, plan.cycles + 1, n), np.uint32)
    streams[:, 0] = 0
    out = streams[STREAM_OUT, 1:]
    loads = np.empty((plan.n_loads, n), np.uint32)
    rows = np.arange(n)
    u3 = np.uint32(3)
    u255 = np.uint32(0xFF)
    sign_fill = np.uint32(0xFFFF_FF00)

    def var_index(addr, word_aligned: bool, is_store: bool) -> np.ndarray:
        wi = (addr >> np.uint32(2)).astype(np.int64)
        wi -= w0
        bad = (wi < 0) | (wi >= window)
        if word_aligned:
            bad |= (addr & u3) != 0
        if is_store:
            bad |= addr == np.uint32(MARKER_ADDR)
        if bad.any():
            raise VectorUnsupported(
                "computed address outside modeled memory window")
        return wi

    for op in plan.ops:
        tag = op[0]
        if tag == _OP_ALU:
            _t, c, fn, a_op, b_op = op
            fn(_resolve(a_op, out, loads), _resolve(b_op, out, loads),
               out[c])
        elif tag == _OP_LW_C:
            loads[op[2]] = memmat[:, op[1]]
        elif tag == _OP_LW_V:
            wi = var_index(_resolve(op[1], out, loads), True, False)
            loads[op[2]] = memmat[rows, wi]
        elif tag == _OP_LB_C:
            _t, rel, shift, signed, k = op
            value = (memmat[:, rel] >> np.uint32(shift)) & u255
            if signed:
                value = np.where((value & np.uint32(0x80)) != 0,
                                 value | sign_fill, value)
            loads[k] = value
        elif tag == _OP_LB_V:
            _t, addr_op, signed, k = op
            addr = _resolve(addr_op, out, loads)
            wi = var_index(addr, False, False)
            shift = (addr & u3) << u3
            value = (memmat[rows, wi] >> shift) & u255
            if signed:
                value = np.where((value & np.uint32(0x80)) != 0,
                                 value | sign_fill, value)
            loads[k] = value
        elif tag == _OP_SW_C:
            memmat[:, op[1]] = _resolve(op[2], out, loads)
        elif tag == _OP_SW_V:
            wi = var_index(_resolve(op[1], out, loads), True, True)
            memmat[rows, wi] = _resolve(op[2], out, loads)
        elif tag == _OP_SB_C:
            _t, rel, shift, val_op = op
            keep = np.uint32(~(0xFF << shift) & _WORD_MASK)
            value = _resolve(val_op, out, loads)
            memmat[:, rel] = (memmat[:, rel] & keep) \
                | ((value & u255) << np.uint32(shift))
        else:  # _OP_SB_V
            _t, addr_op, val_op = op
            addr = _resolve(addr_op, out, loads)
            wi = var_index(addr, False, True)
            shift = (addr & u3) << u3
            value = _resolve(val_op, out, loads)
            memmat[rows, wi] = \
                (memmat[rows, wi] & ~(u255 << shift)) \
                | ((value & u255) << shift)

    if plan.out_fill_rows.size:
        out[plan.out_fill_rows] = plan.out_fill_vals[:, None]

    # ---- branch verification (post-hoc: replay is unconditional, and on
    # mismatch every result above is discarded) -------------------------
    for check in plan.checks:
        c, kind, a_op, b_op, expected = check
        a = _resolve(a_op, out, loads)
        if kind == _BR_JR:
            bad = a != np.uint32(expected)
        else:
            b = _resolve(b_op, out, loads)
            if kind == 0:
                taken = np.equal(a, b)
            elif kind == 1:
                taken = np.not_equal(a, b)
            elif kind == 2:
                taken = _i32(a) <= 0
            elif kind == 3:
                taken = _i32(a) > 0
            elif kind == 4:
                taken = _i32(a) < 0
            else:
                taken = _i32(a) >= 0
            bad = taken != expected
        if np.any(bad):
            mark_divergent(program, operand_isolation)
            raise ScheduleDivergence(c)

    run = _BatchRun()
    run.n = n
    run.streams = streams
    run.loads = loads
    run.marker_values = [(c, _resolve(operand, out, loads))
                         for c, operand in plan.marker_syms]
    return run


# ---------------------------------------------------------------------------
# Energy post-pass
# ---------------------------------------------------------------------------

def _energy_postpass(plan: _VectorPlan, bound: _BoundSchedule, params,
                     run: _BatchRun, components: bool) -> _BatchEnergy:
    """Score the batch with the shared :class:`~.scoring.EnergyScorer`,
    :data:`~.scoring.SCORE_BLOCK` cycles at a time, over the six latched
    value streams materialized as ``[cycles + 1, n]`` matrices."""
    n = run.n
    streams = run.streams
    out = streams[STREAM_OUT, 1:]
    for stream, gather in ((STREAM_NA, plan.na_gather),
                           (STREAM_NB, plan.nb_gather),
                           (STREAM_NST, plan.nst_gather),
                           (STREAM_ST, plan.st_gather),
                           (STREAM_WBV, plan.wbv_gather)):
        gather.materialize(out, run.loads, streams[stream])
    scorer = EnergyScorer(bound, EnergyTracker(params))
    total = np.empty((plan.cycles, n))
    parts = None
    for start in range(0, plan.cycles, SCORE_BLOCK):
        stop = min(start + SCORE_BLOCK, plan.cycles)
        total[start:stop], block_parts = scorer.score(
            start, streams[:, start:stop + 1])
        if components:
            if parts is None:
                parts = [np.empty((plan.cycles, part.shape[1]))
                         for part in block_parts]
            for part, block in zip(parts, block_parts):
                part[start:stop] = block
    energy = _BatchEnergy()
    energy.total = total
    energy.totals = scorer.totals
    energy.parts = parts
    return energy


# ---------------------------------------------------------------------------
# Whole-batch entry point (engine registry `batch` hook)
# ---------------------------------------------------------------------------

def _batch_inputs(program: Program, job) -> Optional[list]:
    """Normalize one job's symbol inputs to ``(address, words)`` pairs;
    ``None`` when a symbol is unknown (scalar path raises canonically)."""
    inputs = dict(job.inputs) if job.inputs else {}
    if job.des_pair is not None:
        from ..programs.workloads import key_words, plaintext_words

        key64, plaintext64 = job.des_pair
        inputs["key"] = key_words(key64)
        if "plaintext" in program.symbols:
            inputs["plaintext"] = plaintext_words(plaintext64)
    pairs = []
    for symbol, words in inputs.items():
        try:
            pairs.append((program.address_of(symbol), list(words)))
        except KeyError:
            return None
    return pairs


def run_job_batch(jobs, program: Program,
                  cache_hit: Optional[bool] = None) -> Optional[list]:
    """Execute a homogeneous batch of SimJobs in one vector pass.

    Returns submission-ordered JobResults, or ``None`` when the batch
    cannot be vector-served (no schedule, divergence, unsupported model,
    working set too large) — the caller then falls back to per-job
    execution, where the registry's fallback chain applies per trace.
    """
    from ..harness.engine import JobResult

    job0 = jobs[0]
    n = len(jobs)
    start = time.perf_counter()
    try:
        bound = bound_schedule_for(program,
                                   operand_isolation=job0.operand_isolation,
                                   max_cycles=job0.max_cycles)
        plan = plan_for(program, bound)
    except ScheduleFallback:
        return None
    if plan.bytes_per_trace * n > _MAX_BATCH_BYTES:
        return None
    inputs_list = []
    for job in jobs:
        pairs = _batch_inputs(program, job)
        if pairs is None:
            return None
        inputs_list.append(pairs)
    try:
        run = _execute(program, plan, n, inputs_list,
                       job0.operand_isolation)
        energy = _energy_postpass(
            plan, bound, job0.params, run,
            any(job.collect_components for job in jobs))
    except ScheduleFallback:
        # Divergence is already marked; the per-job retry will route the
        # whole batch through the scalar engines.
        return None
    schedule = bound.schedule
    sigma = job0.noise_sigma
    results = []
    for t, job in enumerate(jobs):
        trace = energy.total[:, t].copy()
        totals = energy.totals_for(t)
        counts = dict(schedule.counts)
        counts["noise"] = 0
        if sigma > 0:
            draws = EnergyTracker(job0.params, noise_sigma=sigma,
                                  noise_seed=job.noise_seed) \
                .noise_draws(plan.cycles)
            trace += draws
            totals["noise"] = float(running_total(0.0, draws))
            counts["noise"] = plan.cycles
        components = energy.components_for(t) \
            if job.collect_components else None
        results.append(JobResult(
            label=job.label, cycles=plan.cycles, energy=trace,
            markers=run.markers_for(t), totals=totals,
            components=components, cache_hit=cache_hit,
            counts=counts, engine="vector"))
    wall = (time.perf_counter() - start) / n
    for result in results:
        result.wall_time_s = wall
    return results
