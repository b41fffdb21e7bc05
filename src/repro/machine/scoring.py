"""Energy scoring of replayed value streams: one NumPy pass per block.

Both replay engines execute only the data path per cycle and leave six
latched value streams behind: the ID/EX operands ``a``/``b``/``store``,
the EX/MEM ``alu_out``/``store`` and the MEM/WB ``value``.  Everything
else the reference energy hooks see follows from those streams and the
recorded schedule: an EX operand is the *previous* cycle's ID/EX, EX/MEM
or MEM/WB value (its forwarding selector picks which), a load drives the
data bus with the new MEM/WB value and a store with the previous cycle's
EX/MEM store value.  :class:`EnergyScorer` turns a block of those
streams into per-cycle energy, scoring Hamming-distance events with
vectorized ``value & ~prev`` and :func:`popcount`.

The contract is **bit identity** with the reference hook sequence:

* the rising-edge counts are integers, so only the float arithmetic
  needs care; every product is the one the component models form;
* a cycle's total is summed left-associatively in the reference
  ``end_cycle`` order (clock, ibus, regfile, funits, dbus, memport,
  latches, secure), and the latch energy in latch order;
* running totals are sequential ``np.cumsum`` sums (never pairwise)
  that carry in the previous block's total;
* model state (the previous bus, unit and latch values, all-ones after
  a secure cycle) carries across blocks in the tracker's own
  :class:`~repro.energy.models.BusModel`,
  :class:`~repro.energy.models.FunctionalUnitModel` and
  :class:`~repro.energy.models.LatchModel` objects.

The fast engine scores one trace (``n == 1``) a block at a time while
it replays; the vector engine scores ``n`` traces side by side, in the
same blocks, over its whole-run ``[STREAMS, cycles + 1, n]`` stream
array.
"""

from __future__ import annotations

import numpy as np

from ..energy.coupling import CoupledBusModel
from ..energy.tracker import COMPONENTS

_WORD_MASK = 0xFFFF_FFFF
_MASK32 = np.uint32(_WORD_MASK)

#: Cycles scored per pass.  Bounds the scorer's working set (replaying a
#: 16-round DES trace raised peak RSS by 44 MB scored in one pass, by
#: 4.6 MB in 8192-cycle blocks) while keeping NumPy's per-call overhead
#: small against the per-cycle work.
SCORE_BLOCK = 8192

#: Rows of a bound schedule's per-record column matrix
#: (:attr:`repro.machine.fastpath._BoundSchedule.columns`): instruction
#: bus and IF/ID latch events, regfile port uses, memory access
#: (:data:`MEM_LOAD`/:data:`MEM_STORE`) and its secure bit, functional
#: unit and its secure bit, EX operand forwarding selectors (0 = ID/EX
#: latch, 1 = EX/MEM, 2 = MEM/WB), the ID/EX, EX/MEM and MEM/WB secure
#: bits and the 4-bit secure-energy index (bit 3 = WB dummy load).
(COL_IBUS, COL_L0, COL_PORTS, COL_MEM, COL_MEM_SEC, COL_UNIT, COL_EX_SEC,
 COL_A_SEL, COL_B_SEL, COL_S1, COL_S2, COL_S3, COL_SEC) = range(13)
MEM_LOAD, MEM_STORE = 1, 2
#: Functional units, as the tracker's ``ex_stage`` resolves them.
UNIT_NONE, UNIT_ALU, UNIT_XOR, UNIT_SHIFT = range(4)

#: The six latched value streams, in stream-array order: ID/EX ``a``,
#: ``b`` and ``store``, EX/MEM ``alu_out`` and ``store``, MEM/WB
#: ``value``.
STREAM_NA, STREAM_NB, STREAM_NST, STREAM_OUT, STREAM_ST, STREAM_WBV = \
    range(6)
STREAMS = 6
#: Forwarding selector -> the stream an EX operand is read from.
_A_SOURCE = np.array((STREAM_NA, STREAM_OUT, STREAM_WBV))
_B_SOURCE = np.array((STREAM_NB, STREAM_OUT, STREAM_WBV))


# ---------------------------------------------------------------------------
# Bit-twiddling primitives
# ---------------------------------------------------------------------------

def popcount_swar(values: np.ndarray) -> np.ndarray:
    """Set bits per element of a uint32 or uint64 array, as uint8.

    The SWAR reduction :func:`popcount` falls back to on NumPy < 2.0,
    which has no ``np.bitwise_count``.
    """
    if values.dtype == np.uint64:
        v = values.copy()
        v -= (v >> np.uint64(1)) & np.uint64(0x5555555555555555)
        v = (v & np.uint64(0x3333333333333333)) \
            + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333))
        v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
            .astype(np.uint8)
    v = values.astype(np.uint32)
    v -= (v >> np.uint32(1)) & np.uint32(0x55555555)
    v = (v & np.uint32(0x33333333)) \
        + ((v >> np.uint32(2)) & np.uint32(0x33333333))
    v = (v + (v >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return ((v * np.uint32(0x01010101)) >> np.uint32(24)).astype(np.uint8)


#: Set bits per element (uint8): ``np.bitwise_count`` where NumPy has it.
popcount = getattr(np, "bitwise_count", popcount_swar)


def _spread64(v32: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.energy.coupling._spread_bits_32_to_64`."""
    v = v32.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


# ---------------------------------------------------------------------------
# Stream helpers
# ---------------------------------------------------------------------------

def running_total(carry, values: np.ndarray):
    """``carry + values[0] + values[1] + ...`` summed sequentially along
    axis 0, exactly as a per-cycle ``total += value`` loop sums it.

    ``values`` (float64) is borrowed: its first row holds the carried sum
    while the sum runs and is restored after.
    """
    first = values[0].copy()
    values[0] += carry
    total = np.cumsum(values, axis=0)[-1]
    values[0] = first
    return total


def _state(row: np.ndarray):
    """A model state value: an ``int`` for one trace, a row for a batch."""
    return int(row[0]) if row.shape[0] == 1 else row.copy()


def _rising(streams, secure: np.ndarray, carries):
    """Rising-bit counts of latched value streams, summed over streams,
    and each stream's carried-out state.

    Row ``k`` of a stream rises against the state before cycle ``k``:
    its carry for the first row, all-ones after a secure (pre-charged)
    cycle -- no rising edge then -- else the previous row's value.
    """
    events = None
    for values, carry in zip(streams, carries):
        rising = np.empty_like(values)
        rising[0] = carry
        np.invert(rising[0], out=rising[0])
        np.invert(values[:-1], out=rising[1:])
        rising &= values
        if events is None:
            events = popcount(rising)
        else:
            events += popcount(rising)
    events[1:] *= ~secure[:-1, None]
    if secure[-1]:
        return events, [_WORD_MASK] * len(streams)
    return events, [_state(values[-1]) for values in streams]


# ---------------------------------------------------------------------------
# The scorer
# ---------------------------------------------------------------------------

class EnergyScorer:
    """Per-cycle energy of replayed value streams, scored block by block.

    ``bound`` is the program's bound schedule (per-record columns and the
    step index); ``tracker`` supplies the energy parameters and the
    component models that carry state from block to block.  ``totals``
    holds the eight running component totals in :data:`COMPONENTS`
    order, carried in from the tracker's own; each is a length-1 array
    for a component that is the same for every trace, else one entry
    per trace.
    """

    def __init__(self, bound, tracker):
        params = tracker.params
        columns = bound.columns
        self.steps = bound.steps
        self.columns = columns
        self.tracker = tracker
        self.e_clock = params.e_clock_cycle
        # 16-entry secure-energy table, accumulated in the reference hook
        # order: WB dummy load, then the ID/EX, EX/MEM, MEM/WB latches.
        sec_table = []
        for sec_idx in range(16):
            value = 0.0
            if sec_idx & 8:
                value += params.e_dummy_load
            for bit in (4, 2, 1):
                if sec_idx & bit:
                    value += params.e_secure_clock
            sec_table.append(value)
        ibus = columns[COL_IBUS] * tracker.ibus.event_energy
        regfile = columns[COL_PORTS] * params.e_regfile_port
        # Per-record input-independent energy: clock + ibus + regfile
        # (the head of the reference sum), ibus, regfile, memport,
        # secure and the IF/ID latch.
        self.static = np.stack((
            (self.e_clock + ibus) + regfile, ibus, regfile,
            np.where(columns[COL_MEM] != 0, params.e_memory_access, 0.0),
            np.asarray(sec_table)[columns[COL_SEC]],
            columns[COL_L0] * params.event_energy_latch))
        self.totals = [np.array([tracker.totals[name]], np.float64)
                       for name in COMPONENTS]

    def score(self, start: int, streams: np.ndarray):
        """Score ``cycles`` cycles from cycle ``start`` on.

        ``streams`` is ``[STREAMS, cycles + 1, n]`` uint32 (order
        :data:`STREAM_NA` ... :data:`STREAM_WBV`) whose row 0 holds each
        stream's value in the cycle before ``start`` (zero before cycle
        0).  Returns the per-cycle totals ``[cycles, n]`` and the eight
        component columns in :data:`COMPONENTS` order (``[cycles, 1]``
        where the component is input-independent, else
        ``[cycles, n]``), and advances :attr:`totals`.
        """
        tracker = self.tracker
        cycles = streams.shape[1] - 1
        n = streams.shape[2]
        steps = self.steps[start:start + cycles]
        col = self.columns[:, steps]
        base, ibus, regfile, memport, secure, l0 = \
            self.static[:, steps][:, :, None]
        latched = streams[:, 1:]

        # ---- pipeline latches (IF/ID + dual-rail ID/EX, EX/MEM, MEM/WB)
        lat = l0 + self._latch(tracker.latches[1], col[COL_S1],
                               latched[STREAM_NA:STREAM_OUT])
        lat += self._latch(tracker.latches[2], col[COL_S2],
                           latched[STREAM_OUT:STREAM_WBV])
        lat += self._latch(tracker.latches[3], col[COL_S3],
                           latched[STREAM_WBV:])

        # ---- functional units: operands forwarded from the cycle before
        # (stream row ``r``), grouped by unit so each unit's cycles form
        # one contiguous run
        funits = np.zeros((cycles, n))
        rows = np.flatnonzero(col[COL_UNIT])
        if rows.size:
            rows = rows[np.argsort(col[COL_UNIT, rows], kind="stable")]
            a = streams[_A_SOURCE[col[COL_A_SEL, rows]], rows]
            b = streams[_B_SOURCE[col[COL_B_SEL, rows]], rows]
            out = streams[STREAM_OUT, rows + 1]
            sec = col[COL_EX_SEC, rows] != 0
            edges = np.searchsorted(col[COL_UNIT, rows],
                                    (UNIT_ALU, UNIT_XOR, UNIT_SHIFT,
                                     UNIT_SHIFT + 1))
            energy = np.empty((rows.size, n))
            for model, lo, hi in zip(
                    (tracker.alu, tracker.xor_unit, tracker.shifter),
                    edges[:-1], edges[1:]):
                if lo == hi:
                    continue
                run = slice(lo, hi)
                events, (model.prev_a, model.prev_b, model.prev_out) = \
                    _rising((a[run], b[run], out[run]), sec[run],
                            (model.prev_a, model.prev_b, model.prev_out))
                energy[run] = np.where(sec[run, None], model.secure_energy,
                                       events * model.static_event_energy)
            funits[rows] = energy

        # ---- data bus: a load drives the new MEM/WB value, a store the
        # store value latched the cycle before
        dbus = np.zeros((cycles, n))
        rows = np.flatnonzero(col[COL_MEM])
        if rows.size:
            load = col[COL_MEM, rows] == MEM_LOAD
            values = streams[np.where(load, STREAM_WBV, STREAM_ST),
                             rows + load]
            dbus[rows] = self._bus(tracker.dbus, values,
                                   col[COL_MEM_SEC, rows] != 0)

        # ---- total, in the reference end_cycle's addition order
        total = base + funits
        total += dbus
        total += memport
        total += lat
        total += secure

        parts = (np.full((cycles, 1), self.e_clock), ibus, regfile, funits,
                 dbus, memport, lat, secure)
        self.totals = [running_total(carry, part)
                       for carry, part in zip(self.totals, parts)]
        return total, parts

    @staticmethod
    def _latch(model, secure_col, fields):
        """Energy of one dual-rail latch; ``fields`` are its streams."""
        secure = secure_col != 0
        events, model.prev = _rising(fields, secure, model.prev)
        return np.where(secure[:, None], model.secure_energy,
                        events * model.event_energy)

    @staticmethod
    def _bus(model, values: np.ndarray, secure: np.ndarray) -> np.ndarray:
        """Data-bus energy of the memory cycles' bus ``values``: the
        plain :class:`~repro.energy.models.BusModel` or, with coupling,
        :class:`~repro.energy.coupling.CoupledBusModel`."""
        prev = np.empty_like(values)
        prev[0] = model.prev
        prev[1:] = values[:-1]
        prev[1:][secure[:-1]] = _MASK32
        model.prev = _WORD_MASK if secure[-1] else _state(values[-1])
        rising = values & ~prev
        energy = popcount(rising) * model.event_energy
        coupling = 0.0
        if isinstance(model, CoupledBusModel):
            coupling = model.coupling_event_energy
            secure_energy = model.base_secure_energy
        else:
            secure_energy = model.secure_energy
        if coupling:
            width = model.width
            one = np.uint32(1)
            falling = ~values & prev
            mask = np.uint32((1 << (width - 1)) - 1)
            switching = rising | falling
            exactly_one = (switching ^ (switching >> one)) & mask
            opposite = ((rising & (falling >> one))
                        | (falling & (rising >> one))) & mask
            events = popcount(exactly_one) + 2 * popcount(opposite)
            energy = energy + events * coupling
            rails = _spread64(~values) | (_spread64(values) << np.uint64(1))
            mask2 = np.uint64((1 << (2 * width - 1)) - 1)
            secure_events = popcount((rails ^ (rails >> np.uint64(1)))
                                     & mask2)
            secure_energy = model.base_secure_energy \
                + (2 * secure_events) * coupling
        return np.where(secure[:, None], secure_energy, energy)
