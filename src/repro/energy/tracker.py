"""Cycle-accurate energy accounting, SimplePower-style.

The pipeline drives one :class:`EnergyTracker` through a fixed sequence of
hook calls each cycle (fetch, regfile, EX, MEM, latches, WB); the tracker
maps the reported values onto transition-sensitive component models and
records the per-cycle energy in picojoules.

Component breakdown keys: ``clock``, ``ibus``, ``regfile``, ``funits``,
``dbus``, ``memport``, ``latches``, ``secure``.

Besides the energy totals the tracker keeps per-component **event counts**
(:attr:`EnergyTracker.counts`) so rates (pJ/event, events/cycle) are
computable, and supports two opt-in sinks:

* ``attribution`` — an :class:`~repro.obs.attribution.AttributionSink`
  that books every increment to its (pc, unit, instruction class,
  secure-mode) provenance key;
* ``stream`` — a bounded-memory per-cycle trace writer
  (:class:`~repro.harness.io.StreamingTraceWriter`) fed from
  :meth:`end_cycle`; combined with ``keep_trace=False`` a million-cycle
  run never holds its trace in RAM.

Both sinks are off by default and, when off, the energy math executes the
exact same arithmetic as before they existed — traces stay bit-identical.
"""

from __future__ import annotations

from ..isa.instructions import AluOp, Instruction
from .models import BusModel, FunctionalUnitModel, LatchModel
from .params import DEFAULT_PARAMS, EnergyParams

#: Stable ordering of the component breakdown.
COMPONENTS = ("clock", "ibus", "regfile", "funits", "dbus", "memport",
              "latches", "secure")

_SHIFT_OPS = (AluOp.SLL, AluOp.SRL, AluOp.SRA)
#: Gaussian noise is drawn in chunks of this many samples.
_NOISE_CHUNK = 4096


class EnergyTracker:
    """Accumulates per-cycle energy from pipeline activity reports.

    ``noise_sigma``/``noise_seed`` model the randomized-power countermeasure
    the paper's Section 1 discusses (dummy modules activated at random
    intervals skewing the power profile): zero-mean Gaussian energy added
    per cycle.  The paper's point — and the DPA experiments here confirm
    it — is that averaging over traces filters such noise out, whereas
    masking removes the signal itself.

    Accounting invariant: injected noise is booked under its own
    ``"noise"`` key in :attr:`totals`, so ``sum(totals.values())`` — and
    therefore :attr:`total_energy_pj` — always equals
    ``sum(cycle_energy)``, with or without noise.  The per-cycle
    ``component_energy`` matrix covers only the physical
    :data:`COMPONENTS`; the noise term is not a datapath component and
    appears only in the per-cycle total and the ``"noise"`` running total.

    The hook signatures accept optional trailing ``ins``/``pc`` context
    (supplied by the pipeline) that feeds only the attribution sink; the
    energy models never see it, so an attribution-enabled run produces the
    same trace as a plain one.
    """

    def __init__(self, params: EnergyParams = DEFAULT_PARAMS,
                 collect_components: bool = False,
                 noise_sigma: float = 0.0, noise_seed: int = 0,
                 attribution=None, stream=None, keep_trace: bool = True):
        self.params = params
        self.collect_components = collect_components
        self.noise_sigma = noise_sigma
        self._noise_rng = None
        self._noise_buffer = None
        self._noise_index = 0
        if noise_sigma > 0:
            import numpy as np

            self._noise_rng = np.random.default_rng(noise_seed)
            self._noise_buffer = self._noise_rng.normal(
                0.0, noise_sigma, size=_NOISE_CHUNK)

        #: Optional provenance sink; every energy increment is mirrored to
        #: :meth:`AttributionSink.book_ins`/``book_overhead`` when set.
        self.attribution = attribution
        #: Optional per-cycle trace sink (write_cycle(index, total, comps)).
        self.stream = stream
        #: Keep the in-memory per-cycle list (disable for streamed runs).
        self.keep_trace = keep_trace

        self.ibus = BusModel(params.event_energy_instr_bus, params.width)
        if params.c_coupling > 0:
            from .coupling import CoupledBusModel

            self.dbus = CoupledBusModel(params.event_energy_data_bus,
                                        params.event_energy_coupling,
                                        params.width)
        else:
            self.dbus = BusModel(params.event_energy_data_bus, params.width)
        self.alu = FunctionalUnitModel(params.event_energy_alu,
                                       1.5 * params.event_energy_alu,
                                       params.width)
        self.xor_unit = FunctionalUnitModel(params.event_energy_xor_static,
                                            params.event_energy_xor,
                                            params.width)
        self.shifter = FunctionalUnitModel(params.event_energy_shift,
                                           1.5 * params.event_energy_shift,
                                           params.width)
        # Field counts follow the pipeline's latch() calls: IF/ID carries the
        # instruction word; ID/EX the two operands plus store data; EX/MEM
        # result + store data; MEM/WB the write-back value.
        self.latches = (
            LatchModel(params.event_energy_latch, 1, params.width),
            LatchModel(params.event_energy_latch, 3, params.width),
            LatchModel(params.event_energy_latch, 2, params.width),
            LatchModel(params.event_energy_latch, 1, params.width),
        )

        #: Per-cycle total energy (pJ); empty when ``keep_trace=False``.
        #: A list when the hooks fill it, an array after a replay.
        self.cycle_energy: list[float] = []
        #: Per-cycle per-component energy; filled when collect_components
        #: (rows of a ``[cycles, components]`` array after a replay).
        self.component_energy: list[tuple[float, ...]] = []
        #: Running totals per component, plus the injected "noise" term.
        self.totals: dict[str, float] = {name: 0.0 for name in COMPONENTS}
        self.totals["noise"] = 0.0
        #: Per-component **event counts** (accesses/operations, not pJ):
        #: clock ticks, active fetches, regfile port uses, functional-unit
        #: operations, data-bus/memory-port accesses, latch commits,
        #: secure-mode events, and injected noise samples.
        self.counts: dict[str, int] = {name: 0 for name in COMPONENTS}
        self.counts["noise"] = 0

        self._cur = dict.fromkeys(COMPONENTS, 0.0)
        self._cycle_count = 0

    # -- pipeline hook interface ----------------------------------------

    def begin_cycle(self) -> None:
        cur = self._cur
        for name in COMPONENTS:
            cur[name] = 0.0
        cur["clock"] = self.params.e_clock_cycle
        self.counts["clock"] += 1
        if self.attribution is not None:
            self.attribution.book_overhead("clock", self.params.e_clock_cycle)

    def fetch(self, iword: int, active: bool, ins: Instruction = None,
              pc: int = -1) -> None:
        if active:
            energy = self.ibus.transfer(iword & 0xFFFF_FFFF, secure=False)
            self._cur["ibus"] += energy
            self.counts["ibus"] += 1
            if self.attribution is not None and ins is not None:
                self.attribution.book_ins(pc, "ibus", ins, energy)

    def regfile_access(self, reads: int, writes: int,
                       read_ins: Instruction = None, read_pc: int = -1,
                       write_ins: Instruction = None,
                       write_pc: int = -1) -> None:
        port = self.params.e_regfile_port
        self._cur["regfile"] += (reads + writes) * port
        self.counts["regfile"] += reads + writes
        if self.attribution is not None:
            if reads and read_ins is not None:
                self.attribution.book_ins(read_pc, "regfile", read_ins,
                                          reads * port)
            if writes and write_ins is not None:
                self.attribution.book_ins(write_pc, "regfile", write_ins,
                                          writes * port)

    def ex_stage(self, ins: Instruction, a: int, b: int, out: int,
                 pc: int = -1) -> None:
        spec = ins.spec
        alu_op = spec.alu
        if alu_op is AluOp.NONE:
            return
        # Secure loads/stores do NOT mask the address calculation (the paper:
        # "revealing the address of data is not considered a problem" and
        # "our current secure load operation does not mask the energy
        # difference due to differences in the offset") — except for the
        # secure-indexed load, whose whole point is masking the S-box index.
        if spec.is_load or spec.is_store:
            secure = ins.secure and spec.is_indexing
            energy = self.alu.execute(a, b, out, secure)
        elif alu_op is AluOp.XOR:
            energy = self.xor_unit.execute(a, b, out, ins.secure)
        elif alu_op in _SHIFT_OPS:
            energy = self.shifter.execute(a, b, out, ins.secure)
        else:
            energy = self.alu.execute(a, b, out, ins.secure)
        self._cur["funits"] += energy
        self.counts["funits"] += 1
        if self.attribution is not None:
            self.attribution.book_ins(pc, "funits", ins, energy)

    def mem_stage(self, ins: Instruction, bus_value: int,
                  active: bool, pc: int = -1) -> None:
        if not active:
            return
        port_energy = self.params.e_memory_access
        bus_energy = self.dbus.transfer(bus_value, ins.secure)
        self._cur["memport"] += port_energy
        self._cur["dbus"] += bus_energy
        self.counts["memport"] += 1
        self.counts["dbus"] += 1
        if self.attribution is not None:
            self.attribution.book_ins(pc, "memport", ins, port_energy)
            self.attribution.book_ins(pc, "dbus", ins, bus_energy)

    def latch(self, stage: int, values: tuple[int, ...],
              secure: bool, ins: Instruction = None, pc: int = -1) -> None:
        # The IF/ID latch holds the instruction word, which is code-dependent
        # but never operand-dependent; it has no dual-rail mode.
        if stage == 0:
            secure = False
        energy = self.latches[stage].latch(values, secure)
        self._cur["latches"] += energy
        self.counts["latches"] += 1
        attribution = self.attribution
        if attribution is not None and ins is not None:
            attribution.book_ins(pc, "latches", ins, energy)
        if secure:
            self._cur["secure"] += self.params.e_secure_clock
            self.counts["secure"] += 1
            if attribution is not None and ins is not None:
                attribution.book_ins(pc, "secure", ins,
                                     self.params.e_secure_clock)

    def wb_stage(self, ins: Instruction, value: int, pc: int = -1) -> None:
        if ins.secure:
            # Complementary rails terminate into the dummy capacitive load.
            self._cur["secure"] += self.params.e_dummy_load
            self.counts["secure"] += 1
            if self.attribution is not None:
                self.attribution.book_ins(pc, "secure", ins,
                                          self.params.e_dummy_load)

    def end_cycle(self) -> None:
        cur = self._cur
        total = 0.0
        for name in COMPONENTS:
            value = cur[name]
            total += value
            self.totals[name] += value
        if self._noise_buffer is not None:
            noise = self._next_noise()
            total += noise
            self.totals["noise"] += noise
            self.counts["noise"] += 1
            if self.attribution is not None:
                self.attribution.book_overhead("noise", noise)
        index = self._cycle_count
        self._cycle_count = index + 1
        if self.keep_trace:
            self.cycle_energy.append(total)
        if self.collect_components:
            self.component_energy.append(tuple(cur[name]
                                               for name in COMPONENTS))
        if self.stream is not None:
            self.stream.write_cycle(
                index, total,
                self.component_energy[-1] if self.collect_components
                else None)

    def _next_noise(self) -> float:
        """Next Gaussian noise draw; the buffered stream depends only on
        ``noise_seed`` and draw order, never on who consumes it."""
        buffer = self._noise_buffer
        if self._noise_index >= buffer.shape[0]:
            buffer = self._noise_rng.normal(0.0, self.noise_sigma,
                                            size=_NOISE_CHUNK)
            self._noise_buffer = buffer
            self._noise_index = 0
        noise = float(buffer[self._noise_index])
        self._noise_index += 1
        return noise

    def noise_draws(self, count: int):
        """The next ``count`` noise draws as one array: the values
        ``count`` calls of :meth:`_next_noise` return, in order."""
        import numpy as np

        parts = []
        while count > 0:
            if self._noise_index >= self._noise_buffer.shape[0]:
                self._noise_buffer = self._noise_rng.normal(
                    0.0, self.noise_sigma, size=_NOISE_CHUNK)
                self._noise_index = 0
            index = self._noise_index
            take = min(count, self._noise_buffer.shape[0] - index)
            parts.append(self._noise_buffer[index:index + take])
            self._noise_index = index + take
            count -= take
        return np.concatenate(parts) if parts else np.zeros(0)

    # -- schedule-replay fast path ----------------------------------------

    def commit_fastpath(self, cycle_energy, component_energy,
                        totals: dict[str, float], counts: dict[str, int],
                        cycles: int) -> None:
        """Adopt the results of a schedule-replay run in one shot.

        The replay (:mod:`repro.machine.fastpath`, scored by
        :mod:`repro.machine.scoring`) performs the same floating-point
        accumulations as the per-cycle hooks, in the same order, against
        this tracker's own component models and carrying in its running
        totals — this method only installs the finished arrays and
        totals.  Attribution and streaming runs never come through here;
        they run the standard hook sequence on the reference engine.
        """
        if self.keep_trace:
            self.cycle_energy = cycle_energy
        if self.collect_components:
            self.component_energy = component_energy
        self.totals.update(totals)
        for name, value in counts.items():
            self.counts[name] += value
        self._cycle_count += cycles

    # -- results ----------------------------------------------------------

    def publish_metrics(self, registry) -> None:
        """Publish per-component totals into an observability registry.

        Gauges ``energy_component_pj{component=...}`` (including the
        injected ``noise`` term when active) plus ``energy_total_pj`` and
        ``cycles_simulated``, and counters
        ``energy_component_events{component=...}`` / ``cycles`` so rates
        stay computable after aggregation (counter merges add, keeping the
        snapshot merge associative); called by the harness runner once per
        run when the observability sink is enabled, never from the
        per-cycle path.
        """
        component_gauge = registry.gauge(
            "energy_component_pj",
            "per-component energy total of the run (pJ)")
        event_counter = registry.counter(
            "energy_component_events",
            "per-component event count of the run (accesses/operations)")
        for name in COMPONENTS:
            component_gauge.add(self.totals[name], component=name)
            event_counter.inc(self.counts[name], component=name)
        if self.totals.get("noise"):
            component_gauge.add(self.totals["noise"], component="noise")
            event_counter.inc(self.counts["noise"], component="noise")
        registry.gauge("energy_total_pj",
                       "total energy of the run (pJ)") \
            .add(self.total_energy_pj)
        registry.gauge("cycles_simulated",
                       "simulated cycles").add(self.cycles)
        registry.counter("cycles", "simulated cycles (summable)") \
            .inc(self.cycles)

    @property
    def total_energy_pj(self) -> float:
        return sum(self.totals.values())

    @property
    def total_energy_uj(self) -> float:
        return self.total_energy_pj * 1e-6

    @property
    def cycles(self) -> int:
        return self._cycle_count

    @property
    def average_energy_pj(self) -> float:
        if not self._cycle_count:
            return 0.0
        return self.total_energy_pj / self._cycle_count
