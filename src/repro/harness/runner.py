"""Run programs under the energy tracker and capture traces."""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..energy.params import DEFAULT_PARAMS, EnergyParams
from ..energy.trace import EnergyTrace
from ..energy.tracker import EnergyTracker
from ..isa.program import Program
from ..machine import engines, fastpath
from ..machine.cpu import CPU
from ..machine.exceptions import CycleLimitExceeded
from ..programs.workloads import key_words, plaintext_words


class RunResult:
    """A finished simulation: CPU state plus its energy trace."""

    def __init__(self, cpu: CPU, tracker: EnergyTracker, label: str = "",
                 engine: str = "reference"):
        self.cpu = cpu
        self.tracker = tracker
        #: Engine that produced the trace: ``"fast"`` or ``"reference"``,
        #: or ``"fast-fallback"`` when the fast replay declined the run
        #: (recorded schedule diverged or the program fell outside its
        #: model) and the trace was re-run on the reference engine.
        self.engine = engine
        #: Per-run attribution sink (None unless attribution was enabled).
        self.attribution = tracker.attribution
        self.trace = EnergyTrace.from_tracker(tracker,
                                              markers=cpu.pipeline.markers,
                                              label=label)

    @property
    def cycles(self) -> int:
        return self.cpu.cycles

    @property
    def total_uj(self) -> float:
        return self.tracker.total_energy_uj

    @property
    def average_pj(self) -> float:
        return self.tracker.average_energy_pj


def run_with_trace(program: Program,
                   inputs: Optional[dict[str, list[int]]] = None,
                   params: EnergyParams = DEFAULT_PARAMS,
                   collect_components: bool = False,
                   label: str = "",
                   max_cycles: int = 50_000_000,
                   noise_sigma: float = 0.0,
                   noise_seed: int = 0,
                   operand_isolation: bool = True,
                   engine: Optional[str] = None) -> RunResult:
    """Assembled program + symbol inputs -> executed RunResult with trace.

    ``engine`` selects the execution engine
    (:mod:`repro.machine.engines`): ``"fast"`` replays the program's
    recorded cycle schedule (bit-identical output; see
    :mod:`repro.machine.fastpath`), ``"reference"`` steps the five-stage
    pipeline cycle by cycle.  ``None`` resolves ``$REPRO_ENGINE`` and
    defaults to ``"fast"``.  A run whose engine declines it — the
    recorded control path diverges (input-dependent branching) or the
    program falls outside the engine's model — is transparently re-run
    with fresh state on ``reference``; nothing from an abandoned attempt
    leaks into the result, and :attr:`RunResult.engine` is labeled
    ``"fast-fallback"``.  Attribution runs
    (:func:`repro.obs.attribution_enabled`) always use the reference
    engine: they need its per-cycle tracker hooks.

    When the observability sink is enabled (:func:`repro.obs.enabled`),
    the run executes under an ``execute`` span, collects the dynamic
    instruction mix, and publishes pipeline/energy metrics to the current
    registry; with the sink disabled (the default) the simulated path is
    identical to an uninstrumented runner.

    When attribution is enabled (:func:`repro.obs.attribution_enabled`),
    the tracker additionally books every energy increment to its
    (pc, unit, class, secure) provenance key; the per-run sink is
    annotated with the program's debug info and merged into the current
    observability context.
    """
    resolved = engines.resolve(engine)
    if obs.attribution_enabled():
        resolved = "reference"
    run = (program, inputs, params, collect_components, label, max_cycles,
           noise_sigma, noise_seed, operand_isolation)
    if resolved == "reference":
        return _run_with_trace_once(*run, engine="reference")
    try:
        return _run_with_trace_once(*run, engine="fast")
    except fastpath.ScheduleFallback:
        if obs.enabled():
            obs.counter("engine_fallbacks",
                        "runs served by a fallback engine instead of "
                        "the requested one").inc()
    return _run_with_trace_once(*run, engine="reference",
                                engine_label="fast-fallback")


def _run_with_trace_once(program, inputs, params, collect_components,
                         label, max_cycles, noise_sigma, noise_seed,
                         operand_isolation, *,
                         engine: str,
                         engine_label: Optional[str] = None) -> RunResult:
    """One execution attempt on one engine, with fresh tracker/CPU state.

    The engine's factory or ``run`` may raise :class:`~repro.machine
    .fastpath.ScheduleFallback` at any point before completion; the
    abandoned tracker, memory, and attribution sink are discarded
    unmerged, so the caller's retry starts from scratch.  ``engine_label``
    overrides the engine name recorded on the result and the execute span
    (used to tag fallback re-runs with the originally requested engine).
    """
    observing = obs.enabled()
    attribution = obs.AttributionSink() if obs.attribution_enabled() \
        else None
    tracker = EnergyTracker(params, collect_components=collect_components,
                            noise_sigma=noise_sigma, noise_seed=noise_seed,
                            attribution=attribution)
    cpu = engines.build_cpu(engine, program, tracker,
                            operand_isolation=operand_isolation,
                            collect_mix=observing, max_cycles=max_cycles)
    if inputs:
        for symbol, words in inputs.items():
            cpu.write_symbol_words(symbol, words)
    reported = engine_label if engine_label is not None else engine
    with obs.span("execute", label=label, engine=reported):
        try:
            cpu.run(max_cycles=max_cycles)
        except CycleLimitExceeded as overrun:
            # Tag the overrun with the job it belongs to; batch failure
            # records surface the label alongside pc/cycle context.
            overrun.label = label
            raise
    if observing:
        _publish_run_metrics(cpu, tracker)
    if attribution is not None:
        attribution.annotate(program)
        obs.attribution().merge(attribution)
    return RunResult(cpu, tracker, label=label, engine=reported)


def _publish_run_metrics(cpu: CPU, tracker: EnergyTracker) -> None:
    """Post-run metric publication (observability sink enabled only)."""
    registry = obs.registry()
    pipeline = cpu.pipeline
    executed = registry.counter(
        "instructions_executed",
        "retired instructions by opcode and secure bit")
    for (op, secure), count in sorted(pipeline.opcode_mix.items()):
        executed.inc(count, opcode=op, secure=secure)
    registry.counter("instructions_retired",
                     "retired instructions by secure bit") \
        .inc(pipeline.secure_retired, secure=True)
    registry.counter("instructions_retired") \
        .inc(pipeline.retired - pipeline.secure_retired, secure=False)
    registry.counter("stall_cycles", "pipeline stalls by cause") \
        .inc(pipeline.stall_cycles, reason="load_use")
    registry.counter("squashed_instructions",
                     "instructions squashed by cause") \
        .inc(pipeline.squashed_instructions, reason="redirect")
    taken = pipeline.branches_taken
    registry.counter("branches_executed", "branches by outcome") \
        .inc(taken, outcome="taken")
    registry.counter("branches_executed") \
        .inc(pipeline.branches_executed - taken, outcome="not_taken")
    tracker.publish_metrics(registry)


def des_run(program: Program, key64: int, plaintext64: int,
            params: EnergyParams = DEFAULT_PARAMS,
            collect_components: bool = False,
            label: str = "", noise_sigma: float = 0.0,
            noise_seed: int = 0, engine: Optional[str] = None) -> RunResult:
    """Run a DES program image on one (key, plaintext) pair with tracing."""
    inputs = {"key": key_words(key64)}
    if "plaintext" in program.symbols:
        inputs["plaintext"] = plaintext_words(plaintext64)
    return run_with_trace(program, inputs, params=params,
                          collect_components=collect_components, label=label,
                          noise_sigma=noise_sigma, noise_seed=noise_seed,
                          engine=engine)
