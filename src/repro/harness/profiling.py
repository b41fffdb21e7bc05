"""Energy profiling: where do the picojoules go?

Breaks a run's energy down two ways:

* **by program phase**, using the markers the program emitted (the DES
  program marks IP, key permutation, each round, and FP);
* **by datapath component**, using the tracker's per-component totals.

Used by the trace-inspection example and by ablation analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.trace import EnergyTrace
from ..energy.tracker import COMPONENTS
from .runner import RunResult


@dataclass
class PhaseEnergy:
    label: str
    start_cycle: int
    end_cycle: int
    energy_pj: float

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def average_pj(self) -> float:
        return self.energy_pj / self.cycles if self.cycles else 0.0


def phase_energy(trace: EnergyTrace,
                 labels: dict[int, str] | None = None) -> list[PhaseEnergy]:
    """Split a trace at its markers and total the energy of each span.

    ``labels`` optionally maps marker values to phase names; unlabeled
    markers use ``marker=<value>``.  A leading pre-marker span and a
    trailing post-marker span are included when nonempty.

    When two markers land on the **same cycle** (a phase that compiled to
    zero instructions, e.g. a ``rounds=0`` spec emitting round-start and
    FP-start back to back), the earlier marker is emitted as a
    *zero-cycle* phase instead of being silently dropped — every marker
    the program fired appears in the profile, and the energies still sum
    to the trace total.
    """
    markers = sorted(trace.markers)
    phases: list[PhaseEnergy] = []

    def name_for(value: int) -> str:
        if labels and value in labels:
            return labels[value]
        return f"marker={value}"

    boundaries = [(0, "start")] + [(cycle, name_for(value))
                                   for cycle, value in markers] \
        + [(len(trace), "end")]
    for (start, label), (end, _) in zip(boundaries, boundaries[1:]):
        if end > start:
            phases.append(PhaseEnergy(
                label=label, start_cycle=start, end_cycle=end,
                energy_pj=float(trace.energy[start:end].sum())))
        elif label != "start":
            # Zero-length marker span: keep the label, carry no energy.
            phases.append(PhaseEnergy(label=label, start_cycle=start,
                                      end_cycle=start, energy_pj=0.0))
    return phases


def component_breakdown(run: RunResult) -> list[tuple[str, float, float]]:
    """(component, total_pj, fraction) rows from a finished run.

    Includes the injected-noise total as its own row when a noise
    countermeasure was active, so the fractions always sum to one.
    """
    totals = run.tracker.totals
    grand_total = sum(totals.values())
    names = list(COMPONENTS)
    if totals.get("noise"):
        names.append("noise")
    return [(name, totals.get(name, 0.0),
             totals.get(name, 0.0) / grand_total if grand_total else 0.0)
            for name in names]


def des_phase_labels(rounds: int = 16) -> dict[int, str]:
    """Marker labels for the generated DES/AES programs."""
    from ..programs import markers as mk

    labels = {
        mk.M_IP_START: "initial permutation",
        mk.M_IP_END: "(after IP)",
        mk.M_KEYPERM_START: "key permutation",
        mk.M_KEYPERM_END: "(after key perm)",
        mk.M_FP_START: "final permutation",
        mk.M_FP_END: "(after FP)",
    }
    for round_index in range(rounds):
        labels[mk.M_ROUND_BASE + round_index] = f"round {round_index + 1}"
    return labels
