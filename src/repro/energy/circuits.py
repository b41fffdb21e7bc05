"""Switch-level model of the pre-charged complementary XOR cell (Fig. 5).

The paper's Figure 5 shows one bit-slice of the secure XOR unit: a dynamic
(pre-charged) XOR gate plus its complementary twin, clocked by ``v``.  During
the pre-charge phase (v = 0) both output nodes are pulled to one; during
evaluation (v = 1) exactly one of the two pull-down networks conducts, so
exactly one node discharges — for *any* input combination.  Energy per cycle
is therefore one node recharge regardless of the data, which is the
data-independence property the architectural model assumes.

In normal (insecure) mode, the complementary half is clock-gated
(``secure · v``): only the true gate evaluates, the output follows the data,
and switching energy depends on the input values — averaging half the secure
constant over random data.

This module exists to *validate* those two claims at the switch level; the
pipeline-facing model in :mod:`repro.energy.models` uses the resulting
per-cycle event counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CycleEnergy:
    """Charge events for one clock cycle of one bit-slice."""

    precharge_events: int
    discharge_events: int

    @property
    def charging_events(self) -> int:
        """Events that draw energy from the supply (node recharges)."""
        return self.precharge_events


class PrechargedXorCell:
    """One dual-rail pre-charged XOR bit-slice.

    State is the pair of dynamic output nodes ``(q, qbar)``.  ``step`` runs
    one full pre-charge/evaluate clock cycle and returns the charge-event
    counts.  When ``secure`` is false, the complementary half is gated: its
    node neither pre-charges nor evaluates (it floats at its last value,
    modeled as holding zero once discharged by the dummy load).
    """

    def __init__(self) -> None:
        self.q = 0
        self.qbar = 0

    def step(self, a: int, b: int, secure: bool) -> CycleEnergy:
        if a not in (0, 1) or b not in (0, 1):
            raise ValueError("inputs must be single bits")
        result = a ^ b
        precharge = 0
        discharge = 0
        if secure:
            # Pre-charge phase: both nodes pulled to 1 (energy per node that
            # was low).
            if not self.q:
                precharge += 1
            if not self.qbar:
                precharge += 1
            self.q = 1
            self.qbar = 1
            # Evaluate: exactly one pull-down network conducts.
            if result:
                self.qbar = 0
            else:
                self.q = 0
            discharge += 1
        else:
            # Normal mode: only the true gate is clocked.
            if not self.q:
                precharge += 1
            self.q = 1
            if not result:
                self.q = 0
                discharge += 1
            # Complementary node is gated off; it stays wherever it is and
            # neither charges nor discharges.
        return CycleEnergy(precharge_events=precharge,
                           discharge_events=discharge)
