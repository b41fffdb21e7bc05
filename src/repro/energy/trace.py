"""Energy-trace container and the paper's trace manipulations.

An :class:`EnergyTrace` wraps a numpy vector of per-cycle energies (pJ) plus
the phase markers the program emitted.  It provides the operations the
paper's figures are built from: differential traces (Figs. 7-11), windowing
to a phase such as "round 1" or "the first key permutation" (Figs. 7-9, 12),
and the every-N-cycles decimation used for plotting (Fig. 6 plots every 10
cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass
class EnergyTrace:
    """Per-cycle energy (pJ) with program phase markers."""

    energy: np.ndarray
    #: (cycle, value) phase markers emitted by the program.
    markers: tuple[tuple[int, int], ...] = ()
    #: Optional per-cycle per-component matrix (cycles x components).
    components: Optional[np.ndarray] = None
    label: str = ""

    @classmethod
    def from_tracker(cls, tracker, markers: Sequence[tuple[int, int]] = (),
                     label: str = "") -> "EnergyTrace":
        components = None
        if len(tracker.component_energy):
            components = np.asarray(tracker.component_energy, dtype=np.float64)
        return cls(energy=np.asarray(tracker.cycle_energy, dtype=np.float64),
                   markers=tuple(markers), components=components, label=label)

    def __len__(self) -> int:
        return int(self.energy.shape[0])

    @property
    def total_pj(self) -> float:
        return float(self.energy.sum())

    @property
    def total_uj(self) -> float:
        return self.total_pj * 1e-6

    # -- phase navigation -------------------------------------------------

    def marker_cycles(self, value: int) -> list[int]:
        """Cycles at which the program emitted marker ``value``."""
        return [cycle for cycle, marker in self.markers if marker == value]

    def phase_bounds(self, start_value: int,
                     end_value: int) -> tuple[int, int]:
        """Cycle span between the first ``start_value`` marker and the first
        ``end_value`` marker after it."""
        starts = self.marker_cycles(start_value)
        if not starts:
            raise ValueError(f"no marker with value {start_value}")
        start = starts[0]
        ends = [c for c in self.marker_cycles(end_value) if c > start]
        if not ends:
            raise ValueError(f"no marker {end_value} after cycle {start}")
        return start, ends[0]

    def window(self, start: int, end: int) -> "EnergyTrace":
        """Slice of the trace covering cycles [start, end)."""
        shifted = tuple((cycle - start, value) for cycle, value in self.markers
                        if start <= cycle < end)
        components = None
        if self.components is not None:
            components = self.components[start:end]
        return EnergyTrace(energy=self.energy[start:end], markers=shifted,
                           components=components, label=self.label)

    def phase(self, start_value: int, end_value: int) -> "EnergyTrace":
        """Window covering one marked program phase."""
        start, end = self.phase_bounds(start_value, end_value)
        return self.window(start, end)

    # -- the paper's trace operations --------------------------------------

    def decimate(self, stride: int = 10) -> np.ndarray:
        """Average consecutive ``stride``-cycle blocks (Fig. 6 plots the
        trace "every 10 cycles")."""
        n = (len(self) // stride) * stride
        if n == 0:
            return np.empty(0)
        return self.energy[:n].reshape(-1, stride).mean(axis=1)

    def diff(self, other: "EnergyTrace") -> np.ndarray:
        """Cycle-aligned differential trace (self - other), the quantity the
        paper plots in Figs. 7-11.  Requires equal length: the pipeline's
        data-independent timing guarantees this for same-program runs."""
        if len(self) != len(other):
            raise ValueError(
                f"traces are not cycle-aligned ({len(self)} vs {len(other)} "
                "cycles); differential traces require identical control flow")
        return self.energy - other.energy
