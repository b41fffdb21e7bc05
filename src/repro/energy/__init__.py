"""Transition-sensitive energy modeling (SimplePower-style)."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".circuits": ("CycleEnergy", "PrechargedXorCell"),
    ".models": ("BusModel", "FunctionalUnitModel", "LatchModel"),
    ".params": ("DEFAULT_PARAMS", "EnergyParams", "single_wire_event_energy"),
    ".trace": ("EnergyTrace",),
    ".tracker": ("COMPONENTS", "EnergyTracker"),
})
