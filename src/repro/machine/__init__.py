"""Micro-architecture layer: memory, register file, ALU, pipeline, CPU."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".alu": ("alu_execute",),
    ".cpu": ("CPU", "run_to_halt"),
    ".exceptions": ("CpuError", "MemoryError_", "SimulationError"),
    ".fastpath": ("CycleSchedule", "ReplayCPU", "ReplayPipeline",
                  "ScheduleDivergence", "ScheduleFallback",
                  "ScheduleUnavailable", "record_schedule"),
    ".interpreter": ("Interpreter", "run_functional"),
    ".memory": ("Memory",),
    ".pipeline": ("BUBBLE", "Pipeline"),
    ".regfile": ("RegisterFile",),
})
