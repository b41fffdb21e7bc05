"""Micro-architecture layer: memory, register file, ALU, pipeline, CPU."""

from .alu import alu_execute
from .cpu import CPU, run_to_halt
from .exceptions import CpuError, MemoryError_, SimulationError
from .fastpath import (CycleSchedule, ReplayCPU, ReplayPipeline,
                       ScheduleDivergence, ScheduleFallback,
                       ScheduleUnavailable, record_schedule)
from .interpreter import Interpreter, run_functional
from .memory import Memory
from .pipeline import BUBBLE, Pipeline
from .regfile import RegisterFile

__all__ = [
    "BUBBLE", "CPU", "CpuError", "CycleSchedule", "Memory", "MemoryError_",
    "Pipeline", "Interpreter", "RegisterFile", "ReplayCPU",
    "ReplayPipeline", "ScheduleDivergence", "ScheduleFallback",
    "ScheduleUnavailable", "SimulationError", "alu_execute",
    "record_schedule", "run_functional", "run_to_halt",
]
