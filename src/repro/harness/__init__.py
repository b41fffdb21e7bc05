"""Experiment harness: runners, batch engine, registry, and reporting."""

from .engine import (CompileCache, CompileRequest, JobResult, SimJob,
                     run_jobs)
from .experiments import (EXPERIMENTS, ExperimentResult, KEY_A, KEY_B_BIT1,
                          KEY_C, PAPER_TOTALS_UJ, PT_A, PT_B, run_experiment)
from .io import (load_trace, save_experiment_json, save_summary_csv,
                 save_trace)
from .profiling import component_breakdown, des_phase_labels, phase_energy
from .report import ascii_table, sparkline
from .resilience import (BatchError, FaultInjected, JobFailure, JobTimeout,
                         require_results)
from .sweeps import measure_policies, sensitivity_sweep
from .runner import RunResult, des_run, run_with_trace

__all__ = [
    "BatchError", "CompileCache", "CompileRequest",
    "EXPERIMENTS",
    "ExperimentResult", "FaultInjected", "JobFailure", "JobResult",
    "JobTimeout", "KEY_A", "KEY_B_BIT1", "KEY_C",
    "PAPER_TOTALS_UJ", "PT_A", "PT_B", "RunResult", "SimJob", "ascii_table",
    "component_breakdown", "des_phase_labels", "des_run",
    "load_trace",
    "measure_policies", "phase_energy",
    "require_results", "run_jobs",
    "sensitivity_sweep",
    "run_experiment", "run_with_trace", "save_experiment_json",
    "save_summary_csv", "save_trace", "sparkline",
]
