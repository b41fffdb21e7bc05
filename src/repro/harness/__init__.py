"""Experiment harness: runners, batch engine, registry, and reporting."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".engine": ("CompileCache", "CompileRequest", "JobResult", "SimJob",
                "run_jobs"),
    ".experiments": ("EXPERIMENTS", "ExperimentResult", "KEY_A", "KEY_B_BIT1",
                     "KEY_C", "PAPER_TOTALS_UJ", "PT_A", "PT_B",
                     "run_experiment"),
    ".io": ("load_trace", "save_experiment_json", "save_summary_csv",
            "save_trace"),
    ".profiling": ("component_breakdown", "des_phase_labels", "phase_energy"),
    ".report": ("ascii_table", "sparkline"),
    ".resilience": ("BatchError", "FaultInjected", "JobFailure", "JobTimeout",
                    "require_results"),
    ".runner": ("RunResult", "des_run", "run_with_trace"),
    ".sweeps": ("measure_policies", "sensitivity_sweep"),
})
