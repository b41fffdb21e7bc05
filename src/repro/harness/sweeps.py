"""Parameter sweeps and sensitivity analysis.

The headline claims are reproduced with a calibrated parameter set; a fair
question is whether they are artifacts of that calibration.  The
sensitivity sweep perturbs one technology parameter at a time across a
wide range and re-measures the four-policy comparison: the *ordering*
(none < selective < naive < all) and the sign of the overhead saving must
survive every perturbation, even though the exact ratios move.

Both :func:`measure_policies` and :func:`sensitivity_sweep` run through
:mod:`repro.harness.engine`: the four program variants are described as
:class:`~repro.harness.engine.CompileRequest` jobs, so the compile cache
builds each variant once for the whole sweep instead of once per point,
and ``jobs=N`` fans every ``factor × policy`` simulation across a process
pool with bit-identical results to the serial path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..energy.params import DEFAULT_PARAMS, EnergyParams
from ..masking.policy import MaskingPolicy
from ..programs.des_source import DesProgramSpec
from .engine import CompileRequest, SimJob, run_jobs
from .resilience import require_results

#: Parameters worth perturbing (each scaled by the sweep factors).
SWEEPABLE = ("c_data_bus", "c_latch_bit", "c_alu_node", "c_instr_bus",
             "e_clock_cycle", "e_regfile_port", "e_dummy_load")

#: The Section 4.3 policies as (name, compiler masking, assembly rewrite).
POLICY_VARIANTS = (
    ("none", "none", None),
    ("selective", "selective", None),
    ("all-loads-stores", "none", MaskingPolicy.ALL_LOADS_STORES),
    ("all", "none", MaskingPolicy.ALL),
)


@dataclass
class PolicyMeasurement:
    factor: float
    totals_uj: dict[str, float]

    @property
    def ordering_holds(self) -> bool:
        t = self.totals_uj
        return t["none"] < t["selective"] < t["all-loads-stores"] < t["all"]

    @property
    def overhead_saving(self) -> float:
        t = self.totals_uj
        denominator = t["all"] - t["none"]
        if denominator <= 0:
            return float("nan")
        return 1.0 - (t["selective"] - t["none"]) / denominator


@dataclass
class SweepResult:
    parameter: str
    measurements: list[PolicyMeasurement] = field(default_factory=list)

    @property
    def always_ordered(self) -> bool:
        return all(m.ordering_holds for m in self.measurements)

    def _finite_savings(self) -> list[float]:
        """Overhead savings excluding the NaN a degenerate point returns."""
        return [saving for m in self.measurements
                if not math.isnan(saving := m.overhead_saving)]

    @property
    def min_saving(self) -> float:
        finite = self._finite_savings()
        return min(finite) if finite else float("nan")

    @property
    def max_saving(self) -> float:
        finite = self._finite_savings()
        return max(finite) if finite else float("nan")


def policy_jobs(params: EnergyParams, rounds: int = 2,
                key: int = 0x133457799BBCDFF1,
                plaintext: int = 0x0123456789ABCDEF) -> list[SimJob]:
    """The four policy-comparison simulations as engine jobs."""
    spec = DesProgramSpec(rounds=rounds)
    return [SimJob(program=CompileRequest(spec=spec, masking=masking,
                                          policy=policy),
                   des_pair=(key, plaintext), params=params, label=name)
            for name, masking, policy in POLICY_VARIANTS]


def measure_policies(params: EnergyParams, rounds: int = 2,
                     key: int = 0x133457799BBCDFF1,
                     plaintext: int = 0x0123456789ABCDEF,
                     jobs: int = 1, retries: int = 0,
                     job_timeout: Optional[float] = None,
                     checkpoint: Optional[str] = None) -> dict[str, float]:
    """Total µJ for the four masking policies under given parameters.

    A comparison needs all four totals, so failures retry (``retries``)
    and anything that still fails raises
    :class:`~repro.harness.resilience.BatchError`.
    """
    results = run_jobs(policy_jobs(params, rounds=rounds, key=key,
                                   plaintext=plaintext), jobs=jobs,
                       failure_policy="retry" if retries else "raise",
                       retries=retries, job_timeout=job_timeout,
                       checkpoint=checkpoint)
    return {result.label: result.total_uj
            for result in require_results(results)}


def sensitivity_sweep(parameter: str,
                      factors: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5,
                                                    2.0),
                      base_params: EnergyParams = DEFAULT_PARAMS,
                      rounds: int = 2, jobs: int = 1, retries: int = 0,
                      job_timeout: Optional[float] = None,
                      checkpoint: Optional[str] = None) -> SweepResult:
    """Scale one parameter by each factor and re-measure the policies.

    With ``jobs>1`` every ``factor × policy`` simulation of the sweep is
    one pool job, so the whole sweep parallelizes — not just the four runs
    within a point.  ``checkpoint`` (a directory) stores each completed
    job so an interrupted sweep resumes by recomputing only the
    unfinished jobs, and a sweep over other factors reuses the points it
    shares with this one;
    ``retries``/``job_timeout`` bound worker faults and runaways (see
    :mod:`repro.harness.resilience`).
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}; "
                         f"choose from {SWEEPABLE}")
    batch: list[SimJob] = []
    for factor in factors:
        scaled = base_params.scaled(
            **{parameter: getattr(base_params, parameter) * factor})
        batch.extend(policy_jobs(scaled, rounds=rounds))
    results = require_results(
        run_jobs(batch, jobs=jobs,
                 failure_policy="retry" if retries else "raise",
                 retries=retries, job_timeout=job_timeout,
                 checkpoint=checkpoint))
    width = len(POLICY_VARIANTS)
    result = SweepResult(parameter=parameter)
    for position, factor in enumerate(factors):
        point = results[position * width:(position + 1) * width]
        totals = {job_result.label: job_result.total_uj
                  for job_result in point}
        result.measurements.append(PolicyMeasurement(factor=factor,
                                                     totals_uj=totals))
    return result
