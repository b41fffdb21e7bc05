"""Experiment registry: one entry per table/figure of the paper.

Each experiment function runs the relevant workloads on the simulator and
returns an :class:`ExperimentResult` whose ``summary`` carries the scalar
observables the paper reports (and that the benchmark suite asserts on) and
whose ``series`` carries the per-cycle data behind the corresponding figure.

Fixed test inputs: the classic FIPS-era test vector key/plaintext, plus
derived variants (the paper's Fig. 7 uses two keys differing in bit 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..attacks.cpa import cpa_attack
from ..attacks.dpa import (TraceSet, collect_traces, dpa_attack,
                           dpa_attack_multibit, random_plaintexts)
from ..attacks.spa import analyze as spa_analyze
from ..energy.params import DEFAULT_PARAMS, EnergyParams
from ..energy.models import FunctionalUnitModel
from ..energy.circuits import PrechargedXorCell
from ..obs.leakage import LeakageReport, assess_pair
from ..programs import markers as mk
from ..programs.des_source import DesProgramSpec
from ..programs.workloads import compile_des
from .engine import run_jobs
from .runner import RunResult, des_run

KEY_A = 0x133457799BBCDFF1
#: KEY_A with key bit 1 (FIPS MSB-first numbering) flipped — Fig. 7's pair.
KEY_B_BIT1 = KEY_A ^ (1 << 63)
#: An unrelated second key — Figs. 8/9's pair.
KEY_C = 0x0E329232EA6D0D73
PT_A = 0x0123456789ABCDEF
#: A second plaintext — Figs. 10/11's pair.
PT_B = 0x4E6F772069732074


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    summary: dict[str, float | int | str | bool]
    series: dict[str, np.ndarray] = field(default_factory=dict)
    rows: list[tuple] = field(default_factory=list)
    notes: str = ""
    #: Per-region leakage-budget verdicts for the differential
    #: experiments (kept out of ``summary`` so existing manifests and
    #: benchmark assertions are unchanged).
    leakage: Optional[LeakageReport] = None


def _secure_region(run: RunResult) -> tuple[int, int]:
    """Everything from the first key use (PC-1) to the final permutation."""
    start = run.trace.marker_cycles(mk.M_KEYPERM_START)[0]
    fp = run.trace.marker_cycles(mk.M_FP_START)
    end = fp[0] if fp else len(run.trace)
    return start, end


def _subcheckpoint(checkpoint: Optional[str], tag: str) -> Optional[str]:
    """Derive a per-batch journal path for a multi-batch experiment.

    A checkpoint journal is keyed by one batch's content digest, so an
    experiment that runs several distinct batches (two trace collections,
    one sweep per parameter) gives each its own ``<path>.<tag>`` file.
    """
    return f"{checkpoint}.{tag}" if checkpoint else None


# ---------------------------------------------------------------------------
# Fig. 6 — energy trace of the whole encryption reveals the 16 rounds
# ---------------------------------------------------------------------------


def fig06_rounds_trace(params: EnergyParams = DEFAULT_PARAMS
                       ) -> ExperimentResult:
    compiled = compile_des(masking="none")
    run = des_run(compiled.program, KEY_A, PT_A, params=params)
    spa = spa_analyze(run.trace.energy, min_period=2000, max_period=30000)
    true_starts = [c for c, v in run.trace.markers
                   if mk.M_ROUND_BASE <= v < mk.M_ROUND_BASE + 16]
    return ExperimentResult(
        experiment_id="fig6",
        title="Energy consumption trace of encryption (every 10 cycles)",
        summary={
            "cycles": run.cycles,
            "total_uj": run.total_uj,
            "average_pj_per_cycle": run.average_pj,
            "spa_detected_rounds": spa.round_count,
            "spa_detected_period": spa.period,
            "true_round_count": len(true_starts),
            "true_round_period": int(np.median(np.diff(true_starts)))
            if len(true_starts) > 1 else 0,
        },
        series={"energy_every_10_cycles": run.trace.decimate(10)},
        notes="SPA (autocorrelation + matched filter) recovers the round "
              "structure from a single trace, as the paper's Fig. 6 shows "
              "visually.")


# ---------------------------------------------------------------------------
# Figs. 7/8/9 — differential traces for two keys
# ---------------------------------------------------------------------------


def _key_differential(masking: str, key_a: int, key_b: int,
                      params: EnergyParams
                      ) -> tuple[RunResult, np.ndarray, LeakageReport]:
    compiled = compile_des(DesProgramSpec(rounds=1), masking=masking)
    run_a = des_run(compiled.program, key_a, PT_A, params=params)
    run_b = des_run(compiled.program, key_b, PT_A, params=params)
    report = assess_pair(run_a.trace, run_b.trace,
                         label=f"keys/{masking}")
    return run_a, run_a.trace.diff(run_b.trace), report


def fig07_key_diff_round1(params: EnergyParams = DEFAULT_PARAMS
                          ) -> ExperimentResult:
    run, diff, leakage = _key_differential("none", KEY_A, KEY_B_BIT1, params)
    start, end = _secure_region(run)
    window = diff[start:end]
    return ExperimentResult(
        experiment_id="fig7",
        title="Differential trace, two keys varying in bit 1 (round 1, "
              "unmasked)",
        summary={
            "max_abs_diff_pj": float(np.abs(window).max()),
            "nonzero_cycles": int(np.count_nonzero(window)),
            "window_cycles": int(window.size),
            "leak_visible": bool(np.abs(window).max() > 0),
        },
        series={"diff": window},
        leakage=leakage,
        notes="A single flipped key bit produces visible per-cycle energy "
              "differences in the unmasked round-1 computation.")


def fig08_key_diff_unmasked(params: EnergyParams = DEFAULT_PARAMS
                            ) -> ExperimentResult:
    run, diff, leakage = _key_differential("none", KEY_A, KEY_C, params)
    start, end = _secure_region(run)
    window = diff[start:end]
    return ExperimentResult(
        experiment_id="fig8",
        title="Differential trace, two keys, before masking (round 1)",
        summary={
            "max_abs_diff_pj": float(np.abs(window).max()),
            "nonzero_cycles": int(np.count_nonzero(window)),
            "window_cycles": int(window.size),
            "leak_visible": bool(np.abs(window).max() > 0),
        },
        series={"diff": window},
        leakage=leakage)


def fig09_key_diff_masked(params: EnergyParams = DEFAULT_PARAMS
                          ) -> ExperimentResult:
    run, diff, leakage = _key_differential("selective", KEY_A, KEY_C, params)
    start, end = _secure_region(run)
    window = diff[start:end]
    return ExperimentResult(
        experiment_id="fig9",
        title="Differential trace, two keys, after masking (round 1)",
        summary={
            "max_abs_diff_pj": float(np.abs(window).max()),
            "nonzero_cycles": int(np.count_nonzero(window)),
            "window_cycles": int(window.size),
            "masked_flat": bool(np.abs(window).max() == 0),
        },
        series={"diff": window},
        leakage=leakage,
        notes="With selective secure instructions the differential trace is "
              "identically zero over every key-dependent operation.")


# ---------------------------------------------------------------------------
# Figs. 10/11 — differential traces for two plaintexts
# ---------------------------------------------------------------------------


def _plaintext_differential(masking: str, params: EnergyParams
                            ) -> tuple[RunResult, np.ndarray, LeakageReport]:
    compiled = compile_des(DesProgramSpec(rounds=1), masking=masking)
    run_a = des_run(compiled.program, KEY_A, PT_A, params=params)
    run_b = des_run(compiled.program, KEY_A, PT_B, params=params)
    report = assess_pair(run_a.trace, run_b.trace,
                         label=f"plaintexts/{masking}")
    return run_a, run_a.trace.diff(run_b.trace), report


def fig10_pt_diff_unmasked(params: EnergyParams = DEFAULT_PARAMS
                           ) -> ExperimentResult:
    run, diff, leakage = _plaintext_differential("none", params)
    ip_start = run.trace.marker_cycles(mk.M_IP_START)[0]
    ip_end = run.trace.marker_cycles(mk.M_IP_END)[0]
    sec_start, sec_end = _secure_region(run)
    return ExperimentResult(
        experiment_id="fig10",
        title="Differential trace, two plaintexts, before masking (round 1)",
        summary={
            "max_abs_diff_ip_pj": float(np.abs(diff[ip_start:ip_end]).max()),
            "max_abs_diff_round_pj":
                float(np.abs(diff[sec_start:sec_end]).max()),
            "round_leak_visible":
                bool(np.abs(diff[sec_start:sec_end]).max() > 0),
        },
        series={"diff": diff},
        leakage=leakage)


def fig11_pt_diff_masked(params: EnergyParams = DEFAULT_PARAMS
                         ) -> ExperimentResult:
    run, diff, leakage = _plaintext_differential("selective", params)
    ip_start = run.trace.marker_cycles(mk.M_IP_START)[0]
    ip_end = run.trace.marker_cycles(mk.M_IP_END)[0]
    sec_start, sec_end = _secure_region(run)
    return ExperimentResult(
        experiment_id="fig11",
        title="Differential trace, two plaintexts, after masking (round 1)",
        summary={
            "max_abs_diff_ip_pj": float(np.abs(diff[ip_start:ip_end]).max()),
            "max_abs_diff_round_pj":
                float(np.abs(diff[sec_start:sec_end]).max()),
            "ip_still_differs": bool(np.abs(diff[ip_start:ip_end]).max() > 0),
            "round_masked_flat":
                bool(np.abs(diff[sec_start:sec_end]).max() == 0),
        },
        series={"diff": diff},
        leakage=leakage,
        notes="The initial permutation is deliberately not secured (no key "
              "involved), so plaintext-dependent differences remain there; "
              "the secured round body is flat.")


# ---------------------------------------------------------------------------
# Fig. 12 — additional energy due to masking during the 1st key permutation
# ---------------------------------------------------------------------------


def fig12_masking_overhead(params: EnergyParams = DEFAULT_PARAMS
                           ) -> ExperimentResult:
    spec = DesProgramSpec(rounds=0, include_ip=False, include_fp=False)
    masked = compile_des(spec, masking="selective")
    unmasked = compile_des(spec, masking="none")
    run_m = des_run(masked.program, KEY_A, PT_A, params=params)
    run_u = des_run(unmasked.program, KEY_A, PT_A, params=params)
    overhead = run_m.trace.diff(run_u.trace)
    start = run_m.trace.marker_cycles(mk.M_KEYPERM_START)[0]
    end = run_m.trace.marker_cycles(mk.M_KEYPERM_END)[0]
    window = overhead[start:end]
    active = window[window > 0]
    return ExperimentResult(
        experiment_id="fig12",
        title="Additional energy consumed by masking during the 1st key "
              "permutation",
        summary={
            "mean_overhead_pj_per_cycle": float(window.mean()),
            "mean_overhead_active_pj": float(active.mean()) if active.size
            else 0.0,
            "active_cycle_fraction": float(active.size / window.size),
            "max_overhead_pj": float(window.max()),
            "min_overhead_pj": float(window.min()),
            "window_cycles": int(window.size),
            "paper_overhead_pj_per_cycle": 45.0,
        },
        series={"overhead": window},
        notes="The paper reports ~45 pJ/cycle of additional energy in the "
              "masked key permutation; overhead is paid even where the "
              "differential profile showed no difference (conservatism). "
              "Our phase-average is lower because the generated code "
              "interleaves more insecure loop bookkeeping per secure op; "
              "on the cycles where secure instructions are in flight the "
              "overhead matches the paper's operating point.")


# ---------------------------------------------------------------------------
# Section 4.3 totals — the four masking policies (tab1)
# ---------------------------------------------------------------------------

PAPER_TOTALS_UJ = {
    "none": 46.4,
    "selective": 52.6,
    "all-loads-stores": 63.6,
    "all": 83.5,
}


def tab1_policy_energy(params: EnergyParams = DEFAULT_PARAMS,
                       rounds: int = 16, jobs: int = 1, retries: int = 0,
                       job_timeout: Optional[float] = None,
                       checkpoint: Optional[str] = None) -> ExperimentResult:
    from .resilience import require_results
    from .sweeps import policy_jobs

    results = require_results(
        run_jobs(policy_jobs(params, rounds=rounds, key=KEY_A,
                             plaintext=PT_A), jobs=jobs,
                 failure_policy="retry" if retries else "raise",
                 retries=retries, job_timeout=job_timeout,
                 checkpoint=checkpoint))
    rows = []
    totals: dict[str, float] = {}
    averages: dict[str, float] = {}
    for run in results:
        name = run.label
        totals[name] = run.total_uj
        averages[name] = run.average_pj
        rows.append((name, f"{run.total_uj:.2f}",
                     f"{run.total_uj / totals['none']:.3f}" if "none" in totals
                     else "1.000",
                     f"{run.average_pj:.1f}",
                     f"{PAPER_TOTALS_UJ[name]:.1f}",
                     f"{PAPER_TOTALS_UJ[name] / PAPER_TOTALS_UJ['none']:.3f}"))
    overhead_saving = 1.0 - ((totals["selective"] - totals["none"])
                             / (totals["all"] - totals["none"]))
    paper_saving = 1.0 - ((PAPER_TOTALS_UJ["selective"]
                           - PAPER_TOTALS_UJ["none"])
                          / (PAPER_TOTALS_UJ["all"] - PAPER_TOTALS_UJ["none"]))
    return ExperimentResult(
        experiment_id="tab1",
        title="Total DES encryption energy under the four masking policies",
        summary={
            "total_none_uj": totals["none"],
            "total_selective_uj": totals["selective"],
            "total_all_loads_stores_uj": totals["all-loads-stores"],
            "total_all_uj": totals["all"],
            "ratio_selective": totals["selective"] / totals["none"],
            "ratio_all_loads_stores":
                totals["all-loads-stores"] / totals["none"],
            "ratio_all": totals["all"] / totals["none"],
            "average_pj_none": averages["none"],
            "overhead_saving_vs_all": overhead_saving,
            "paper_overhead_saving_vs_all": paper_saving,
        },
        rows=rows,
        notes="Absolute µJ differ from the paper by the cycle-count ratio of "
              "our generated DES binary vs. theirs; the policy *ratios* and "
              "the ~83% overhead saving are the reproduced observables.")


# ---------------------------------------------------------------------------
# Section 4.2 — XOR functional unit operating points
# ---------------------------------------------------------------------------


def xor_unit_energy(params: EnergyParams = DEFAULT_PARAMS,
                    samples: int = 4096, seed: int = 7
                    ) -> ExperimentResult:
    unit = FunctionalUnitModel(params.event_energy_xor_static,
                               params.event_energy_xor, params.width)
    rng = np.random.default_rng(seed)
    operands = rng.integers(0, 1 << 32, size=(samples, 2), dtype=np.uint64)
    normal = [unit.execute(int(a), int(b), int(a) ^ int(b), secure=False)
              for a, b in operands]
    unit.reset()
    secure = [unit.execute(int(a), int(b), int(a) ^ int(b), secure=True)
              for a, b in operands]
    cell = PrechargedXorCell()
    cell_events = [cell.step(int(a) & 1, int(b) & 1, secure=True)
                   .charging_events for a, b in operands]
    return ExperimentResult(
        experiment_id="xor-op",
        title="XOR unit energy: normal vs secure (pre-charged complementary)",
        summary={
            "normal_mean_pj": float(np.mean(normal)),
            "normal_std_pj": float(np.std(normal)),
            "secure_mean_pj": float(np.mean(secure)),
            "secure_std_pj": float(np.std(secure)),
            "paper_normal_pj": 0.3,
            "paper_secure_pj": 0.6,
            "cell_constant_after_first_cycle":
                len(set(cell_events[1:])) == 1,
        },
        notes="Secure mode is exactly constant (std 0); normal mode averages "
              "half the secure energy, matching the paper's 0.3 vs 0.6 pJ.")


# ---------------------------------------------------------------------------
# DPA experiment — attack succeeds unmasked, fails masked
# ---------------------------------------------------------------------------


def dpa_experiment(params: EnergyParams = DEFAULT_PARAMS,
                   n_traces: int = 100, box: int = 0,
                   key: int = KEY_A, seed: int = 2003,
                   all_boxes: bool = True, jobs: int = 1, retries: int = 0,
                   job_timeout: Optional[float] = None,
                   checkpoint: Optional[str] = None) -> ExperimentResult:
    spec = DesProgramSpec(rounds=1, include_fp=False)
    plaintexts = random_plaintexts(n_traces, seed=seed)
    outcome: dict[str, float | int | str | bool] = {"n_traces": n_traces,
                                                    "box": box}
    for masking in ("none", "selective"):
        compiled = compile_des(spec, masking=masking)
        scout = des_run(compiled.program, key, plaintexts[0], params=params)
        start = scout.trace.marker_cycles(mk.M_ROUND_BASE)[0]
        traces = collect_traces(compiled.program, key, plaintexts,
                                params=params, window=(start, scout.cycles),
                                jobs=jobs, retries=retries,
                                job_timeout=job_timeout,
                                checkpoint=_subcheckpoint(checkpoint,
                                                          masking))
        single = dpa_attack(traces, box=box, target_bit=0, key=key)
        multi = dpa_attack_multibit(traces, box=box, key=key)
        correlation = cpa_attack(traces, box=box, key=key)
        tag = "unmasked" if masking == "none" else "masked"
        # Peaks below ~1e-6 pJ are float64 round-off from the mean
        # subtraction, not physical signal.
        noise_floor = 1e-6
        outcome[f"{tag}_rank_of_true"] = single.rank_of_true
        outcome[f"{tag}_peak_pj"] = single.scores[0].peak
        outcome[f"{tag}_margin"] = single.margin
        outcome[f"{tag}_multibit_rank_of_true"] = multi.rank_of_true
        outcome[f"{tag}_succeeded"] = (multi.succeeded()
                                       and single.scores[0].peak
                                       > noise_floor)
        outcome[f"{tag}_cpa_rank_of_true"] = correlation.rank_of_true
        outcome[f"{tag}_cpa_peak_rho"] = correlation.scores[0].peak
        outcome[f"{tag}_cpa_succeeded"] = correlation.succeeded()
        if all_boxes and masking == "none":
            # Full K1 recovery: one trace set serves all eight S-boxes
            # (48 of the 56 key bits; the rest fall to a 256-way search).
            recovered = 0
            for target_box in range(8):
                box_result = cpa_attack(traces, box=target_box, key=key)
                if box_result.succeeded():
                    recovered += 1
            outcome["unmasked_boxes_recovered_of_8"] = recovered
    return ExperimentResult(
        experiment_id="dpa",
        title="DPA key recovery: unmasked vs masked round-1 DES",
        summary=outcome,
        notes="Against the masked program every difference-of-means trace "
              "is identically zero in the secured window, so no subkey "
              "guess is distinguished.")


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def ablation_no_slicing(params: EnergyParams = DEFAULT_PARAMS
                        ) -> ExperimentResult:
    """Annotate-only masking (no forward slicing) leaks indirectly."""
    results = {}
    for masking in ("annotate-only", "selective"):
        run, diff, _ = _key_differential(masking, KEY_A, KEY_C, params)
        start, end = _secure_region(run)
        window = diff[start:end]
        results[masking] = (float(np.abs(window).max()),
                            int(np.count_nonzero(window)))
    return ExperimentResult(
        experiment_id="ablation-slice",
        title="Forward slicing ablation: annotate-only vs sliced masking",
        summary={
            "annotate_only_max_abs_diff_pj": results["annotate-only"][0],
            "annotate_only_nonzero_cycles": results["annotate-only"][1],
            "selective_max_abs_diff_pj": results["selective"][0],
            "selective_nonzero_cycles": results["selective"][1],
            "slicing_required": results["annotate-only"][0] > 0
            and results["selective"][0] == 0.0,
        },
        notes="Securing only the operations that directly touch the "
              "annotated key still leaks through derived values (C/D "
              "registers, subkeys, round data) — the paper's argument for "
              "forward slicing.")


def ablation_components(params: EnergyParams = DEFAULT_PARAMS
                        ) -> ExperimentResult:
    """Which datapath components carry the key-dependent leakage."""
    from ..energy.tracker import COMPONENTS
    compiled = compile_des(DesProgramSpec(rounds=1), masking="none")
    run_a = des_run(compiled.program, KEY_A, PT_A, params=params,
                    collect_components=True)
    run_b = des_run(compiled.program, KEY_C, PT_A, params=params,
                    collect_components=True)
    start, end = _secure_region(run_a)
    delta = np.abs(run_a.trace.components[start:end]
                   - run_b.trace.components[start:end])
    totals = delta.sum(axis=0)
    summary: dict[str, float | int | str | bool] = {
        f"leak_{name}_pj": float(total)
        for name, total in zip(COMPONENTS, totals)}
    ranked = sorted(zip(COMPONENTS, totals), key=lambda kv: -kv[1])
    summary["dominant_component"] = ranked[0][0]
    return ExperimentResult(
        experiment_id="ablation-components",
        title="Per-component attribution of key-dependent energy leakage",
        summary=summary,
        notes="The paper: 'the processor datapath and buses exhibit more "
              "data-dependent energy variation as compared to memory "
              "components'.")


def extension_aes(params: EnergyParams = DEFAULT_PARAMS) -> ExperimentResult:
    """Extension: the masking scheme applied to AES-128 (the authors'
    follow-up work generalizes exactly this way).

    Runs full AES-128 unmasked and selectively masked, verifies FIPS-197
    correctness, and checks the masking property plus the energy cost on a
    second cipher.
    """
    from ..aes.reference import encrypt_block as aes_encrypt
    from ..programs.workloads import aes_ciphertext_of, compile_aes, run_aes
    from ..energy.tracker import EnergyTracker

    key_a = 0x000102030405060708090a0b0c0d0e0f
    key_b = key_a ^ (1 << 127)
    plaintext = 0x00112233445566778899aabbccddeeff

    results: dict[str, dict] = {}
    for masking in ("none", "selective"):
        compiled = compile_aes(masking=masking)
        data = {}
        traces = []
        markers = []
        for key in (key_a, key_b):
            tracker = EnergyTracker(params)
            cpu = run_aes(compiled, key, plaintext, tracker=tracker)
            if key == key_a:
                data["correct"] = (aes_ciphertext_of(cpu)
                                   == aes_encrypt(plaintext, key_a))
                data["cycles"] = cpu.cycles
                data["total_uj"] = tracker.total_energy_uj
            traces.append(np.asarray(tracker.cycle_energy))
            markers.append(cpu.pipeline.markers)
        start = next(c for c, v in markers[0] if v == mk.M_KEYPERM_START)
        end = next(c for c, v in markers[0] if v == mk.M_FP_START)
        delta = (traces[0] - traces[1])[start:end]
        data["max_abs_diff_pj"] = float(np.abs(delta).max())
        data["nonzero_cycles"] = int(np.count_nonzero(delta))
        results[masking] = data

    # The inverse cipher under the same scheme.
    from ..aes.reference import decrypt_block as aes_decrypt
    from ..programs.aes_source import AesProgramSpec

    ciphertext = aes_encrypt(plaintext, key_a)
    decryptor = compile_aes(AesProgramSpec(decrypt=True),
                            masking="selective")
    decrypt_cpu = run_aes(decryptor, key_a, ciphertext)
    decrypt_correct = aes_ciphertext_of(decrypt_cpu) == plaintext \
        and aes_decrypt(ciphertext, key_a) == plaintext

    return ExperimentResult(
        experiment_id="ext-aes",
        title="Extension: selective energy masking applied to AES-128",
        summary={
            "fips_correct_unmasked": results["none"]["correct"],
            "fips_correct_masked": results["selective"]["correct"],
            "inverse_cipher_correct_masked": decrypt_correct,
            "cycles": results["none"]["cycles"],
            "total_unmasked_uj": results["none"]["total_uj"],
            "total_masked_uj": results["selective"]["total_uj"],
            "energy_ratio": results["selective"]["total_uj"]
            / results["none"]["total_uj"],
            "unmasked_max_abs_diff_pj": results["none"]["max_abs_diff_pj"],
            "unmasked_nonzero_cycles": results["none"]["nonzero_cycles"],
            "masked_max_abs_diff_pj":
                results["selective"]["max_abs_diff_pj"],
            "masked_nonzero_cycles": results["selective"]["nonzero_cycles"],
        },
        notes="MixColumns is reformulated through an XTIME table so the "
              "cipher has no secret-dependent control flow; S-box and "
              "XTIME lookups use the secure-indexed load.")


def extension_optimizer(params: EnergyParams = DEFAULT_PARAMS
                        ) -> ExperimentResult:
    """Extension: the compiler's -O1/-O2 pipeline on masked DES.

    The paper calls its compiler an optimizing compiler; this experiment
    quantifies what optimization does to the energy/security trade-off:
    folding + immediates (-O1) shrink the binary, list scheduling (-O2)
    removes load-use stalls, and the masking property must hold at every
    level.
    """
    from ..lang.compiler import compile_source
    from ..programs.des_source import des_source

    source = des_source(DesProgramSpec(rounds=16))
    round1 = des_source(DesProgramSpec(rounds=1))
    summary: dict[str, float | int | str | bool] = {}
    baseline_cycles = None
    baseline_uj = None
    for level in (0, 1, 2):
        compiled = compile_source(source, masking="selective",
                                  optimize=level)
        run = des_run(compiled.program, KEY_A, PT_A, params=params)
        if level == 0:
            baseline_cycles = run.cycles
            baseline_uj = run.total_uj
        summary[f"o{level}_static_instructions"] = len(compiled.program.text)
        summary[f"o{level}_cycles"] = run.cycles
        summary[f"o{level}_total_uj"] = run.total_uj
        summary[f"o{level}_cycle_ratio"] = run.cycles / baseline_cycles
        summary[f"o{level}_energy_ratio"] = run.total_uj / baseline_uj
        # Masking property at this level (round-1 differential).
        round1_compiled = compile_source(round1, masking="selective",
                                         optimize=level)
        run_a = des_run(round1_compiled.program, KEY_A, PT_A, params=params)
        run_b = des_run(round1_compiled.program, KEY_C, PT_A, params=params)
        diff = run_a.trace.diff(run_b.trace)
        start = run_a.trace.marker_cycles(mk.M_KEYPERM_START)[0]
        end = run_a.trace.marker_cycles(mk.M_FP_START)[0]
        summary[f"o{level}_masked_max_diff_pj"] = \
            float(np.abs(diff[start:end]).max())
    return ExperimentResult(
        experiment_id="ext-opt",
        title="Extension: compiler optimization levels on masked DES",
        summary=summary,
        notes="-O1 shrinks the binary but its savings land in load-use "
              "interlock slots; -O2's list scheduler converts them into "
              "real cycle and energy savings.  The differential trace "
              "stays identically zero at every level.")


def extension_coupling(params: EnergyParams = DEFAULT_PARAMS,
                       c_coupling: float = 0.2) -> ExperimentResult:
    """Extension: the paper's Section 5 limitation, demonstrated.

    "Power consumption differences will also arise due to signal
    transitions on adjacent lines of on-chip buses.  Current dual-rail
    encoding schemes do not mask the key leakage arising due to these
    differences."  With inter-wire coupling modeled on the data bus, the
    selectively-masked program's key differential is no longer flat.
    """
    compiled = compile_des(DesProgramSpec(rounds=1), masking="selective")
    summary: dict[str, float | int | str | bool] = {
        "c_coupling_pf": c_coupling}
    for label, coupling in (("without_coupling", 0.0),
                            ("with_coupling", c_coupling)):
        run_params = params.scaled(c_coupling=coupling)
        run_a = des_run(compiled.program, KEY_A, PT_A, params=run_params)
        run_b = des_run(compiled.program, KEY_C, PT_A, params=run_params)
        diff = run_a.trace.diff(run_b.trace)
        start, end = _secure_region(run_a)
        window = diff[start:end]
        summary[f"{label}_max_abs_diff_pj"] = float(np.abs(window).max())
        summary[f"{label}_nonzero_cycles"] = int(np.count_nonzero(window))
    summary["masking_defeated_by_coupling"] = \
        summary["without_coupling_max_abs_diff_pj"] == 0.0 \
        and summary["with_coupling_max_abs_diff_pj"] > 0.0
    return ExperimentResult(
        experiment_id="ext-coupling",
        title="Extension: inter-wire coupling defeats dual-rail masking "
              "(paper Section 5)",
        summary=summary,
        notes="Within a dual-rail pair exactly one rail switches per cycle "
              "(data-independent), but whether adjacent rails of "
              "*different* pairs switch together depends on the data — "
              "the residual side channel the paper flags as future work.")


def extension_noise(params: EnergyParams = DEFAULT_PARAMS,
                    noise_sigma: float = 10.0, n_small: int = 20,
                    n_large: int = 250, box: int = 0,
                    key: int = KEY_A, jobs: int = 1, retries: int = 0,
                    job_timeout: Optional[float] = None,
                    checkpoint: Optional[str] = None) -> ExperimentResult:
    """Extension: random power noise vs. masking (paper Section 1).

    The paper: "random noises in power measurements can be filtered
    through the averaging process using a large number of samples.
    However, the use of random noises can increase the number of samples
    to an infeasible number."  We reproduce that trade-off: with Gaussian
    power noise injected, DPA fails at a small trace count but succeeds
    once enough traces average it out — while masking removes the signal
    at *any* trace count.
    """
    spec = DesProgramSpec(rounds=1, include_fp=False)
    plaintexts = random_plaintexts(n_large)
    unmasked = compile_des(spec, masking="none")
    scout = des_run(unmasked.program, key, plaintexts[0], params=params)
    window = (scout.trace.marker_cycles(mk.M_ROUND_BASE)[0], scout.cycles)

    # Noiseless baseline: a handful of traces suffice (CPA with the
    # Hamming-weight model is the strongest attack in this suite, so it
    # sets the fairest baseline for the noise comparison).
    clean = collect_traces(unmasked.program, key, plaintexts[:n_small],
                           params=params, window=window, jobs=jobs,
                           retries=retries, job_timeout=job_timeout,
                           checkpoint=_subcheckpoint(checkpoint, "clean"))
    clean_result = cpa_attack(clean, box=box, key=key)

    # Noisy device: same attack at small and large trace counts.
    noisy = collect_traces(unmasked.program, key, plaintexts, params=params,
                           window=window, noise_sigma=noise_sigma, jobs=jobs,
                           retries=retries, job_timeout=job_timeout,
                           checkpoint=_subcheckpoint(checkpoint, "noisy"))
    small_set = TraceSet(plaintexts=noisy.plaintexts[:n_small],
                         traces=noisy.traces[:n_small], window=noisy.window)
    noisy_small = cpa_attack(small_set, box=box, key=key)
    noisy_large = cpa_attack(noisy, box=box, key=key)

    # Masked device: even a large noiseless set yields nothing.
    masked = compile_des(spec, masking="selective")
    masked_set = collect_traces(masked.program, key, plaintexts[:n_small],
                                params=params, window=window, jobs=jobs,
                                retries=retries, job_timeout=job_timeout,
                                checkpoint=_subcheckpoint(checkpoint,
                                                          "masked"))
    masked_result = cpa_attack(masked_set, box=box, key=key)

    return ExperimentResult(
        experiment_id="ext-noise",
        title="Extension: random-noise countermeasure vs masking under DPA",
        summary={
            "noise_sigma_pj": noise_sigma,
            "clean_traces": n_small,
            "clean_rank_of_true": clean_result.rank_of_true,
            "noisy_small_traces": n_small,
            "noisy_small_rank_of_true": noisy_small.rank_of_true,
            "noisy_large_traces": n_large,
            "noisy_large_rank_of_true": noisy_large.rank_of_true,
            "noisy_large_margin": noisy_large.margin,
            "masked_peak_rho": masked_result.scores[0].peak,
            "masked_defeats_attack":
                masked_result.scores[0].peak < 1e-6,
        },
        notes="Noise only raises the required sample count (20 -> 250 "
              "here); averaging recovers the key.  Masking zeroes the "
              "differential signal itself, which no sample count "
              "overcomes.")


def extension_tvla(params: EnergyParams = DEFAULT_PARAMS,
                   n_traces: int = 16, jobs: int = 1) -> ExperimentResult:
    """Extension: TVLA fixed-vs-random leakage assessment.

    A non-specific evaluation (no key hypothesis, no leakage model): the
    Welch t-test between a fixed-plaintext and a random-plaintext set
    bounds all first-order attacks.  The unmasked DES fails; the masked
    DES scores |t| identically zero across the whole secured region —
    stronger than the conventional 4.5 pass threshold.

    The acquisitions run through the bounded-memory campaign path
    (:func:`streaming_assess_des_program`), so the summary also carries
    the traces-to-disclosure fields; ``jobs`` changes only the wall time.
    """
    from ..attacks.tvla import T_THRESHOLD, streaming_assess_des_program

    spec = DesProgramSpec(rounds=1)
    plaintexts = random_plaintexts(n_traces, seed=42)
    summary: dict[str, float | int | str | bool] = {
        "threshold": T_THRESHOLD, "n_traces_per_set": n_traces}
    series: dict[str, object] = {}
    for masking in ("none", "selective"):
        compiled = compile_des(spec, masking=masking)
        scout = des_run(compiled.program, KEY_A, PT_A, params=params)
        start, end = _secure_region(scout)
        tag = "unmasked" if masking == "none" else "masked"
        campaign = streaming_assess_des_program(
            compiled.program, KEY_A, PT_A, plaintexts, params=params,
            window=(start, end), jobs=jobs)
        result = campaign.result
        summary[f"{tag}_disclosure_traces"] = campaign.disclosure_traces \
            if campaign.disclosure_traces is not None else "never"
        series[f"{tag}_disclosure_curve"] = [
            value if np.isfinite(value) else 0.0
            for value in campaign.curve.values]
        max_t = result.max_abs_t
        summary[f"{tag}_max_abs_t"] = max_t if np.isfinite(max_t) \
            else float("inf")
        summary[f"{tag}_leaky_cycles"] = result.leaky_cycles
        summary[f"{tag}_passes"] = result.passes
    return ExperimentResult(
        experiment_id="ext-tvla",
        title="Extension: TVLA fixed-vs-random assessment of both devices",
        summary=summary,
        series=series,
        notes="The masked device's secured region is constant across "
              "inputs, so the t-statistic is identically zero — leakage "
              "assessment cannot distinguish any pair of inputs.")


def extension_disclosure(params: EnergyParams = DEFAULT_PARAMS,
                         n_traces: int = 48, jobs: int = 1,
                         chunk_size: int = 16) -> ExperimentResult:
    """Extension: traces-to-disclosure under the randomized-power defense.

    The streaming answer to "how long do Figs. 8/9 stay true at attack
    scale?": the same key pair (A vs C) is measured ``n_traces`` times
    per key under Gaussian power noise — calibrated from a scout
    differential so one trace is far below the TVLA threshold — and the
    Welch-t disclosure curve records how the evidence accumulates.  The
    unmasked device discloses after a bounded number of traces (noise
    only delays averaging, as the paper's Section 1 argues); the masked
    device's secured region has a *zero* true differential, so its |t|
    never crosses 4.5 no matter the budget.  Runs in O(1) trace memory
    through :func:`repro.harness.engine.run_stream`.
    """
    from ..attacks.tvla import T_THRESHOLD, streaming_key_differential

    spec = DesProgramSpec(rounds=1)
    summary: dict[str, float | int | str | bool] = {
        "threshold": T_THRESHOLD, "n_traces_per_key": n_traces}
    series: dict[str, object] = {}
    # Calibrate the noise to the unmasked leak: σ = Δ_max/2 puts a
    # single-trace |t| well under threshold but lets ~10 trace pairs
    # average it back out (t ≈ (Δ/σ)·√(n/2)).
    unmasked = compile_des(spec, masking="none")
    scout_a = des_run(unmasked.program, KEY_A, PT_A, params=params)
    scout_b = des_run(unmasked.program, KEY_C, PT_A, params=params)
    start, end = _secure_region(scout_a)
    delta_max = float(np.abs(
        scout_a.trace.diff(scout_b.trace)[start:end]).max())
    noise_sigma = max(delta_max / 2.0, 1e-6)
    summary["scout_max_abs_diff_pj"] = delta_max
    summary["noise_sigma_pj"] = noise_sigma
    for masking in ("none", "selective"):
        compiled = unmasked if masking == "none" \
            else compile_des(spec, masking=masking)
        scout = scout_a if masking == "none" \
            else des_run(compiled.program, KEY_A, PT_A, params=params)
        window = _secure_region(scout)
        campaign = streaming_key_differential(
            compiled.program, KEY_A, KEY_C, PT_A, n_traces, params=params,
            window=window, noise_sigma=noise_sigma, jobs=jobs,
            chunk_size=chunk_size)
        tag = "unmasked" if masking == "none" else "masked"
        disclosed = campaign.disclosure_traces
        summary[f"{tag}_disclosure_traces"] = disclosed \
            if disclosed is not None else "never"
        summary[f"{tag}_discloses"] = disclosed is not None
        summary[f"{tag}_final_max_abs_t"] = campaign.curve.final_value
        summary[f"{tag}_traces_consumed"] = campaign.traces_consumed
        series[f"{tag}_disclosure_curve"] = list(campaign.curve.values)
        series[f"{tag}_disclosure_checkpoints"] = [
            float(c) for c in campaign.curve.checkpoints]
    return ExperimentResult(
        experiment_id="ext-disclosure",
        title="Extension: traces-to-disclosure curves under power noise "
              "(unmasked vs masked)",
        summary=summary,
        series=series,
        notes="Noise forces the attacker to average, but only delays the "
              "unmasked disclosure; the masked differential is identically "
              "zero, so more traces sharpen the estimate of nothing.")


def extension_sensitivity(params: EnergyParams = DEFAULT_PARAMS,
                          rounds: int = 2, jobs: int = 1, retries: int = 0,
                          job_timeout: Optional[float] = None,
                          checkpoint: Optional[str] = None
                          ) -> ExperimentResult:
    """Extension: sensitivity of the headline comparison to calibration.

    Sweeps each technology parameter over [0.5x, 2x] and re-measures the
    four-policy totals: the policy ordering and a positive overhead saving
    must hold at every point — the paper's conclusion is structural, not a
    calibration artifact.
    """
    from .sweeps import SWEEPABLE, sensitivity_sweep

    summary: dict[str, float | int | str | bool] = {}
    all_ordered = True
    worst_saving = 1.0
    for parameter in SWEEPABLE:
        sweep = sensitivity_sweep(parameter, base_params=params,
                                  rounds=rounds, jobs=jobs, retries=retries,
                                  job_timeout=job_timeout,
                                  checkpoint=_subcheckpoint(checkpoint,
                                                            parameter))
        summary[f"{parameter}_ordered"] = sweep.always_ordered
        summary[f"{parameter}_saving_range"] = (
            f"{sweep.min_saving:.2f}..{sweep.max_saving:.2f}")
        all_ordered &= sweep.always_ordered
        worst_saving = min(worst_saving, sweep.min_saving)
    summary["all_parameters_preserve_ordering"] = all_ordered
    summary["worst_case_overhead_saving"] = worst_saving
    return ExperimentResult(
        experiment_id="ext-sensitivity",
        title="Extension: sensitivity of the policy comparison to the "
              "energy calibration",
        summary=summary,
        notes="Ratios move with the parameters, but selective masking "
              "stays strictly cheaper than naive and whole-program "
              "dual-rail across a 4x range of every capacitance.")


def ablation_operand_isolation(params: EnergyParams = DEFAULT_PARAMS
                               ) -> ExperimentResult:
    """Ablation: the stale-register side channel and operand isolation.

    A subtlety beyond the paper's instruction-level model: the ID stage of
    a classic five-stage pipeline latches register-file reads that the
    forwarding network later overrides.  With register reuse, the stale
    value can be a *secret* left behind by an earlier secure instruction,
    and it transits the ID/EX latch of an insecure instruction — a leak no
    secure-instruction selection can express.  Operand isolation (gating
    reads that forwarding will supply; control depends only on register
    numbers) closes the channel.  This experiment runs the masked DES with
    the gating disabled and re-measures the key differential.
    """
    compiled = compile_des(DesProgramSpec(rounds=1), masking="selective")
    summary: dict[str, float | int | str | bool] = {}
    for label, isolation in (("with_isolation", True),
                             ("without_isolation", False)):
        runs = []
        for key in (KEY_A, KEY_C):
            from ..programs.workloads import key_words, plaintext_words
            from .runner import run_with_trace

            runs.append(run_with_trace(
                compiled.program,
                inputs={"key": key_words(key),
                        "plaintext": plaintext_words(PT_A)},
                params=params, operand_isolation=isolation))
        diff = runs[0].trace.diff(runs[1].trace)
        start = runs[0].trace.marker_cycles(mk.M_KEYPERM_START)[0]
        end = runs[0].trace.marker_cycles(mk.M_FP_START)[0]
        window = diff[start:end]
        summary[f"{label}_max_abs_diff_pj"] = float(np.abs(window).max())
        summary[f"{label}_nonzero_cycles"] = int(np.count_nonzero(window))
    summary["isolation_required"] = \
        summary["with_isolation_max_abs_diff_pj"] == 0.0 \
        and summary["without_isolation_max_abs_diff_pj"] > 0.0
    return ExperimentResult(
        experiment_id="ablation-isolation",
        title="Ablation: stale-register leakage without operand isolation",
        summary=summary,
        notes="Without gating, secrets left in reused registers transit "
              "the ID/EX latch of insecure instructions; the masked "
              "differential is small but nonzero — enough for DPA, which "
              "averages away nothing that is deterministic.")


#: Registry: experiment id -> callable.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig6": fig06_rounds_trace,
    "fig7": fig07_key_diff_round1,
    "fig8": fig08_key_diff_unmasked,
    "fig9": fig09_key_diff_masked,
    "fig10": fig10_pt_diff_unmasked,
    "fig11": fig11_pt_diff_masked,
    "fig12": fig12_masking_overhead,
    "tab1": tab1_policy_energy,
    "xor-op": xor_unit_energy,
    "dpa": dpa_experiment,
    "ablation-slice": ablation_no_slicing,
    "ablation-components": ablation_components,
    "ablation-isolation": ablation_operand_isolation,
    "ext-aes": extension_aes,
    "ext-opt": extension_optimizer,
    "ext-coupling": extension_coupling,
    "ext-noise": extension_noise,
    "ext-tvla": extension_tvla,
    "ext-disclosure": extension_disclosure,
    "ext-sensitivity": extension_sensitivity,
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment by id.

    With the observability sink enabled the experiment runs under an
    ``experiment`` span (jobs/compiles/executions nest beneath it) and
    bumps ``experiments_run{experiment=...}``.
    """
    from .. import obs

    try:
        function = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: "
                       f"{sorted(EXPERIMENTS)}") from None
    with obs.span("experiment", id=experiment_id):
        result = function(**kwargs)
    if obs.enabled():
        obs.counter("experiments_run", "registered experiments executed") \
            .inc(experiment=experiment_id)
        if result.leakage is not None:
            result.leakage.publish_metrics(obs.registry())
    return result
