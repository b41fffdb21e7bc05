"""Power-analysis attacks: SPA and DPA over simulated traces."""

from .cpa import CpaResult, correlation_trace, cpa_attack, predicted_hamming_weights
from .dpa import (DpaResult, GuessScore, TraceSet, collect_traces,
                  dpa_attack, dpa_attack_multibit, random_plaintexts)
from .second_order import centered_product, second_order_dpa
from .selection import (predict_sbox_output_bit, round1_sbox_input_bits,
                        true_round1_subkey_chunk)
from .timing import TimingAttackResult, extract_secret_by_timing, measure_cycles
from .tvla import T_THRESHOLD, TvlaResult, assess_des_program, fixed_vs_random
from .spa import SpaResult, analyze, count_rounds, detect_period
from .stats import (difference_of_means, moving_average,
                    signal_to_noise, welch_t_statistic)

__all__ = [
    "CpaResult", "DpaResult", "GuessScore", "T_THRESHOLD", "TimingAttackResult", "TvlaResult", "SpaResult", "TraceSet", "analyze",
    "collect_traces", "count_rounds", "detect_period",
    "centered_product", "correlation_trace", "cpa_attack", "difference_of_means", "dpa_attack", "extract_secret_by_timing", "measure_cycles", "dpa_attack_multibit", "moving_average",
    "predict_sbox_output_bit", "predicted_hamming_weights", "random_plaintexts",
    "round1_sbox_input_bits", "second_order_dpa", "signal_to_noise",
    "assess_des_program", "fixed_vs_random", "true_round1_subkey_chunk", "welch_t_statistic",
]
