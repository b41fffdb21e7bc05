"""Power-analysis attacks: SPA and DPA over simulated traces."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".cpa": ("CpaResult", "correlation_trace", "cpa_attack",
             "predicted_hamming_weights"),
    ".dpa": ("DpaResult", "GuessScore", "TraceSet", "collect_traces",
             "dpa_attack", "dpa_attack_multibit", "random_plaintexts"),
    ".second_order": ("centered_product", "second_order_dpa"),
    ".selection": ("predict_sbox_output_bit", "round1_sbox_input_bits",
                   "true_round1_subkey_chunk"),
    ".spa": ("SpaResult", "analyze", "count_rounds", "detect_period"),
    ".stats": ("difference_of_means", "moving_average", "signal_to_noise",
               "welch_t_statistic"),
    ".timing": ("TimingAttackResult", "extract_secret_by_timing",
                "measure_cycles"),
    ".tvla": ("T_THRESHOLD", "TvlaResult", "assess_des_program",
              "fixed_vs_random"),
})
