"""DES substrate: FIPS 46-3 tables, key schedule, and reference cipher."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".bitops": ("bits_to_int", "hamming_weight", "int_to_bits",
                "parity_adjust_key", "permute", "rotate_left", "xor_bits"),
    ".keyschedule": ("cd_sequence", "key_schedule"),
    ".modes": ("PaddingError", "cbc_decrypt", "cbc_encrypt", "ecb_decrypt",
               "ecb_encrypt", "pkcs7_pad", "pkcs7_unpad", "tdes_decrypt_block",
               "tdes_encrypt_block"),
    ".reference": ("decrypt_block", "encrypt_block", "f_function",
                   "round_states", "sbox_lookup"),
    ".tables": ("E", "FLAT_SBOXES", "FP", "IP", "P", "PC1", "PC2", "SBOXES",
                "SHIFTS"),
})
