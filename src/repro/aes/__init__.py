"""AES-128 substrate: FIPS-197 tables and reference cipher.

The paper's masking technique is algorithm-agnostic ("our approach is
general and can be extended to other algorithms"); the authors' follow-up
work applies it to AES.  This package provides the AES golden model; the
SecureC AES program lives in :mod:`repro.programs.aes_source`.
"""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".reference": ("BLOCK_BYTES", "ROUNDS", "decrypt_block", "encrypt_block",
                   "expand_key", "int_to_state", "state_to_int"),
    ".tables": ("INV_SBOX", "INV_SHIFT_ROWS", "POLY", "RCON", "SBOX",
                "SHIFT_ROWS", "XTIME", "gf_inv", "gf_mul"),
})
