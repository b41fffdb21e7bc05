"""Generated cipher workloads: DES (the paper) and AES-128 (extension)."""

from .._lazy import lazy_namespace
from . import markers

_lazy_names, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".aes_source": ("AesProgramSpec", "FULL_AES", "ROUND1_AES", "aes_source"),
    ".des_source": ("DesProgramSpec", "FULL_DES", "KEYPERM_ONLY", "ROUND1_DES",
                    "des_source"),
    ".workloads": ("aes_ciphertext_of", "ciphertext_from_words",
                   "ciphertext_of", "compile_aes", "compile_des", "key_words",
                   "plaintext_words", "run_aes", "run_des"),
})

__all__ = ["markers", *_lazy_names]
