"""Masking policies and program rewriters."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".audit": ("AuditReport", "TaintAuditor", "Violation", "audit_masking"),
    ".policy": ("MaskingPolicy", "apply_policy", "secure_all",
                "secure_all_loads_stores"),
    ".verify": ("MaskingReport", "random_secret_assignments",
                "verify_masking"),
})
