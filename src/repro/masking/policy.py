"""Masking policies: which instructions run in secure (dual-rail) mode.

The paper's Section 4.3 compares four schemes on DES:

* ``NONE``      — unmodified program (46.4 µJ in the paper);
* ``SELECTIVE`` — the paper's contribution: compiler-annotated + forward
  sliced secure instructions (52.6 µJ);
* ``ALL_LOADS_STORES`` — the naive approach that converts *every* load and
  store into the secure version, with no compiler analysis (63.6 µJ);
* ``ALL``       — whole-program dual-rail, "the one used in current
  dual-rail solutions" (83.5 µJ, almost twice the original).

``NONE`` and ``SELECTIVE`` are produced by the compiler; the two naive
policies are assembly-level rewrites of the unmasked program (no analysis is
involved, by construction).
"""

from __future__ import annotations

import enum

from .. import obs
from ..isa.instructions import Instruction
from ..isa.program import Program


class MaskingPolicy(enum.Enum):
    NONE = "none"
    SELECTIVE = "selective"
    #: Ablation: annotation without forward slicing.
    ANNOTATE_ONLY = "annotate-only"
    ALL_LOADS_STORES = "all-loads-stores"
    ALL = "all"


def secure_all_loads_stores(program: Program) -> Program:
    """Naive dual-rail data path: every memory instruction becomes secure."""
    def rewrite(ins: Instruction) -> Instruction:
        if ins.spec.is_load or ins.spec.is_store:
            return ins.with_secure(True)
        return ins

    return program.replace_text(rewrite(ins) for ins in program.text)


def secure_all(program: Program) -> Program:
    """Whole-program dual-rail: every instruction becomes secure."""
    return program.replace_text(ins.with_secure(True) for ins in program.text)


def apply_policy(program: Program, policy: MaskingPolicy) -> Program:
    """Apply an assembly-level policy to an *unmasked* program.

    Compiler-driven policies (NONE/SELECTIVE/ANNOTATE_ONLY) must be selected
    at compile time; passing them here returns the program unchanged
    (for NONE) or raises (for the others).
    """
    if policy is MaskingPolicy.NONE:
        return program
    if policy is MaskingPolicy.ALL_LOADS_STORES:
        rewritten = secure_all_loads_stores(program)
    elif policy is MaskingPolicy.ALL:
        rewritten = secure_all(program)
    else:
        raise ValueError(f"policy {policy} is compiler-driven; "
                         "use compile_source(masking=...)")
    if obs.enabled():
        secured = sum(1 for before, after
                      in zip(program.text, rewritten.text)
                      if after.secure and not before.secure)
        obs.counter("policy_secured_instructions",
                    "static instructions a masking policy rewrote "
                    "to secure mode") \
            .inc(secured, policy=policy.value)
    return rewritten
