"""repro — reproduction of "Masking the Energy Behavior of DES Encryption"
(Saputra et al., DATE 2003).

The package implements the paper's full stack from scratch:

* :mod:`repro.isa` — a MIPS-like embedded integer ISA augmented with a
  per-instruction *secure bit* and the paper's secure mnemonics
  (``slw``/``ssw``/``sxor``/``ssllv``/``silw``), plus a two-pass assembler;
* :mod:`repro.machine` — a cycle-accurate five-stage in-order pipeline
  (forwarding, load-use interlock, EX-resolved branches);
* :mod:`repro.energy` — SimplePower-style transition-sensitive energy
  models with pre-charged dual-rail semantics for secure instructions;
* :mod:`repro.des` — FIPS 46-3 DES reference implementation and tables;
* :mod:`repro.lang` — the SecureC compiler: ``secure``-annotated mini-C,
  forward slicing, and secure-instruction selection;
* :mod:`repro.programs` — the DES workload generated in SecureC;
* :mod:`repro.masking` — the four masking policies of the paper's Sec. 4.3;
* :mod:`repro.attacks` — SPA and DPA mounted against simulated traces;
* :mod:`repro.harness` — one registered experiment per paper table/figure.

Quickstart::

    from repro import compile_des, des_run, KEY_A, PT_A
    compiled = compile_des(masking="selective")
    run = des_run(compiled.program, KEY_A, PT_A)
    print(run.total_uj, "uJ over", run.cycles, "cycles")
"""

from ._lazy import lazy_namespace

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".aes.reference": ("decrypt_block as aes_decrypt_block",
                       "encrypt_block as aes_encrypt_block"),
    ".attacks.cpa": ("cpa_attack",),
    ".attacks.dpa": ("collect_traces", "dpa_attack", "dpa_attack_multibit",
                     "random_plaintexts"),
    ".attacks.spa": ("analyze as spa_analyze",),
    ".des.reference": ("decrypt_block", "encrypt_block"),
    ".energy.params": ("DEFAULT_PARAMS", "EnergyParams"),
    ".energy.trace": ("EnergyTrace",),
    ".energy.tracker": ("EnergyTracker",),
    ".harness.experiments": ("EXPERIMENTS", "ExperimentResult", "KEY_A",
                             "KEY_B_BIT1", "KEY_C", "PT_A", "PT_B",
                             "run_experiment"),
    ".harness.runner": ("RunResult", "des_run", "run_with_trace"),
    ".isa.assembler": ("assemble",),
    ".isa.instructions": ("Instruction",),
    ".isa.program": ("Program",),
    ".lang.compiler": ("CompileResult", "compile_source"),
    ".machine.cpu": ("CPU", "run_to_halt"),
    ".machine.memory": ("Memory",),
    ".machine.pipeline": ("Pipeline",),
    ".masking.policy": ("MaskingPolicy", "apply_policy"),
    ".programs.aes_source": ("AesProgramSpec", "FULL_AES", "ROUND1_AES"),
    ".programs.des_source": ("DesProgramSpec", "FULL_DES", "KEYPERM_ONLY",
                             "ROUND1_DES", "des_source"),
    ".programs.workloads": ("aes_ciphertext_of", "ciphertext_of",
                            "compile_aes", "compile_des", "run_aes",
                            "run_des"),
})
