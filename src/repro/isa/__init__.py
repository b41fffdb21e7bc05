"""ISA layer: instruction set, secure-bit encoding, and assembler."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".assembler": ("Assembler", "AssemblerError", "assemble"),
    ".encoding": ("SECURE_BIT", "decode", "encode"),
    ".instructions": ("AluOp", "Format", "Instruction", "InstructionError",
                      "OPCODES", "OpSpec", "SECURE_ALIASES",
                      "format_instruction"),
    ".program": ("DATA_BASE", "Program", "STACK_TOP", "SymbolError",
                 "TEXT_BASE"),
    ".registers": ("NUM_REGISTERS", "REGISTER_NAMES", "RegisterError",
                   "parse_register", "register_name"),
})
