"""SecureC compiler: annotated mini-C -> secure-instruction assembly."""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".ast": ("ProgramAst",),
    ".cfg": ("BasicBlock", "CFG"),
    ".codegen": ("CodegenError", "CodegenOptions", "generate"),
    ".compiler": ("CompileResult", "compile_source"),
    ".ir": ("BinOp", "Temp"),
    ".lexer": ("LexError", "Token", "tokenize"),
    ".lowering": ("LoweringError", "lower"),
    ".parser": ("ParseError", "parse"),
    ".semantics": ("Analyzer", "SemanticError", "Symbol", "SymbolTable",
                   "analyze"),
    ".slicing": ("Diagnostic", "ForwardSlicer", "SliceResult"),
})
