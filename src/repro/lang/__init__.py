"""SecureC compiler: annotated mini-C -> secure-instruction assembly."""

from .ast import ProgramAst
from .cfg import CFG, BasicBlock
from .codegen import CodegenError, CodegenOptions, generate
from .compiler import CompileResult, compile_source
from .ir import BinOp, Temp
from .lexer import LexError, Token, tokenize
from .lowering import LoweringError, lower
from .parser import ParseError, parse
from .semantics import Analyzer, SemanticError, Symbol, SymbolTable, analyze
from .slicing import Diagnostic, ForwardSlicer, SliceResult

__all__ = [
    "Analyzer", "BasicBlock", "BinOp", "CFG", "CodegenError",
    "CodegenOptions", "CompileResult", "Diagnostic", "ForwardSlicer",
    "LexError", "LoweringError", "ParseError", "ProgramAst", "SemanticError",
    "SliceResult", "Symbol", "SymbolTable", "Temp", "Token", "analyze",
    "compile_source", "generate", "lower", "parse", "tokenize",
]
