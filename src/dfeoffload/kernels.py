"""The kernel mini-language: AST, parser, pretty-printer, software evaluator.

A kernel is a counted loop nest over integer arrays, rich enough to express
the usual dense linear-algebra and stencil loop bodies::

    kernel scaleadd(M, N)
    arrays: A[MxN]:int32, B[MxN]:int32, C[MxN]:int32

    for i in 0..M {
      for j in 0..N {
        C[i][j] = A[i][j] + 3*B[i][j] + 1;
      }
    }

Grammar (EBNF)::

    kernel      = "kernel" IDENT "(" [ IDENT { "," IDENT } ] ")" arrays nest ;
    arrays      = "arrays" ":" array { "," array } ;
    array       = IDENT "[" extent { "x" extent } "]" ":" ( "int32" | "float32" ) ;
    extent      = [ "-" ] term { ("+" | "-") term } ;   (* affine in params *)
    term        = INT | [ INT "*" ] IDENT ;
    nest        = for_loop ;
    for_loop    = "for" IDENT "in" "0" ".." bound block ;
    bound       = IDENT | INT ;
    block       = "{" { for_loop | assign | if_else } "}" ;
    assign      = IDENT index { index } "=" expr ";" ;
    if_else     = "if" "(" expr ")" block "else" block ;
    index       = "[" expr "]" ;
    expr        = ternary ;
    ternary     = cmp [ "?" expr ":" expr ] ;
    cmp         = add [ ("=="|"!="|"<"|"<="|">"|">=") add ] ;
    add         = mul { ("+" | "-") mul } ;
    mul         = unary { ("*" | "/" | "%") unary } ;
    unary       = [ "-" ] primary ;
    primary     = INT | FLOAT | IDENT [ index { index } ] | "(" expr ")" ;

``#`` starts a comment, which runs to the end of its line.  A digit of an
INT or FLOAT is what ``int()`` accepts, a decimal digit (``str.isdecimal``).
An INT longer than ``int()`` reads and a FLOAT beyond the largest float are
syntax errors.
An IDENT is a letter (``str.isalpha``) or ``_``, then any of letters, digits
and ``_`` (``str.isalnum``).  Comparisons do not chain: ``a < b < c`` is an
error, and ``(a < b) < c`` keeps its brackets.  Arrays have rank 1 or 2;
identifiers used in array extents must not contain the letter ``x`` (it
separates extents).
Loops always start at 0 with step 1.  Division and remainder parse but are
rejected later by the eligibility check, as are float arrays and literals.
A call's arrays follow one rule on every path (``check_arrays``), and an
int32-declared array may have any dtype: it is read as numpy casts it to
int32, and each element written is stored as numpy casts an int32 into it.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .dfg import AffineExpr, wrap32

KEYWORDS = {"kernel", "arrays", "for", "in", "if", "else", "int32", "float32"}

# The binary operators' levels, loosest first (a ternary is level 0), and
# whether each level chains, left to right.  Level 1, the comparisons, does
# not chain on either side.  The parser (``_Parser.parse_binary``) and the
# printer (``_fmt_expr``) both read this one table.
_PREC = {op: (level, chains) for ops, level, chains in (
    ("== != < <= > >=", 1, False), ("+ -", 2, True), ("* / %", 3, True))
    for op in ops.split()}


class KernelSyntaxError(ValueError):
    """Malformed kernel source; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownIdentifier(KernelSyntaxError):
    """Identifier used before being declared as a param, array, or loop var."""


class EvalError(RuntimeError):
    pass


# -- AST -------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class FloatLit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ArrayRef:
    name: str
    indices: tuple["Expr", ...]


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / % == != < <= > >=
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[IntLit, FloatLit, Var, ArrayRef, BinOp, Ternary]


@dataclass(frozen=True)
class Assign:
    target: ArrayRef
    value: Expr


@dataclass(frozen=True)
class IfElse:
    cond: Expr
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...]


@dataclass(frozen=True)
class For:
    var: str
    bound: Union[str, int]  # param name or literal trip count
    body: tuple["Stmt", ...]


Stmt = Union[Assign, IfElse, For]


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    extents: tuple[AffineExpr, ...]  # rank 1 or 2, affine in params
    dtype: str  # "int32" | "float32"


@dataclass(frozen=True)
class Kernel:
    name: str
    params: tuple[str, ...]
    arrays: tuple[ArrayDecl, ...]
    nest: For

    @cached_property
    def content_key(self) -> str:
        """A sha1 of the whole AST, computed once per kernel object.

        Equal kernels have equal keys, so the runtime memoizes analyses on
        this key instead of hashing and comparing the AST on every call.  It
        is a digest, not ``hash()``: string hashes are salted per process
        (``PYTHONHASHSEED``), so a cached ``hash()`` would go stale in a
        pickled kernel, whereas a digest is the same in every process.
        """
        return hashlib.sha1(repr(self).encode()).hexdigest()

    def canonical_nest(self) -> Optional[tuple[list[For], tuple[Stmt, ...]]]:
        """(loops outer-to-inner, innermost body) for a perfect nest, else None.

        Perfect means every non-innermost loop body is exactly one loop, and
        the innermost body contains no loops anywhere (including under ifs).
        """
        loops = [self.nest]
        while len(loops[-1].body) == 1 and isinstance(loops[-1].body[0], For):
            loops.append(loops[-1].body[0])
        body = loops[-1].body
        if _has_loop(body):
            return None
        return loops, body


def _has_loop(stmts) -> bool:
    for s in stmts:
        if isinstance(s, For):
            return True
        if isinstance(s, IfElse) and (_has_loop(s.then) or _has_loop(s.orelse)):
            return True
    return False


# -- lexer -----------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # IDENT INT FLOAT PUNCT EOF
    text: str
    line: int
    col: int


# One alternative per token kind, tried in order; SKIP (blanks, newlines and
# comments) makes no token.  ``\d`` is ``str.isdecimal``, ``\w`` is
# ``str.isalnum`` or "_", and ``tokenize`` checks that an IDENT starts with
# a letter or "_".
_TOKEN = re.compile(r"(?P<SKIP>(?:[ \t\r\n]|#[^\n]*)+)|(?P<FLOAT>\d+\.\d+)|(?P<INT>\d+)"
                    r"|(?P<IDENT>[^\W\d]\w*)|(?P<PUNCT>==|!=|<=|>=|\.\.|[-()\[\]{},:;?=<>+*/%])")


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, each at its 1-based line and column, then EOF.

    Raises KernelSyntaxError at the first character that starts no token.
    """
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        kind = m and m.lastgroup
        if kind == "SKIP":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, m.end()) + 1
        elif kind and (kind != "IDENT" or text[pos].isalpha() or text[pos] == "_"):
            tokens.append(Token(kind, m.group(), line, pos - line_start + 1))
        else:
            raise KernelSyntaxError(f"unexpected character {text[pos]!r}",
                                    line, pos - line_start + 1)
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


# -- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.params: set[str] = set()
        self.arrays: dict[str, int] = {}  # name -> rank
        self.loop_vars: list[str] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise KernelSyntaxError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in KEYWORDS:
            self.error(f"expected identifier, found {tok.text!r}")
        return self.next()

    # kernel = "kernel" IDENT "(" params ")" arrays nest
    def parse_kernel(self) -> Kernel:
        self.expect("kernel")
        name = self.expect_ident().text
        self.expect("(")
        params: list[str] = []
        if self.peek().text != ")":
            while True:
                p = self.expect_ident()
                if p.text in self.params:
                    self.error(f"duplicate parameter {p.text!r}", p)
                self.params.add(p.text)
                params.append(p.text)
                if self.peek().text != ",":
                    break
                self.next()
        self.expect(")")
        arrays = self.parse_arrays()
        nest = self.parse_for()
        if self.peek().kind != "EOF":
            self.error("trailing input after the loop nest")
        return Kernel(name, tuple(params), tuple(arrays), nest)

    def parse_arrays(self) -> list[ArrayDecl]:
        self.expect("arrays")
        self.expect(":")
        decls: list[ArrayDecl] = []
        while True:
            name_tok = self.expect_ident()
            if name_tok.text in self.arrays or name_tok.text in self.params:
                self.error(f"duplicate declaration of {name_tok.text!r}", name_tok)
            self.expect("[")
            extents = self.parse_extents(name_tok)
            self.expect("]")
            self.expect(":")
            dtype_tok = self.next()
            if dtype_tok.text not in ("int32", "float32"):
                self.error("array type must be int32 or float32", dtype_tok)
            decls.append(ArrayDecl(name_tok.text, tuple(extents), dtype_tok.text))
            self.arrays[name_tok.text] = len(extents)
            if self.peek().text != ",":
                break
            self.next()
        return decls

    def parse_extents(self, name_tok: Token) -> list[AffineExpr]:
        # Extents are split on the letter 'x' at the raw-text level, so
        # 'MxN', '8x8', and 'M+2xN' all work without whitespace.
        raw = ""
        while self.peek().text != "]":
            tok = self.peek()
            if tok.kind not in ("IDENT", "INT") and tok.text not in ("+", "-", "*"):
                self.error("array extents may only use params, literals, + and -", tok)
            raw += self.next().text
        pieces = raw.split("x")
        if not (1 <= len(pieces) <= 2):
            self.error("arrays must have rank 1 or 2", name_tok)
        extents = []
        for piece in pieces:
            try:
                extents.append(AffineExpr.parse(piece, self.params))
            except KeyError as exc:
                raise UnknownIdentifier(f"unknown parameter {exc.args[0]!r} in array extent",
                                        name_tok.line, name_tok.col) from None
            except ValueError:
                self.error(f"bad array extent {piece!r}", name_tok)
        return extents

    def parse_for(self) -> For:
        self.expect("for")
        var_tok = self.expect_ident()
        var = var_tok.text
        if var in self.params or var in self.arrays or var in self.loop_vars:
            self.error(f"loop variable {var!r} shadows an existing name", var_tok)
        self.expect("in")
        zero = self.next()
        if zero.kind != "INT" or zero.text != "0":
            self.error("loop lower bound must be the literal 0", zero)
        self.expect("..")
        bound_tok = self.next()
        bound: Union[str, int]
        if bound_tok.kind == "INT":
            bound = self.int_value(bound_tok)
        elif bound_tok.kind == "IDENT" and bound_tok.text in self.params:
            bound = bound_tok.text
        elif bound_tok.kind == "IDENT" and bound_tok.text not in KEYWORDS:
            raise UnknownIdentifier(
                f"loop bound {bound_tok.text!r} is not a parameter",
                bound_tok.line, bound_tok.col)
        else:
            self.error("loop bound must be a parameter or literal", bound_tok)
        self.loop_vars.append(var)
        body = self.parse_block()
        self.loop_vars.pop()
        return For(var, bound, tuple(body))

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        stmts: list[Stmt] = []
        while self.peek().text != "}":
            tok = self.peek()
            if tok.text == "for":
                stmts.append(self.parse_for())
            elif tok.text == "if":
                stmts.append(self.parse_if())
            elif tok.kind == "IDENT" and tok.text not in KEYWORDS:
                stmts.append(self.parse_assign())
            else:
                self.error(f"expected a statement, found {tok.text or 'end of input'!r}")
        self.expect("}")
        return stmts

    def parse_if(self) -> IfElse:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block()
        self.expect("else")
        orelse = self.parse_block()
        return IfElse(cond, tuple(then), tuple(orelse))

    def parse_assign(self) -> Assign:
        target = self.parse_array_ref()
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        return Assign(target, value)

    def parse_array_ref(self) -> ArrayRef:
        name_tok = self.expect_ident()
        if name_tok.text not in self.arrays:
            raise UnknownIdentifier(
                f"unknown array {name_tok.text!r}", name_tok.line, name_tok.col)
        indices: list[Expr] = []
        while self.peek().text == "[":
            self.next()
            indices.append(self.parse_expr())
            self.expect("]")
        rank = self.arrays[name_tok.text]
        if len(indices) != rank:
            self.error(f"array {name_tok.text!r} has rank {rank}, "
                       f"got {len(indices)} indices", name_tok)
        return ArrayRef(name_tok.text, tuple(indices))

    def parse_expr(self) -> Expr:
        cond = self.parse_binary()
        if self.peek().text == "?":
            self.next()
            then = self.parse_expr()
            self.expect(":")
            orelse = self.parse_expr()
            return Ternary(cond, then, orelse)
        return cond

    def parse_binary(self, min_level: int = 1) -> Expr:
        """Unary operands joined by operators of ``min_level`` or tighter,
        by precedence climbing over ``_PREC``."""
        lhs = self.parse_unary()
        while True:
            op = self.peek().text
            level, chains = _PREC.get(op, (0, False))
            if level < min_level:
                return lhs
            self.next()
            lhs = BinOp(op, lhs, self.parse_binary(level + 1))
            if not chains:
                return lhs

    def parse_unary(self) -> Expr:
        if self.peek().text == "-":
            tok = self.next()
            inner = self.parse_unary()
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            if isinstance(inner, FloatLit):
                return FloatLit(-inner.value)
            return BinOp("-", IntLit(0), inner)
        return self.parse_primary()

    def int_value(self, tok: Token) -> int:
        """The value of an INT token; ``int()`` refuses a literal of more
        digits than ``sys.get_int_max_str_digits()``."""
        try:
            return int(tok.text)
        except ValueError:
            self.error(f"integer literal of {len(tok.text)} digits is too long", tok)

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntLit(self.int_value(tok))
        if tok.kind == "FLOAT":
            self.next()
            value = float(tok.text)
            if math.isinf(value):
                self.error("float literal beyond the largest float", tok)
            return FloatLit(value)
        if tok.text == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            if tok.text in self.arrays:
                return self.parse_array_ref()
            self.next()
            if tok.text in self.params or tok.text in self.loop_vars:
                return Var(tok.text)
            raise UnknownIdentifier(f"unknown identifier {tok.text!r}", tok.line, tok.col)
        self.error(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse_kernel(text: str) -> Kernel:
    """Parse kernel-DSL source into a Kernel AST.

    Raises KernelSyntaxError (with line/column) on malformed input and
    UnknownIdentifier on use-before-declaration.
    """
    return _Parser(tokenize(text)).parse_kernel()


# -- pretty printer ---------------------------------------------------------------


def _fmt_expr(e: Expr, min_level: int = 0) -> str:
    """``e`` as source, in a place where the parser reads an expression of
    ``min_level`` or tighter (``_PREC``; a ternary is level 0, and a literal,
    name or element is tighter than any level): bracketed when ``e`` is
    looser.  A negative literal reads back bare anywhere; it is bracketed as
    an operand of ``*``, ``/``, ``%`` and right of ``+``, ``-`` to be legible."""
    if isinstance(e, IntLit):
        return f"({e.value})" if e.value < 0 and min_level >= 3 else str(e.value)
    if isinstance(e, FloatLit):
        # digits.digits, as the scanner reads a FLOAT, where repr may write
        # an exponent (1e-05); unique=True writes repr's shortest digits,
        # so the literal reads back as the same float
        return np.format_float_positional(e.value, unique=True, trim="0")
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ArrayRef):
        return e.name + "".join(f"[{_fmt_expr(i)}]" for i in e.indices)
    if isinstance(e, Ternary):
        level = 0
        text = f"{_fmt_expr(e.cond, 1)} ? {_fmt_expr(e.then)} : {_fmt_expr(e.orelse)}"
    else:
        level, chains = _PREC[e.op]
        lhs = _fmt_expr(e.lhs, level if chains else level + 1)
        rhs = _fmt_expr(e.rhs, level + 1)
        text = f"{lhs} {e.op} {rhs}" if level == 1 else f"{lhs}{e.op}{rhs}"
    return text if level >= min_level else f"({text})"


def _fmt_stmt(s: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(s, Assign):
        return [f"{pad}{_fmt_expr(s.target)} = {_fmt_expr(s.value)};"]
    if isinstance(s, IfElse):
        lines = [f"{pad}if ({_fmt_expr(s.cond)}) {{"]
        for sub in s.then:
            lines.extend(_fmt_stmt(sub, indent + 1))
        lines.append(f"{pad}}} else {{")
        for sub in s.orelse:
            lines.extend(_fmt_stmt(sub, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    lines = [f"{pad}for {s.var} in 0..{s.bound} {{"]
    for sub in s.body:
        lines.extend(_fmt_stmt(sub, indent + 1))
    lines.append(f"{pad}}}")
    return lines


def format_kernel(k: Kernel) -> str:
    """Canonical source text; parse(format(k)) reproduces k exactly."""
    arrays = ", ".join(
        f"{a.name}[{'x'.join(str(e) for e in a.extents)}]:{a.dtype}"
        for a in k.arrays)
    header = f"kernel {k.name}({', '.join(k.params)})\narrays: {arrays}\n"
    return header + "\n" + "\n".join(_fmt_stmt(k.nest, 0)) + "\n"


# -- software evaluation ------------------------------------------------------------


def trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def trunc_rem(a: int, b: int) -> int:
    return a - trunc_div(a, b) * b


def array_shapes(k: Kernel, params: dict[str, int]) -> list[tuple[int, ...]]:
    """The shape of each of a kernel's arrays under ``params``, in
    declaration order.  Raises EvalError when an extent is negative."""
    shapes = []
    for decl in k.arrays:
        shape = tuple(e.evaluate(params) for e in decl.extents)
        if any(s < 0 for s in shape):
            raise EvalError(f"array {decl.name} has negative extent {shape}")
        shapes.append(shape)
    return shapes


def allocate_arrays(k: Kernel, params: dict[str, int],
                    rng: Optional[np.random.Generator] = None,
                    low: int = -100, high: int = 100) -> dict[str, np.ndarray]:
    """Allocate (optionally randomized) backing arrays for a kernel's decls."""
    out: dict[str, np.ndarray] = {}
    for decl, shape in zip(k.arrays, array_shapes(k, params)):
        if decl.dtype == "int32":
            if rng is None:
                out[decl.name] = np.zeros(shape, dtype=np.int32)
            else:
                out[decl.name] = rng.integers(low, high + 1, size=shape, dtype=np.int32)
        else:
            if rng is None:
                out[decl.name] = np.zeros(shape, dtype=np.float64)
            else:
                out[decl.name] = rng.uniform(low, high, size=shape)
    return out


def check_arrays(k: Kernel, arrays: dict[str, np.ndarray]) -> None:
    """The rule for a call's arrays, checked where a call enters: each array
    ``k`` declares is supplied, is an ``np.ndarray`` of its declared rank."""
    for decl in k.arrays:
        if decl.name not in arrays:
            raise EvalError(f"missing array {decl.name!r}")
        a = arrays[decl.name]
        if not isinstance(a, np.ndarray):
            raise EvalError(f"array {decl.name!r} is a {type(a).__name__}, not a numpy array")
        if a.ndim != len(decl.extents):
            raise EvalError(f"array {decl.name!r} has rank {a.ndim}, "
                            f"declared {len(decl.extents)}")


def evaluate_kernel(k: Kernel, arrays: dict[str, np.ndarray],
                    params: dict[str, int]) -> dict[str, np.ndarray]:
    """Run the kernel in software; the ground truth for every other path.

    Returns fresh arrays in their dtypes by the module's array rule (inputs
    are not modified).  Integer arithmetic wraps to 32 bits, comparisons yield
    1/0, division truncates toward zero, and a written element reads back in int32.
    """
    check_arrays(k, arrays)
    out = {name: np.array(a, copy=True) for name, a in arrays.items()}
    _Interpreter(k, out, params).block([k.nest], dict(params))
    return out


class _Interpreter:
    """Tree-walking evaluation of one kernel call over ``out``, through an
    int32 copy in ``state`` of each int32-declared array of another dtype.

    Plain methods rather than nested recursive closures: a closure that
    calls itself refers to itself through its own cell, and the resulting
    cycle would keep ``state`` (a copy of every array) alive until the
    cyclic collector runs.
    """

    def __init__(self, k: Kernel, out: dict[str, np.ndarray],
                 params: dict[str, int]):
        self.params = params
        self.floats = {a.name for a in k.arrays if a.dtype == "float32"}
        self.casts = {a.name: out[a.name] for a in k.arrays
                      if a.dtype == "int32" and out[a.name].dtype != np.int32}
        self.state = {**out, **{name: a.astype(np.int32) for name, a in self.casts.items()}}

    def element(self, ref: ArrayRef, env: dict[str, int]) -> tuple[np.ndarray, tuple]:
        """The array ``ref`` reads or writes and its index there; raises
        EvalError when the index is out of bounds."""
        idx = tuple(self.expr(i, env) for i in ref.indices)
        arr = self.state[ref.name]
        for d, i in enumerate(idx):
            if not (0 <= i < arr.shape[d]):
                raise EvalError(f"{ref.name}{list(idx)} out of bounds {arr.shape}")
        return arr, idx

    def expr(self, e: Expr, env: dict[str, int]):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, FloatLit):
            return e.value
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, ArrayRef):
            arr, idx = self.element(e, env)
            v = arr[idx]
            return float(v) if e.name in self.floats else int(v)
        if isinstance(e, Ternary):
            if self.expr(e.cond, env) != 0:
                return self.expr(e.then, env)
            return self.expr(e.orelse, env)
        a = self.expr(e.lhs, env)
        b = self.expr(e.rhs, env)
        fp = isinstance(a, float) or isinstance(b, float)
        if e.op == "+":
            return a + b if fp else wrap32(a + b)
        if e.op == "-":
            return a - b if fp else wrap32(a - b)
        if e.op == "*":
            return a * b if fp else wrap32(a * b)
        if e.op == "/":
            if fp:
                return a / b
            return wrap32(trunc_div(a, b))
        if e.op == "%":
            if fp:
                raise EvalError("remainder is undefined on floats")
            return wrap32(trunc_rem(a, b))
        cmp = {"==": a == b, "!=": a != b, "<": a < b,
               "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
        return 1 if cmp else 0

    def block(self, stmts, env: dict[str, int]) -> None:
        for s in stmts:
            if isinstance(s, For):
                count = s.bound if isinstance(s.bound, int) else self.params[s.bound]
                for v in range(count):
                    env[s.var] = v
                    self.block(s.body, env)
                env.pop(s.var, None)
            elif isinstance(s, IfElse):
                branch = s.then if self.expr(s.cond, env) != 0 else s.orelse
                self.block(branch, env)
            else:
                name = s.target.name
                arr, idx = self.element(s.target, env)
                value = self.expr(s.value, env)
                arr[idx] = value if name in self.floats else wrap32(value)
                if name in self.casts:  # as a 0-d array: a scalar can overflow
                    self.casts[name][idx] = np.asarray(arr[idx])
