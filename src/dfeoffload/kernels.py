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
    extent      = atom { ("+" | "-") atom } ;      (* affine in params *)
    atom        = IDENT | INT ;
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

``#`` starts a line comment.  Arrays have rank 1 or 2; identifiers used in
array extents must not contain the letter ``x`` (it separates extents).
Loops always start at 0 with step 1.  Division and remainder parse but are
rejected later by the eligibility check, as are float arrays and literals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .dfg import AffineExpr, wrap32

KEYWORDS = {"kernel", "arrays", "for", "in", "if", "else", "int32", "float32"}
CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


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


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT INT FLOAT PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT2 = ("==", "!=", "<=", ">=", "..")
_PUNCT1 = "()[]{},:;?=<>+-*/%"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        two = text[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token("PUNCT", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            # a '.' starts a float only when not the '..' range token
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("FLOAT", text[i:j], start_line, start_col))
            else:
                tokens.append(Token("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            tokens.append(Token("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise KernelSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
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
            if tok.kind not in ("IDENT", "INT") and tok.text not in ("+", "-"):
                self.error("array extents may only use params, literals, + and -", tok)
            raw += self.next().text
        pieces = raw.split("x")
        if not (1 <= len(pieces) <= 2):
            self.error("arrays must have rank 1 or 2", name_tok)
        extents = []
        for piece in pieces:
            extents.append(self.parse_extent_text(piece, name_tok))
        return extents

    def parse_extent_text(self, piece: str, tok: Token) -> AffineExpr:
        expr = AffineExpr.of(0)
        sign = 1
        atom = ""

        def flush():
            nonlocal expr, atom, sign
            if not atom:
                self.error(f"bad array extent {piece!r}", tok)
            if atom.isdigit():
                expr = AffineExpr(expr.terms, expr.const + sign * int(atom))
            elif atom in self.params:
                coeffs = dict(expr.terms)
                coeffs[atom] = coeffs.get(atom, 0) + sign
                expr = AffineExpr(tuple(sorted(coeffs.items())), expr.const)
            else:
                raise UnknownIdentifier(
                    f"unknown parameter {atom!r} in array extent", tok.line, tok.col)
            atom = ""

        for ch in piece:
            if ch in "+-":
                flush()
                sign = 1 if ch == "+" else -1
            else:
                atom += ch
        flush()
        return expr

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
            bound = int(bound_tok.text)
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
        cond = self.parse_cmp()
        if self.peek().text == "?":
            self.next()
            then = self.parse_expr()
            self.expect(":")
            orelse = self.parse_expr()
            return Ternary(cond, then, orelse)
        return cond

    def parse_cmp(self) -> Expr:
        lhs = self.parse_add()
        if self.peek().text in CMP_OPS:
            op = self.next().text
            rhs = self.parse_add()
            return BinOp(op, lhs, rhs)
        return lhs

    def parse_add(self) -> Expr:
        expr = self.parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            expr = BinOp(op, expr, self.parse_mul())
        return expr

    def parse_mul(self) -> Expr:
        expr = self.parse_unary()
        while self.peek().text in ("*", "/", "%"):
            op = self.next().text
            expr = BinOp(op, expr, self.parse_unary())
        return expr

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

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntLit(int(tok.text))
        if tok.kind == "FLOAT":
            self.next()
            return FloatLit(float(tok.text))
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

_PREC = {"?": 0, "==": 1, "!=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
         "+": 2, "-": 2, "*": 3, "/": 3, "%": 3}


def _fmt_expr(e: Expr, parent_prec: int = 0, right: bool = False) -> str:
    if isinstance(e, IntLit):
        text = str(e.value)
        return f"({text})" if e.value < 0 and parent_prec >= 3 else text
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ArrayRef):
        return e.name + "".join(f"[{_fmt_expr(i)}]" for i in e.indices)
    if isinstance(e, Ternary):
        text = (f"{_fmt_expr(e.cond, 1)} ? {_fmt_expr(e.then)}"
                f" : {_fmt_expr(e.orelse)}")
        return f"({text})" if parent_prec > 0 else text
    prec = _PREC[e.op]
    lhs = _fmt_expr(e.lhs, prec)
    rhs = _fmt_expr(e.rhs, prec, right=True)
    text = f"{lhs} {e.op} {rhs}" if prec == 1 else f"{lhs}{e.op}{rhs}"
    # a right child at the same precedence needs parens under - / %
    if prec > parent_prec or (prec == parent_prec and not right):
        return text
    return f"({text})"


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


def allocate_arrays(k: Kernel, params: dict[str, int],
                    rng: Optional[np.random.Generator] = None,
                    low: int = -100, high: int = 100) -> dict[str, np.ndarray]:
    """Allocate (optionally randomized) backing arrays for a kernel's decls."""
    out: dict[str, np.ndarray] = {}
    for decl in k.arrays:
        shape = tuple(e.evaluate(params) for e in decl.extents)
        if any(s < 0 for s in shape):
            raise EvalError(f"array {decl.name} has negative extent {shape}")
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


def evaluate_kernel(k: Kernel, arrays: dict[str, np.ndarray],
                    params: dict[str, int]) -> dict[str, np.ndarray]:
    """Run the kernel in software; the ground truth for every other path.

    Returns fresh arrays (inputs are not modified).  Integer arithmetic wraps
    to 32 bits, comparisons yield 1/0, division truncates toward zero.
    """
    state = {name: np.array(a, copy=True) for name, a in arrays.items()}
    for decl in k.arrays:
        if decl.name not in state:
            raise EvalError(f"missing array {decl.name!r}")
    _Interpreter(k, state, params).block([k.nest], dict(params))
    return state


class _Interpreter:
    """Tree-walking evaluation of one kernel call over ``state``.

    Plain methods rather than nested recursive closures: a closure that
    calls itself refers to itself through its own cell, and the resulting
    cycle would keep ``state`` (a copy of every array) alive until the
    cyclic collector runs.
    """

    def __init__(self, k: Kernel, state: dict[str, np.ndarray],
                 params: dict[str, int]):
        self.state = state
        self.params = params
        self.floats = {a.name for a in k.arrays if a.dtype == "float32"}

    def expr(self, e: Expr, env: dict[str, int]):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, FloatLit):
            return e.value
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, ArrayRef):
            idx = tuple(self.expr(i, env) for i in e.indices)
            arr = self.state[e.name]
            for d, i in enumerate(idx):
                if not (0 <= i < arr.shape[d]):
                    raise EvalError(f"{e.name}{list(idx)} out of bounds {arr.shape}")
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
                idx = tuple(self.expr(i, env) for i in s.target.indices)
                arr = self.state[s.target.name]
                for d, i in enumerate(idx):
                    if not (0 <= i < arr.shape[d]):
                        raise EvalError(
                            f"{s.target.name}{list(idx)} out of bounds {arr.shape}")
                value = self.expr(s.value, env)
                arr[idx] = value if s.target.name in self.floats else wrap32(value)
