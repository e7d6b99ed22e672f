"""Recursive-descent parser for the Skil subset.

Grammar highlights (beyond plain C):

* type variables ``$t`` may appear wherever a type may;
* parameterized type declarations: ``typedef struct _list * list<$t>;``
  (the angle-bracketed variables are declared *after* the introduced
  name, following the paper's examples);
* ``pardata name <$t1,...,$tn> [implem] ;`` — the implementation is
  optional ("similarly to prototypes of library functions, whose header
  is visible, but whose body is not");
* function parameters may be function headers: ``$b solve ($a)``;
* ``(op)`` converts an operator to a function, and can itself be
  partially applied: ``(*)(2)``;
* ``{a, b}`` is the Index/Size literal of the paper's pseudo-code.

Casts are restricted to primitive keyword types (``(float) x``); that is
all the sample programs need and it avoids the classic C ambiguity.
"""

from __future__ import annotations

from repro.errors import SkilSyntaxError
from repro.lang import ast as A
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokKind
from repro.lang.types import (
    BOUNDS,
    CHAR,
    DOUBLE,
    FLOAT,
    INDEX,
    INT,
    SIZE,
    UNSIGNED,
    VOID,
    TArray,
    TFun,
    TPardata,
    TPointer,
    TStruct,
    TVar,
    Type,
)

__all__ = ["parse", "Parser"]

_PRIM_KEYWORDS = {
    "int": INT,
    "unsigned": UNSIGNED,
    "float": FLOAT,
    "double": DOUBLE,
    "char": CHAR,
    "void": VOID,
}

_BUILTIN_TYPE_NAMES = {
    "Index": INDEX,
    "Size": SIZE,
    "Bounds": BOUNDS,
}

#: binary operator precedence (larger binds tighter)
_BINOPS = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_SECTION_OPS = {"+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!="}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%="}


class Parser:
    def __init__(self, source: str):
        toks = tokenize(source)
        #: padded with two more EOFs, so ``peek(2)`` is in range anywhere
        self.toks = toks + toks[-1:] * 2
        self.pos = 0
        #: names introduced by typedef/pardata/struct, so declarations can
        #: be told apart from expressions
        self.type_names: dict[str, int] = {"array": 1}  # name -> arity
        self.struct_decls: dict[str, A.StructDecl] = {}
        self.typedefs: dict[str, A.TypedefDecl] = {}

    # ------------------------------------------------------------------ utils
    def peek(self, off: int = 0) -> Token:
        return self.toks[self.pos + off]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        """Is the next token the punctuator ``text``?"""
        t = self.toks[self.pos]
        return t.text == text and t.kind is TokKind.PUNCT

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise SkilSyntaxError(f"{msg} (near {tok.text!r})", tok.line, tok.column)

    def expect_punct(self, text: str) -> Token:
        if not self.at(text):
            self.error(f"expected {text!r}")
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind is not TokKind.IDENT:
            self.error("expected an identifier")
        return self.next()

    def accept_punct(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    # ------------------------------------------------------------------ types
    def at_type(self) -> bool:
        t = self.peek()
        if t.kind is TokKind.TYPEVAR:
            return True
        if t.is_keyword(*_PRIM_KEYWORDS, "struct", "union"):
            return True
        if t.kind is TokKind.IDENT and (
            t.text in self.type_names or t.text in _BUILTIN_TYPE_NAMES
        ):
            return True
        return False

    def parse_type(self) -> Type:
        t = self.peek()
        if t.kind is TokKind.TYPEVAR:
            self.next()
            base: Type = TVar(t.text)
        elif t.is_keyword("unsigned"):
            self.next()
            # allow 'unsigned int'
            if self.peek().is_keyword("int"):
                self.next()
            base = UNSIGNED
        elif t.is_keyword(*_PRIM_KEYWORDS):
            self.next()
            base = _PRIM_KEYWORDS[t.text]
        elif t.is_keyword("struct", "union"):
            self.next()
            name = self.expect_ident().text
            decl = self.struct_decls.get(name)
            fields = tuple(decl.fields) if decl else ()
            base = TStruct(name, fields)
        elif t.kind is TokKind.IDENT and t.text in _BUILTIN_TYPE_NAMES:
            self.next()
            base = _BUILTIN_TYPE_NAMES[t.text]
        elif t.kind is TokKind.IDENT and t.text in self.type_names:
            self.next()
            args: tuple[Type, ...] = ()
            if self.at("<"):
                self.next()
                arglist = [self.parse_type()]
                while self.accept_punct(","):
                    arglist.append(self.parse_type())
                self._expect_close_angle()
                args = tuple(arglist)
            base = self._named_type(t.text, args)
        else:
            self.error("expected a type")
            raise AssertionError  # unreachable
        while self.at("*"):
            self.next()
            base = TPointer(base)
        return base

    def _expect_close_angle(self) -> None:
        """Consume '>', splitting a '>>' token (array<array<int>>)."""
        t = self.peek()
        if t.is_punct(">>"):
            self.toks[self.pos] = Token(TokKind.PUNCT, ">", t.line, t.column + 1)
            return
        self.expect_punct(">")

    def _named_type(self, name: str, args: tuple[Type, ...]) -> Type:
        """Resolve a typedef/pardata name applied to type arguments."""
        from repro.lang.types import contains_pardata

        arity = self.type_names.get(name, 0)
        if name == "array" or (name in self.type_names and name not in self.typedefs):
            # pardata type: its arguments may not be (or contain) pardatas
            for a in args:
                if contains_pardata(a):
                    self.error(
                        "distributed data structures may not be nested"
                    )
        if len(args) != arity:
            self.error(
                f"type {name!r} expects {arity} type argument(s), got {len(args)}"
            )
        td = self.typedefs.get(name)
        if td is not None:
            mapping = dict(zip(td.type_params, args))
            return _substitute_named(td.target, mapping)
        # pardata (or the builtin array)
        return TPardata(name, args)

    # ------------------------------------------------------------------ program
    def parse_program(self) -> A.Program:
        prog = A.Program(decls=[])
        while self.peek().kind is not TokKind.EOF:
            if self.accept_punct(";"):
                continue
            tok = self.peek()
            if tok.is_keyword("typedef"):
                prog.decls.append(self.parse_typedef())
            elif tok.is_keyword("pardata"):
                prog.decls.append(self.parse_pardata())
            elif tok.is_keyword("struct") and self.peek(2).is_punct("{"):
                prog.decls.append(self.parse_struct_decl())
            else:
                prog.decls.append(self.parse_function())
        return prog

    def parse_struct_decl(self) -> A.StructDecl:
        line = self.peek().line
        self.next()  # struct
        name = self.expect_ident().text
        self.expect_punct("{")
        fields: list[tuple[str, Type]] = []
        while not self.at("}"):
            fty = self.parse_type()
            fname = self.expect_ident().text
            fields.append((fname, fty))
            while self.accept_punct(","):
                fields.append((self.expect_ident().text, fty))
            self.expect_punct(";")
        self.expect_punct("}")
        self.expect_punct(";")
        tvars = tuple(sorted({v for _, ft in fields for v in _tvars_of(ft)}))
        decl = A.StructDecl(name, tvars, tuple(fields), line=line)
        self.struct_decls[name] = decl
        return decl

    def parse_typedef(self) -> A.TypedefDecl:
        line = self.next().line  # typedef
        target = self.parse_type()
        name = self.expect_ident().text
        params: tuple[str, ...] = ()
        if self.at("<"):
            self.next()
            plist = []
            while True:
                t = self.peek()
                if t.kind is not TokKind.TYPEVAR:
                    self.error("expected a type variable in typedef parameters")
                plist.append(self.next().text)
                if not self.accept_punct(","):
                    break
            self.expect_punct(">")
            params = tuple(plist)
        self.expect_punct(";")
        decl = A.TypedefDecl(name, params, target, line=line)
        self.type_names[name] = len(params)
        self.typedefs[name] = decl
        return decl

    def parse_pardata(self) -> A.PardataHeader:
        line = self.next().line  # pardata
        name = self.expect_ident().text
        params: list[str] = []
        if self.accept_punct("<"):
            while True:
                t = self.peek()
                if t.kind is not TokKind.TYPEVAR:
                    self.error("expected a type variable in pardata parameters")
                params.append(self.next().text)
                if not self.accept_punct(","):
                    break
            self.expect_punct(">")
        has_implem = False
        if not self.at(";"):
            # consume an implementation type (hidden from user code)
            self.parse_type()
            has_implem = True
        self.expect_punct(";")
        self.type_names[name] = len(params)
        return A.PardataHeader(name, tuple(params), has_implem, line=line)

    # ------------------------------------------------------------------ functions
    def parse_function(self) -> A.Node:
        line = self.peek().line
        ret = self.parse_type()
        name = self.expect_ident().text
        self.expect_punct("(")
        params: list[A.FuncParam] = []
        if not self.at(")"):
            while True:
                params.append(self.parse_param())
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        if self.accept_punct(";"):
            return A.FuncDecl(name, tuple(params), ret, line=line)
        body = self.parse_block()
        return A.FuncDef(name, tuple(params), ret, body, line=line)

    def parse_param(self) -> A.FuncParam:
        line = self.peek().line
        ty = self.parse_type()
        name = ""
        if self.peek().kind is TokKind.IDENT:
            name = self.next().text
        # functional parameter: `$b solve ($a, ...)`
        if self.at("("):
            self.next()
            ptypes: list[Type] = []
            if not self.at(")"):
                while True:
                    ptypes.append(self.parse_type())
                    # optional parameter names inside the header
                    if self.peek().kind is TokKind.IDENT:
                        self.next()
                    if not self.accept_punct(","):
                        break
            self.expect_punct(")")
            ty = TFun(tuple(ptypes), ty)
        while self.at("["):
            self.next()
            size = None
            if self.peek().kind is TokKind.INT:
                size = int(self.next().text)
            self.expect_punct("]")
            ty = TArray(ty, size)
        return A.FuncParam(name, ty, line=line)

    # ------------------------------------------------------------------ statements
    def parse_block(self) -> A.Block:
        line = self.expect_punct("{").line
        stmts: list[A.Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect_punct("}")
        return A.Block(stmts, line=line)

    def parse_stmt(self) -> A.Stmt:
        t = self.peek()
        if t.is_punct("{"):
            return self.parse_block()
        if t.is_keyword("if"):
            return self.parse_if()
        if t.is_keyword("while"):
            line = self.next().line
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            return A.While(cond, self.parse_stmt(), line=line)
        if t.is_keyword("for"):
            return self.parse_for()
        if t.is_keyword("return"):
            line = self.next().line
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect_punct(";")
            return A.Return(value, line=line)
        if self.at_type() and self._looks_like_decl():
            return self.parse_var_decl()
        expr = self.parse_expr()
        self.expect_punct(";")
        return A.ExprStmt(expr, line=expr.line)

    def _looks_like_decl(self) -> bool:
        """Disambiguate `list x;` (decl) from `list(x);` (call)."""
        save = self.pos
        try:
            self.parse_type()
            ok = self.peek().kind is TokKind.IDENT
        except SkilSyntaxError:
            ok = False
        self.pos = save
        return ok

    def parse_var_decl(self) -> A.Stmt:
        line = self.peek().line
        ty = self.parse_type()
        decls: list[A.Stmt] = []
        while True:
            name = self.expect_ident().text
            init = None
            if self.accept_punct("="):
                init = self.parse_expr()
            decls.append(A.VarDecl(name, ty, init, line=line))
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        if len(decls) == 1:
            return decls[0]
        return A.Block(decls, line=line)

    def parse_if(self) -> A.If:
        line = self.next().line  # if
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then = self.parse_stmt()
        orelse = None
        if self.peek().is_keyword("else"):
            self.next()
            orelse = self.parse_stmt()
        return A.If(cond, then, orelse, line=line)

    def parse_for(self) -> A.For:
        line = self.next().line  # for
        self.expect_punct("(")
        init: A.Stmt | None = None
        if not self.at(";"):
            if self.at_type() and self._looks_like_decl():
                init = self.parse_var_decl()
            else:
                init = A.ExprStmt(self.parse_expr())
                self.expect_punct(";")
        else:
            self.next()
        cond = None
        if not self.at(";"):
            cond = self.parse_expr()
        self.expect_punct(";")
        step = None
        if not self.at(")"):
            step = self.parse_expr()
        self.expect_punct(")")
        return A.For(init, cond, step, self.parse_stmt(), line=line)

    # ------------------------------------------------------------------ expressions
    def parse_expr(self) -> A.Expr:
        return self.parse_assign()

    def parse_assign(self) -> A.Expr:
        left = self.parse_cond()
        t = self.peek()
        if t.kind is TokKind.PUNCT and t.text in _ASSIGN_OPS:
            op = self.next().text
            value = self.parse_assign()
            return A.Assign(left, value, op, line=t.line)
        return left

    def parse_cond(self) -> A.Expr:
        cond = self.parse_binary(1)
        if self.at("?"):
            line = self.next().line
            then = self.parse_expr()
            self.expect_punct(":")
            orelse = self.parse_cond()
            return A.Cond(cond, then, orelse, line=line)
        return cond

    def parse_binary(self, min_prec: int) -> A.Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            prec = _BINOPS.get(t.text) if t.kind is TokKind.PUNCT else None
            if prec is None or prec < min_prec:
                return left
            # `>` could end a type-argument list, but type arguments never
            # appear in expression position, so plain greater-than is safe
            self.next()
            right = self.parse_binary(prec + 1)
            left = A.BinOp(t.text, left, right, line=t.line)

    def parse_unary(self) -> A.Expr:
        t = self.peek()
        op = t.text if t.kind is TokKind.PUNCT else ""
        if op in ("-", "!", "~"):
            self.next()
            return A.UnOp(op, self.parse_unary(), line=t.line)
        if op in ("++", "--"):
            self.next()
            inner = self.parse_unary()
            one = A.IntLit(1, line=t.line)
            return A.Assign(inner, one, t.text[0] + "=", line=t.line)
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            t = self.peek()
            op = t.text if t.kind is TokKind.PUNCT else ""
            if op == "(":
                self.next()
                args: list[A.Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                expr = A.Call(expr, args, line=t.line)
            elif op == "[":
                self.next()
                idx = self.parse_expr()
                self.expect_punct("]")
                expr = A.IndexExpr(expr, idx, line=t.line)
            elif op in (".", "->"):
                self.next()
                expr = A.Member(expr, self.expect_ident().text, op == "->", line=t.line)
            elif op in ("++", "--"):
                self.next()
                one = A.IntLit(1, line=t.line)
                expr = A.Assign(expr, one, op[0] + "=", line=t.line)
            else:
                return expr

    def parse_primary(self) -> A.Expr:
        t = self.peek()
        if t.kind is TokKind.INT:
            self.next()
            return A.IntLit(int(t.text), line=t.line)
        if t.kind is TokKind.FLOAT:
            self.next()
            return A.FloatLit(float(t.text), line=t.line)
        if t.kind is TokKind.STRING:
            self.next()
            return A.StringLit(t.text, line=t.line)
        if t.kind is TokKind.CHAR:
            self.next()
            return A.CharLit(t.text, line=t.line)
        if t.kind is TokKind.IDENT:
            self.next()
            return A.Ident(t.text, line=t.line)
        if self.at("{"):
            self.next()
            items: list[A.Expr] = []
            if not self.at("}"):
                while True:
                    items.append(self.parse_expr())
                    if not self.accept_punct(","):
                        break
            self.expect_punct("}")
            return A.BraceList(items, line=t.line)
        if self.at("("):
            # operator section `(+)` / cast `(float) x` / parenthesized expr
            nxt = self.peek(1)
            if nxt.kind is TokKind.PUNCT and nxt.text in _SECTION_OPS and self.peek(
                2
            ).is_punct(")"):
                self.next()
                op = self.next().text
                self.expect_punct(")")
                return A.OperatorSection(op, line=t.line)
            if nxt.kind is TokKind.IDENT and nxt.text in ("min", "max") and self.peek(
                2
            ).is_punct(")"):
                # `(min)` — named sections used like operators in §4.1
                self.next()
                op = self.next().text
                self.expect_punct(")")
                return A.OperatorSection(op, line=t.line)
            if nxt.is_keyword(*_PRIM_KEYWORDS):
                self.next()
                target = self.parse_type()
                self.expect_punct(")")
                return A.Cast(target, self.parse_unary(), line=t.line)
            self.next()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        self.error("expected an expression")
        raise AssertionError  # unreachable


def _tvars_of(t: Type) -> set[str]:
    from repro.lang.types import free_vars

    return free_vars(t)


def _substitute_named(t: Type, mapping: dict[str, Type]) -> Type:
    if isinstance(t, TVar):
        return mapping.get(t.name, t)
    return t.map(lambda part: _substitute_named(part, mapping))


def parse(source: str) -> A.Program:
    """Parse Skil source text into an AST."""
    return Parser(source).parse_program()
