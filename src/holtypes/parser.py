"""Lexer and parser for theory files.

A theory file is a sequence of ``datatype`` and ``fun``/``primrec``
declarations.  Declared types and equations appear inside double-quoted
strings and are re-lexed with their file position preserved, so
diagnostics point at the real location.

The lexical rules are defined in one place, the ``_TOKEN_RE`` pattern:
one named group per token kind, tried in order at each position.  Only
nested comments need code of their own.

Application by juxtaposition (arguments are atoms) binds tightest; the
binary operators bind and associate as ``exprs.BINARY_OPS`` and
``exprs.RIGHT_ASSOC`` say, parsed by one precedence-climbing loop.

``if/then/else`` lowers to an application of the builtin ``If``; the
empty list ``[]`` and empty set ``{}`` lower to the nullary constructors
``Nil`` and ``EmptySet``.
"""

from __future__ import annotations

import re

from .errors import ArityMismatchError, DuplicateNameError, ParseError
from .exprs import (
    BINARY_OPS,
    RIGHT_ASSOC,
    AppExpr,
    BOOLEAN,
    ConstExpr,
    CaseExpr,
    INTEGRAL,
    LambdaExpr,
    LetInExpr,
    ListExpr,
    SetExpr,
    Span,
    VarExpr,
    walk,
)
from .records import Record
from .types import BUILTIN_UNARY_CTORS, Constructed, Fun, Prim, PRIMITIVE_NAMES, Tuple, Var

KEYWORDS = frozenset(
    ["fun", "primrec", "datatype", "where", "if", "then", "else", "case", "of", "let", "in", "div"]
)

BUILTIN_CTOR_NAMES = frozenset(["Cons", "Nil", "Some", "None", "EmptySet"])

_SYMBOLS = ["=>", "::", "=", "<", "+", "-", "*", "#", "!", "|", "(", ")", "[", "]", "{", "}", ",", "."]


class Token(Record):
    __slots__ = ("kind", "value", "line", "column", "end_line", "end_column")

    def __init__(self, kind, value, line, column, end_line=0, end_column=0):
        self.kind, self.value = kind, value  # kind: IDENT TYVAR NUMBER STRING LAMBDA SYM EOF
        self.line, self.column = line, column
        self.end_line, self.end_column = end_line, end_column

    def span(self):
        return Span(self.line, self.column, self.end_line, self.end_column)


# The lexical rules, tried in this order at each position.  ``\w`` is a
# character for which ``str.isalnum`` holds, or ``_``; ``\d`` is a decimal
# digit (``str.isdecimal``).  WS and COMMENT produce no token.
_TOKEN_RE = re.compile("|".join([
    r"(?P<WS>[ \t\r\n]+)",
    r"(?P<COMMENT>\(\*)",
    r'(?P<STRING>"[^"]*")',
    r"(?P<LAMBDA>\\<lambda>|%)",
    r"(?P<TYVAR>'[^\W\d][\w'@]*)",
    r"(?P<NUMBER>\d+)",
    r"(?P<IDENT>[^\W\d][\w'@]*)",
    "(?P<SYM>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
]))
_COMMENT_RE = re.compile(r"\(\*|\*\)")
_NO_MATCH = {'"': "unterminated string", "'": "expected a type variable name after '"}


def tokenize(text, line=1, column=1):
    """Lex ``text`` into tokens, starting at the given file position."""
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(line, column, _NO_MATCH.get(text[i], f"unexpected character {text[i]!r}"))
        kind, j = m.lastgroup, m.end()
        depth = 1 if kind == "COMMENT" else 0
        while depth:
            delim = _COMMENT_RE.search(text, j)
            if delim is None:
                raise ParseError(line, column, "unterminated comment")
            depth += 1 if delim.group() == "(*" else -1
            j = delim.end()
        newlines = text.count("\n", i, j)
        end_line = line + newlines
        end_column = j - text.rindex("\n", i, j) if newlines else column + j - i
        if kind not in ("WS", "COMMENT"):
            value = text[i:j]
            if kind == "STRING":
                value = value[1:-1]
            elif kind == "TYVAR":
                value = value[1:]
            tokens.append(Token(kind, value, line, column, end_line, end_column))
        i, line, column = j, end_line, end_column
    tokens.append(Token("EOF", "", line, column, line, column))
    return tokens


class DatatypeDecl(Record):
    __slots__ = ("name", "type_params", "ctors", "span")

    def __init__(self, name, type_params, ctors, span=None):
        self.name, self.type_params = name, type_params
        self.ctors, self.span = ctors, span or Span(0, 0, 0, 0)  # ctors: [(name, [TypeExpr])]


class FunctionSpec(Record):
    __slots__ = ("name", "declared_type", "equations", "span")

    def __init__(self, name, declared_type, equations, span=None):
        self.name, self.declared_type = name, declared_type  # a Fun
        self.equations, self.span = equations, span or Span(0, 0, 0, 0)  # [([pattern], rhs)]

    @property
    def param_types(self):
        return list(self.declared_type.parts[:-1])

    @property
    def return_type(self):
        return self.declared_type.parts[-1]


class TheoryFile(Record):
    __slots__ = ("datatypes", "functions")

    def __init__(self, datatypes, functions):
        self.datatypes, self.functions = datatypes, functions

    def all_exprs(self):
        for f in self.functions:
            for patterns, rhs in f.equations:
                for root in (*patterns, rhs):
                    yield from walk(root)


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def match_sym(self, *values):
        if self.cur.kind == "SYM" and self.cur.value in values:
            return self.next()
        return None

    def match_kw(self, *words):
        if self.cur.kind == "IDENT" and self.cur.value in words:
            return self.next()
        return None

    def expect_sym(self, value, what=None):
        tok = self.match_sym(value)
        if tok is None:
            raise ParseError(
                self.cur.line, self.cur.column,
                f"expected {what or value!r}, found {self.cur.value or self.cur.kind!r}",
            )
        return tok

    def expect_kw(self, word):
        if self.match_kw(word) is None:
            raise ParseError(self.cur.line, self.cur.column, f"expected {word!r}")

    def expect_ident(self, what="identifier"):
        if self.cur.kind != "IDENT":
            raise ParseError(
                self.cur.line, self.cur.column,
                f"expected {what}, found {self.cur.value or self.cur.kind!r}",
            )
        return self.next()

    def at_eof(self):
        return self.cur.kind == "EOF"


# ---------------------------------------------------------------------------
# Types


def _parse_type_primary(ts):
    tok = ts.cur
    if tok.kind == "TYVAR":
        ts.next()
        name = tok.value
        counter = None
        if ts.cur.kind == "SYM" and ts.cur.value == "#":
            ts.next()
            num = ts.cur
            if num.kind != "NUMBER":
                raise ParseError(num.line, num.column, "expected a counter after '#'")
            ts.next()
            counter = int(num.value)
        return [Var(name, counter)], False
    if tok.kind == "IDENT":
        ts.next()
        if tok.value in PRIMITIVE_NAMES:
            return [Prim(tok.value)], False
        return [Constructed((), tok.value)], False
    if tok.kind == "SYM" and tok.value == "(":
        ts.next()
        parts = [_parse_type_expr(ts)]
        while ts.match_sym(","):
            parts.append(_parse_type_expr(ts))
        ts.expect_sym(")")
        return parts, True
    raise ParseError(tok.line, tok.column, f"expected a type, found {tok.value or tok.kind!r}")


def _parse_type_postfix(ts):
    parts, grouped = _parse_type_primary(ts)
    first = True
    while ts.cur.kind == "IDENT" and ts.cur.value not in KEYWORDS:
        ctor = ts.next().value
        if first and grouped:
            parts = [Constructed(tuple(parts), ctor)]
        else:
            if len(parts) != 1:
                break
            parts = [Constructed((parts[0],), ctor)]
        first = False
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return Tuple(parts[0], parts[1])
    raise ParseError(ts.cur.line, ts.cur.column, "tuple types are binary; did you mean a constructor application?")


def _parse_type_expr(ts):
    parts = [_parse_type_postfix(ts)]
    while ts.match_sym("=>"):
        parts.append(_parse_type_postfix(ts))
    if len(parts) == 1:
        return parts[0]
    return Fun(tuple(parts))


def parse_type(text, line=1, column=1):
    """Parse a type expression from concrete syntax."""
    ts = _TokenStream(tokenize(text, line, column))
    try:
        t = _parse_type_expr(ts)
    except ValueError as err:
        raise ParseError(ts.cur.line, ts.cur.column, str(err)) from None
    if not ts.at_eof():
        tok = ts.cur
        raise ParseError(tok.line, tok.column, f"unexpected {tok.value!r} after type")
    return t


# ---------------------------------------------------------------------------
# Expressions


class _ExprParser:
    """Parses the expression language inside equation strings."""

    def __init__(self, ts, ids, known_ctors):
        self.ts = ts
        self.ids = ids
        self.known_ctors = known_ctors

    def fresh(self):
        return self.ids.fresh()

    # -- patterns ----------------------------------------------------------

    def parse_pattern(self):
        return self.parse_binary(self.parse_pattern_app, {"#": BINARY_OPS["#"]})

    def parse_pattern_app(self):
        tok = self.ts.cur
        if tok.kind == "IDENT" and tok.value not in KEYWORDS and tok.value not in ("True", "False"):
            head = self.ts.next()
            args = []
            while self._at_pattern_atom():
                args.append(self.parse_pattern_atom())
            if args:
                span = head.span().to(args[-1].span)
                return AppExpr(self.fresh(), span, head=head.value, args=args)
            return self._name(head)
        return self.parse_pattern_atom()

    def _at_pattern_atom(self):
        tok = self.ts.cur
        if tok.kind in ("IDENT", "NUMBER"):
            return tok.kind == "NUMBER" or tok.value not in KEYWORDS
        return tok.kind == "SYM" and tok.value in ("(", "[", "{")

    def _name(self, tok):
        # A bare constructor name is a nullary construction, not a variable.
        if tok.value in self.known_ctors:
            return AppExpr(self.fresh(), tok.span(), head=tok.value, args=[])
        return VarExpr(self.fresh(), tok.span(), name=tok.value)

    def _literal(self, tok):
        """The integer or boolean literal at ``tok``, consumed, or None."""
        if tok.kind == "NUMBER" or (tok.kind == "IDENT" and tok.value in ("True", "False")):
            self.ts.next()
            kind = INTEGRAL if tok.kind == "NUMBER" else BOOLEAN
            return ConstExpr(self.fresh(), tok.span(), literal=tok.value, literal_kind=kind)
        return None

    def parse_pattern_atom(self):
        tok = self.ts.cur
        lit = self._literal(tok)
        if lit is not None:
            return lit
        if tok.kind == "IDENT":
            if tok.value in KEYWORDS:
                raise ParseError(tok.line, tok.column, f"{tok.value!r} is not valid in a pattern")
            self.ts.next()
            return self._name(tok)
        if tok.kind == "SYM" and tok.value == "(":
            self.ts.next()
            inner = self.parse_pattern()
            close = self.ts.expect_sym(")")
            inner.span = tok.span().to(close.span())
            return inner
        if tok.kind == "SYM" and tok.value == "[":
            return self._bracketed("[", "]", ListExpr, "Nil", self.parse_pattern)
        if tok.kind == "SYM" and tok.value == "{":
            return self._bracketed("{", "}", SetExpr, "EmptySet", self.parse_pattern)
        raise ParseError(tok.line, tok.column, f"expected a pattern, found {tok.value or tok.kind!r}")

    def _bracketed(self, open_sym, close_sym, node_cls, empty_ctor, parse_elem):
        # Shared by patterns and expressions; only the element parser differs.
        open_tok = self.ts.expect_sym(open_sym)
        elems = []
        if not (self.ts.cur.kind == "SYM" and self.ts.cur.value == close_sym):
            elems.append(parse_elem())
            while self.ts.match_sym(","):
                elems.append(parse_elem())
        close = self.ts.expect_sym(close_sym)
        span = open_tok.span().to(close.span())
        if not elems:
            return AppExpr(self.fresh(), span, head=empty_ctor, args=[])
        return node_cls(self.fresh(), span, elems=elems)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        tok = self.ts.cur
        if tok.kind == "LAMBDA":
            return self.parse_lambda()
        if tok.kind == "IDENT" and tok.value == "let":
            return self.parse_let()
        if tok.kind == "IDENT" and tok.value == "case":
            return self.parse_case()
        if tok.kind == "IDENT" and tok.value == "if":
            return self.parse_if()
        return self.parse_binary(self.parse_app)

    def parse_lambda(self):
        lam = self.ts.next()
        params = []
        while self.ts.cur.kind == "IDENT" and self.ts.cur.value not in KEYWORDS:
            params.append(self.ts.next().value)
        if not params:
            raise ParseError(self.ts.cur.line, self.ts.cur.column, "lambda needs at least one parameter")
        self.ts.expect_sym(".", "'.' after lambda parameters")
        body = self.parse_expr()
        param_ids = [self.fresh() for _ in params]
        return LambdaExpr(self.fresh(), lam.span().to(body.span),
                          params=params, param_ids=param_ids, body=body)

    def parse_let(self):
        kw = self.ts.next()
        pattern = self.parse_pattern()
        self.ts.expect_sym("=", "'=' in let binding")
        bound = self.parse_expr()
        self.ts.expect_kw("in")
        body = self.parse_expr()
        return LetInExpr(self.fresh(), kw.span().to(body.span),
                         pattern=pattern, bound=bound, body=body)

    def parse_case(self):
        kw = self.ts.next()
        scrutinee = self.parse_expr()
        self.ts.expect_kw("of")
        branches = []
        while True:
            pattern = self.parse_pattern()
            self.ts.expect_sym("=>", "'=>' in case branch")
            body = self.parse_expr()
            branches.append((pattern, body))
            if not self.ts.match_sym("|"):
                break
        span = kw.span().to(branches[-1][1].span)
        return CaseExpr(self.fresh(), span, scrutinee=scrutinee, branches=branches)

    def parse_if(self):
        kw = self.ts.next()
        cond = self.parse_expr()
        self.ts.expect_kw("then")
        then = self.parse_expr()
        self.ts.expect_kw("else")
        otherwise = self.parse_expr()
        # One inference path for both spellings: If is an ordinary builtin.
        span = kw.span().to(otherwise.span)
        return AppExpr(self.fresh(), span, head="If", args=[cond, then, otherwise])

    def parse_binary(self, parse_operand, ops=BINARY_OPS, min_level=1):
        """Precedence climbing: an operand, then every operator of ``ops``
        (name -> level) at ``min_level`` or tighter with its right operand."""
        left = parse_operand()
        while True:
            tok = self.ts.cur
            # Only symbols and keywords: the type variable 'div has value "div" too.
            level = ops.get(tok.value, 0) if tok.kind in ("SYM", "IDENT") else 0
            if level < min_level:
                return left
            self.ts.next()
            right = self.parse_binary(parse_operand, ops,
                                      level if tok.value in RIGHT_ASSOC else level + 1)
            left = AppExpr(self.fresh(), left.span.to(right.span), head=tok.value, args=[left, right])

    def parse_app(self):
        tok = self.ts.cur
        if tok.kind == "IDENT" and tok.value not in KEYWORDS and tok.value not in ("True", "False"):
            head = self.ts.next()
            args = []
            while self._at_atom():
                args.append(self.parse_atom())
            if args:
                return AppExpr(self.fresh(), head.span().to(args[-1].span),
                               head=head.value, args=args)
            return self._name(head)
        atom = self.parse_atom()
        if self._at_atom():
            nxt = self.ts.cur
            raise ParseError(nxt.line, nxt.column, "application head must be an identifier")
        return atom

    def _at_atom(self):
        return self.ts.cur.kind == "LAMBDA" or self._at_pattern_atom()

    def parse_atom(self):
        tok = self.ts.cur
        lit = self._literal(tok)
        if lit is not None:
            return lit
        if tok.kind == "IDENT":
            if tok.value in KEYWORDS:
                raise ParseError(tok.line, tok.column, f"unexpected keyword {tok.value!r}")
            self.ts.next()
            return self._name(tok)
        if tok.kind == "LAMBDA":
            return self.parse_lambda()
        if tok.kind == "SYM" and tok.value == "(":
            self.ts.next()
            inner = self.parse_expr()
            if self.ts.cur.kind == "SYM" and self.ts.cur.value == ",":
                raise ParseError(self.ts.cur.line, self.ts.cur.column,
                                 "tuple expressions are not supported")
            close = self.ts.expect_sym(")")
            inner.span = tok.span().to(close.span())
            return inner
        if tok.kind == "SYM" and tok.value == "[":
            return self._bracketed("[", "]", ListExpr, "Nil", self.parse_expr)
        if tok.kind == "SYM" and tok.value == "{":
            return self._bracketed("{", "}", SetExpr, "EmptySet", self.parse_expr)
        raise ParseError(tok.line, tok.column, f"expected an expression, found {tok.value or tok.kind!r}")

class _IdAllocator:
    def __init__(self):
        self.next_id = 0

    def fresh(self):
        nid = self.next_id
        self.next_id += 1
        return nid


# ---------------------------------------------------------------------------
# Theory files


def _validate_declared_type(t, tok):
    if any(v.counter is not None for v in t.fv):
        raise ParseError(tok.line, tok.column,
                         "modification suffixes ('#') are reserved for the inference engine")


def _parse_datatype(ts, ids, known_ctors, declared):
    kw = ts.next()  # 'datatype'
    type_params = []
    if ts.cur.kind == "TYVAR":
        tok = ts.next()
        type_params.append(tok.value)
    elif ts.cur.kind == "SYM" and ts.cur.value == "(":
        ts.next()
        while True:
            tok = ts.cur
            if tok.kind != "TYVAR":
                raise ParseError(tok.line, tok.column, "expected a type variable")
            type_params.append(ts.next().value)
            if not ts.match_sym(","):
                break
        ts.expect_sym(")")
    name_tok = ts.expect_ident("datatype name")
    name = name_tok.value
    if name in declared:
        raise DuplicateNameError(name)
    declared.add(name)
    if name in PRIMITIVE_NAMES or name in BUILTIN_UNARY_CTORS:
        raise ParseError(name_tok.line, name_tok.column, f"cannot redefine the builtin type {name!r}")
    ts.expect_sym("=", "'=' after datatype name")
    ctors = []
    param_set = set(type_params)
    while True:
        ctor_tok = ts.expect_ident("constructor name")
        if ctor_tok.value in declared or ctor_tok.value in known_ctors:
            raise DuplicateNameError(ctor_tok.value)
        arg_types = []
        while True:
            tok = ts.cur
            if tok.kind == "STRING":
                ts.next()
                arg_types.append(parse_type(tok.value, tok.line, tok.column + 1))
            elif tok.kind == "TYVAR":
                ts.next()
                arg_types.append(Var(tok.value))
            elif tok.kind == "IDENT" and tok.value not in KEYWORDS:
                ts.next()
                if tok.value in PRIMITIVE_NAMES:
                    arg_types.append(Prim(tok.value))
                else:
                    try:
                        arg_types.append(Constructed((), tok.value))
                    except ValueError:
                        raise ParseError(
                            tok.line, tok.column,
                            f"quote compound argument types: \"... {tok.value}\"",
                        ) from None
            else:
                break
        for at in arg_types:
            _validate_declared_type(at, ctor_tok)
            stray = sorted(v.name for v in at.fv if v.name not in param_set)
            if stray:
                raise ParseError(ctor_tok.line, ctor_tok.column,
                                 f"type variable '{stray[0]} not among the datatype parameters")
        ctors.append((ctor_tok.value, arg_types))
        declared.add(ctor_tok.value)
        known_ctors.add(ctor_tok.value)
        if not ts.match_sym("|"):
            break
    return DatatypeDecl(name, type_params, ctors, kw.span().to(ts.tokens[ts.pos - 1].span()))


def _parse_equation(text, line, column, ids, known_ctors):
    ts = _TokenStream(tokenize(text, line, column))
    ep = _ExprParser(ts, ids, known_ctors)
    head = ts.expect_ident("function name")
    patterns = []
    while not (ts.cur.kind == "SYM" and ts.cur.value == "="):
        if ts.at_eof():
            raise ParseError(ts.cur.line, ts.cur.column, "expected '=' in equation")
        patterns.append(ep.parse_pattern_atom())
    ts.expect_sym("=")
    rhs = ep.parse_expr()
    if not ts.at_eof():
        tok = ts.cur
        raise ParseError(tok.line, tok.column, f"unexpected {tok.value!r} after equation")
    return head.value, patterns, rhs


def _parse_function(ts, ids, known_ctors, declared):
    kw = ts.next()  # 'fun' or 'primrec'
    name_tok = ts.expect_ident("function name")
    name = name_tok.value
    if name in declared:
        raise DuplicateNameError(name)
    ts.expect_sym("::", "'::' after function name")
    type_tok = ts.cur
    if type_tok.kind != "STRING":
        raise ParseError(type_tok.line, type_tok.column, "expected a quoted type")
    ts.next()
    declared_type = parse_type(type_tok.value, type_tok.line, type_tok.column + 1)
    _validate_declared_type(declared_type, type_tok)
    if not isinstance(declared_type, Fun):
        raise ParseError(type_tok.line, type_tok.column,
                         f"function {name!r} needs a function type")
    ts.expect_kw("where")
    declared.add(name)
    n_params = len(declared_type.parts) - 1
    equations = []
    while True:
        eq_tok = ts.cur
        if eq_tok.kind != "STRING":
            raise ParseError(eq_tok.line, eq_tok.column, "expected a quoted equation")
        ts.next()
        head, patterns, rhs = _parse_equation(
            eq_tok.value, eq_tok.line, eq_tok.column + 1, ids, known_ctors
        )
        if head != name:
            raise ParseError(eq_tok.line, eq_tok.column,
                             f"equation head {head!r} does not match function {name!r}")
        if len(patterns) != n_params:
            raise ArityMismatchError(name, n_params, len(patterns),
                                     eq_tok.line, eq_tok.column)
        equations.append((patterns, rhs))
        if not ts.match_sym("|"):
            break
    return FunctionSpec(name, declared_type, equations,
                        kw.span().to(ts.tokens[ts.pos - 1].span()))


def parse_theory(text):
    """Parse a theory file into declarations with fresh node ids."""
    ts = _TokenStream(tokenize(text))
    ids = _IdAllocator()
    known_ctors = set(BUILTIN_CTOR_NAMES)
    declared = set()
    datatypes = []
    functions = []
    while not ts.at_eof():
        tok = ts.cur
        if tok.kind == "IDENT" and tok.value == "datatype":
            datatypes.append(_parse_datatype(ts, ids, known_ctors, declared))
        elif tok.kind == "IDENT" and tok.value in ("fun", "primrec"):
            functions.append(_parse_function(ts, ids, known_ctors, declared))
        else:
            raise ParseError(tok.line, tok.column,
                             f"expected 'datatype', 'fun' or 'primrec', found {tok.value or tok.kind!r}")
    return TheoryFile(datatypes, functions)
