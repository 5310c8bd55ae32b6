"""Lexer and parser for theory files.

A theory file is a sequence of ``datatype`` and ``fun``/``primrec``
declarations.  Declared types and equations appear inside double-quoted
strings and are re-lexed with their file position preserved, so
diagnostics point at the real location.

The lexical rules are defined in one place, the ``_TOKEN_RE`` pattern:
leading whitespace, then one named group per token kind, the first that
matches winning.  Each token costs one match, and positions are
recounted only across the whitespace, strings and comments that hold a
line break.  Only nested comments need code of their own.

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


# The lexical rules: optional whitespace (NL if it holds a line break),
# then the first of these alternatives that matches.  ``\w`` is a
# character for which ``str.isalnum`` holds, or ``_``; ``\d`` is a decimal
# digit (``str.isdecimal``).  COMMENT produces no token; EOF matches only
# at the end of the text, and ERROR at any character no rule accepts.
_TOKEN_RE = re.compile(r"[ \t\r]*(?P<NL>\n[ \t\r\n]*)?(?:" + "|".join([
    r"(?P<COMMENT>\(\*)",
    r'(?P<STRING>"[^"]*")',
    r"(?P<LAMBDA>\\<lambda>|%)",
    r"(?P<TYVAR>'[^\W\d][\w'@]*)",
    r"(?P<NUMBER>\d+)",
    r"(?P<IDENT>[^\W\d][\w'@]*)",
    "(?P<SYM>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<EOF>\Z)",
    r"(?P<ERROR>.)",
]) + ")")
_PLAIN = frozenset(["IDENT", "SYM", "NUMBER", "LAMBDA"])  # value is the matched text
_COMMENT_RE = re.compile(r"\(\*|\*\)")
_NO_MATCH = {'"': "unterminated string", "'": "expected a type variable name after '"}


def tokenize(text, line=1, column=1):
    """Lex ``text`` into tokens, starting at the given file position."""
    tokens = []
    match = _TOKEN_RE.match
    # The column of offset k on the current line is k + shift.  ``column``
    # is the end column of the last token or comment, which ended at ``i``;
    # a token that starts there shares that int object.
    shift = column
    i = 0
    while True:
        m = match(text, i)
        kind = m.lastgroup
        start, end = m.span(kind)
        if start != i:  # after whitespace
            if m["NL"] is not None:
                line += text.count("\n", i, start)
                shift = -text.rindex("\n", i, start)
            column = start + shift
        if kind in _PLAIN:
            end_column = end + shift
            tokens.append(Token(kind, text[start:end], line, column, line, end_column))
        elif kind == "STRING" or kind == "COMMENT":
            if kind == "COMMENT":
                depth = 1
                while depth:
                    delim = _COMMENT_RE.search(text, end)
                    if delim is None:
                        raise ParseError(line, column, "unterminated comment")
                    depth += 1 if delim.group() == "(*" else -1
                    end = delim.end()
            start_line = line
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                shift = -text.rindex("\n", start, end)
            end_column = end + shift
            if kind == "STRING":
                tokens.append(Token(kind, text[start + 1:end - 1], start_line, column, line, end_column))
        elif kind == "TYVAR":
            end_column = end + shift
            tokens.append(Token(kind, text[start + 1:end], line, column, line, end_column))
        elif kind == "EOF":
            tokens.append(Token(kind, "", line, column, line, column))
            return tokens
        else:
            raise ParseError(line, column, _NO_MATCH.get(text[start], f"unexpected character {text[start]!r}"))
        i, column = end, end_column


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


def _span(first, last):
    """The span from the start of ``first`` to the end of ``last``, each a
    token or a span."""
    return Span(first.line, first.column, last.end_line, last.end_column)


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.cur = tokens[0]

    def next(self):
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def match_sym(self, value):
        if self.cur.kind == "SYM" and self.cur.value == value:
            return self.next()
        return None

    def match_kw(self, word):
        if self.cur.kind == "IDENT" and self.cur.value == word:
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
        return [Var(name, counter)]
    if tok.kind == "IDENT":
        ts.next()
        if tok.value in PRIMITIVE_NAMES:
            return [Prim(tok.value)]
        return [Constructed((), tok.value)]
    if tok.kind == "SYM" and tok.value == "(":
        ts.next()
        parts = [_parse_type_expr(ts)]
        while ts.match_sym(","):
            parts.append(_parse_type_expr(ts))
        ts.expect_sym(")")
        return parts
    raise ParseError(tok.line, tok.column, f"expected a type, found {tok.value or tok.kind!r}")


def _parse_type_postfix(ts):
    parts = _parse_type_primary(ts)
    while ts.cur.kind == "IDENT" and ts.cur.value not in KEYWORDS:
        parts = [Constructed(tuple(parts), ts.next().value)]
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
                span = _span(head, args[-1].span)
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
            return AppExpr(self.fresh(), _span(tok, tok), head=tok.value, args=[])
        return VarExpr(self.fresh(), _span(tok, tok), name=tok.value)

    def _literal(self, tok):
        """The integer or boolean literal at ``tok``, consumed, or None."""
        if tok.kind == "NUMBER" or (tok.kind == "IDENT" and tok.value in ("True", "False")):
            self.ts.next()
            kind = INTEGRAL if tok.kind == "NUMBER" else BOOLEAN
            return ConstExpr(self.fresh(), _span(tok, tok), literal=tok.value, literal_kind=kind)
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
            inner.span = _span(tok, close)
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
        span = _span(open_tok, close)
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
        return LambdaExpr(self.fresh(), _span(lam, body.span),
                          params=params, param_ids=param_ids, body=body)

    def parse_let(self):
        kw = self.ts.next()
        pattern = self.parse_pattern()
        self.ts.expect_sym("=", "'=' in let binding")
        bound = self.parse_expr()
        self.ts.expect_kw("in")
        body = self.parse_expr()
        return LetInExpr(self.fresh(), _span(kw, body.span),
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
        span = _span(kw, branches[-1][1].span)
        return CaseExpr(self.fresh(), span, scrutinee=scrutinee, branches=branches)

    def parse_if(self):
        kw = self.ts.next()
        cond = self.parse_expr()
        self.ts.expect_kw("then")
        then = self.parse_expr()
        self.ts.expect_kw("else")
        otherwise = self.parse_expr()
        # One inference path for both spellings: If is an ordinary builtin.
        span = _span(kw, otherwise.span)
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
            left = AppExpr(self.fresh(), _span(left.span, right.span), head=tok.value, args=[left, right])

    def parse_app(self):
        tok = self.ts.cur
        if tok.kind == "IDENT" and tok.value not in KEYWORDS and tok.value not in ("True", "False"):
            head = self.ts.next()
            args = []
            while self._at_atom():
                args.append(self.parse_atom())
            if args:
                return AppExpr(self.fresh(), _span(head, args[-1].span),
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
            inner.span = _span(tok, close)
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
    return DatatypeDecl(name, type_params, ctors, _span(kw, ts.tokens[ts.pos - 1]))


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
                        _span(kw, ts.tokens[ts.pos - 1]))


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
