"""The regular-expression lexer against the character loop it replaced.

``lexer_reference.tokenize`` is the old loop.  Both lexers must produce
the same tokens with the same positions, or the same error at the same
place, on every input except one declared class: characters that are
numeric but not decimal digits (``str.isdigit`` or ``str.isnumeric``
without ``str.isdecimal``, such as ``²`` and ``½``) now lex as identifier
characters.
"""

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holtypes.errors import ParseError
from holtypes.parser import _SYMBOLS, tokenize

import lexer_reference

PIECES = sorted(
    set(_SYMBOLS)
    | {"(*", "*)", '"', "'", "\\<lambda>", "%", "\\", " ", "\t", "\r", "\n", "\f", "_", "@", "é", "三"}
    | set(string.ascii_letters + string.digits)
)


def lex(tokenize_fn, text, line=1, column=1):
    """Token tuples, or the error's position and message."""
    try:
        tokens = tokenize_fn(text, line, column)
    except ParseError as err:
        return ("error", err.line, err.column, err.message)
    return [(t.kind, t.value, t.line, t.column, t.end_line, t.end_column) for t in tokens]


@settings(max_examples=500, deadline=None)
@given(
    text=st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    line=st.integers(1, 1000),
    column=st.integers(1, 200),
)
@example(text='"f x =\n  [x,\n   y]" | "g"', line=3, column=7)
@example(text="a (* one (* two\n three *)\n four *) b", line=1, column=1)
@example(text="\tfun\t f ::\t\"nat\"", line=1, column=5)
@example(text="datatype t = A\n", line=1, column=1)
@example(text="x (* open (* nested *)\n", line=2, column=1)
@example(text="a\n \t~ b", line=4, column=9)  # error after a line break in whitespace
@example(text='f "a\n  b"c "d\ne" g', line=2, column=3)  # token on a string's closing line
@example(text="(* a\n b *)c (*\n*)\n d", line=1, column=4)  # token after a multi-line comment
@example(text="f x\r\n  = y\r\n\r\nz", line=1, column=1)
@example(text="", line=3, column=5)
@example(text=" \t\r", line=1, column=7)
@example(text=" \n ", line=2, column=300)
def test_same_tokens_as_the_reference(text, line, column):
    assert lex(tokenize, text, line, column) == lex(lexer_reference.tokenize, text, line, column)


# The pieces that move the line number, and the comment closer.
LINE_PIECES = ["\n", "\r\n", '"', "(*", "*)"]


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(st.one_of(st.sampled_from(LINE_PIECES), st.sampled_from(PIECES)), max_size=30)
    .map("".join),
    line=st.integers(1, 1000),
    column=st.integers(1, 400),
)
def test_line_breaks_in_strings_and_comments_match_the_reference(text, line, column):
    assert lex(tokenize, text, line, column) == lex(lexer_reference.tokenize, text, line, column)


def test_eof_after_a_trailing_newline_starts_the_next_line():
    assert lex(tokenize, "x\n") == [("IDENT", "x", 1, 1, 1, 2), ("EOF", "", 2, 1, 2, 1)]


def test_adjacent_tokens_share_one_int_for_their_boundary_column():
    """CPython caches no int above 256, so each token of a long line that
    starts where the last one ended reuses that token's end column."""
    tokens = tokenize("f(x)#[y]", 1, 1000)
    assert [t.value for t in tokens] == ["f", "(", "x", ")", "#", "[", "y", "]", ""]
    assert all(a.end_column is b.column for a, b in zip(tokens, tokens[1:]))


def eof(column):
    return ("EOF", "", 1, column, 1, column)


@pytest.mark.parametrize("text, old, new", [
    ("²", [("NUMBER", "²", 1, 1, 1, 2), eof(2)], [("IDENT", "²", 1, 1, 1, 2), eof(2)]),
    ("½", ("error", 1, 1, "unexpected character '½'"), [("IDENT", "½", 1, 1, 1, 2), eof(2)]),
    ("'²", ("error", 1, 1, "expected a type variable name after '"), [("TYVAR", "²", 1, 1, 1, 3), eof(3)]),
])
def test_non_decimal_numerals_lex_as_identifier_characters(text, old, new):
    assert lex(lexer_reference.tokenize, text) == old
    assert lex(tokenize, text) == new
