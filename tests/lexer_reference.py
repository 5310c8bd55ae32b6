"""The character-at-a-time lexer that ``holtypes.parser.tokenize`` replaced.

A reference for the differential test in ``test_lexer.py``: the functions
below are the replaced code unchanged, so the new lexer can be compared
with it token for token.  Not used by holtypes itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from holtypes.errors import ParseError
from holtypes.exprs import Span

_SYMBOLS = ["=>", "::", "=", "<", "+", "-", "*", "#", "!", "|", "(", ")", "[", "]", "{", "}", ",", "."]


@dataclass
class Token:
    kind: str  # IDENT TYVAR NUMBER STRING LAMBDA SYM EOF
    value: str
    line: int
    column: int
    end_line: int = 0
    end_column: int = 0
    # For STRING tokens: position of the first content character.
    content_line: int = 0
    content_column: int = 0

    def span(self):
        return Span(self.line, self.column, self.end_line, self.end_column)


def _is_ident_start(ch):
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch):
    return ch.isalnum() or ch in "_'@"


def tokenize(text, line=1, column=1):
    """Lex ``text`` into tokens, starting at the given file position."""
    tokens = []
    i = 0
    n = len(text)

    def advance_pos(lexeme, ln, col):
        for ch in lexeme:
            if ch == "\n":
                ln += 1
                col = 1
            else:
                col += 1
        return ln, col

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            line, column = advance_pos(ch, line, column)
            i += 1
            continue
        if text.startswith("(*", i):
            depth = 1
            j = i + 2
            while j < n and depth:
                if text.startswith("(*", j):
                    depth += 1
                    j += 2
                elif text.startswith("*)", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth:
                raise ParseError(line, column, "unterminated comment")
            line, column = advance_pos(text[i:j], line, column)
            i = j
            continue
        start_line, start_col = line, column
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ParseError(line, column, "unterminated string")
            content = text[i + 1 : j]
            cl, cc = advance_pos('"', line, column)
            line, column = advance_pos(text[i : j + 1], line, column)
            tokens.append(
                Token("STRING", content, start_line, start_col, line, column,
                      content_line=cl, content_column=cc)
            )
            i = j + 1
            continue
        if text.startswith("\\<lambda>", i):
            lexeme = "\\<lambda>"
            line, column = advance_pos(lexeme, line, column)
            tokens.append(Token("LAMBDA", lexeme, start_line, start_col, line, column))
            i += len(lexeme)
            continue
        if ch == "%":
            line, column = advance_pos(ch, line, column)
            tokens.append(Token("LAMBDA", "%", start_line, start_col, line, column))
            i += 1
            continue
        if ch == "'":
            j = i + 1
            if j >= n or not _is_ident_start(text[j]):
                raise ParseError(line, column, "expected a type variable name after '")
            while j < n and _is_ident_char(text[j]):
                j += 1
            lexeme = text[i:j]
            line, column = advance_pos(lexeme, line, column)
            tokens.append(Token("TYVAR", lexeme[1:], start_line, start_col, line, column))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            lexeme = text[i:j]
            line, column = advance_pos(lexeme, line, column)
            tokens.append(Token("NUMBER", lexeme, start_line, start_col, line, column))
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            lexeme = text[i:j]
            line, column = advance_pos(lexeme, line, column)
            tokens.append(Token("IDENT", lexeme, start_line, start_col, line, column))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                line, column = advance_pos(sym, line, column)
                tokens.append(Token("SYM", sym, start_line, start_col, line, column))
                i += len(sym)
                break
        else:
            raise ParseError(line, column, f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, column, line, column))
    return tokens
