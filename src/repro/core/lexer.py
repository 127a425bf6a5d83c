"""Tokenizer for Bean's concrete syntax.

The surface syntax mirrors the paper's listings (Section 4)::

    // comments run to end of line
    ScaleVec (a : !R) (x : vec(2)) : vec(2) :=
      let (x0, x1) = x in
      let u = dmul a x0 in
      let v = dmul a x1 in
      (u, v)

Keywords: ``let dlet in case of inl inr add sub mul dmul div rnd
num R unit vec mat``.  ``!`` marks discrete types / promotion.

The scanner is one compiled regular expression, :data:`_SCAN`, walked
with ``finditer``.  Each match is a run of blanks (space, tab, CR)
followed by exactly one lexeme: a newline, a ``//`` or ``#`` comment,
a word, an integer, a symbol, or any other single character, which is
the error case.  Blanks at the end of the input match once, as a run
followed by end of input.  No match backtracks through its blank run,
so the scan is linear in the input.  Lines and columns are 1-based and
count code points: a newline match bumps the line and records its own
offset, and a token's column is its distance from the last such
newline.

Words are identifiers (``_`` or a letter, then letters, digits, ``_``
and ``'``) unless they spell a keyword; keywords are reserved.
Integers are runs of Unicode *decimal* digits (``\\d``), exactly the
strings :func:`int` accepts, so ``vec(٣)`` is a 3-vector while ``²`` is
an unexpected character.  Tokens are immutable, hashable named tuples.
"""

from __future__ import annotations

import re
from typing import Callable, List, NamedTuple, Tuple, Type, cast

from .errors import BeanSyntaxError

__all__ = ["Token", "TokenKind", "tokenize"]

KEYWORDS = frozenset(
    {
        "let",
        "dlet",
        "in",
        "case",
        "of",
        "inl",
        "inr",
        "add",
        "sub",
        "mul",
        "dmul",
        "div",
        "rnd",
        "num",
        "R",
        "unit",
        "vec",
        "mat",
    }
)

# Multi-character symbols must come before their prefixes.
SYMBOLS = (
    ":=",
    "=>",
    "(",
    ")",
    "{",
    "}",
    ",",
    ":",
    "=",
    "|",
    "!",
    "+",
    "*",
    "⊗",
    "@",
    "/",
)


class TokenKind:
    """Token kinds (simple string constants)."""

    IDENT = "IDENT"
    KEYWORD = "KEYWORD"
    INT = "INT"
    SYMBOL = "SYMBOL"
    EOF = "EOF"


class Token(NamedTuple):
    """A lexed token with 1-based source position."""

    kind: str
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == word

    def is_symbol(self, sym: str) -> bool:
        return self.kind == TokenKind.SYMBOL and self.text == sym

    def describe(self) -> str:
        if self.kind == TokenKind.EOF:
            return "end of input"
        return repr(self.text)


# One alternative per lexeme, each after an optional run of blanks, in
# named groups: the four that yield a token directly are named after their
# kind.  A keyword must be a whole word, hence the lookahead; any other
# word led by an ASCII letter or ``_`` is an identifier.  A word led by
# any other ``\w`` character is an identifier only if it starts with a
# letter (checked in the loop), since ``[^\W\d]`` also admits
# non-decimal digits and numerals such as ``²`` and ``½``.  A comment is
# tried before the ``/`` symbol, and multi-character symbols come before
# their prefixes.  ``other`` takes any other non-blank character, so the
# blank run never has to backtrack: it is followed by a lexeme or, once
# only trailing blanks are left, by ``\Z``, which matches no group.
_SCAN = re.compile(
    r"[ \t\r]*(?:"
    rf"(?P<{TokenKind.KEYWORD}>" + "|".join(sorted(KEYWORDS)) + r")(?![\w'])"
    rf"|(?P<{TokenKind.IDENT}>[A-Za-z_][\w']*)"
    r"|(?P<comment>(?://|\#)[^\n]*)"
    rf"|(?P<{TokenKind.SYMBOL}>"
    + "|".join(re.escape(sym) for sym in SYMBOLS)
    + r")"
    rf"|(?P<{TokenKind.INT}>\d+)"
    r"|(?P<newline>\n)"
    r"|(?P<word>[^\W\d][\w']*)"
    r"|(?P<other>[^ \t\r])"
    r"|\Z)"
)
#: The groups of :data:`_SCAN` that are token kinds.
_TOKEN_KINDS = frozenset(
    {TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.SYMBOL, TokenKind.INT}
)
assert _TOKEN_KINDS | {"comment", "newline", "word", "other"} == set(
    _SCAN.groupindex
)


#: ``Token(...)`` runs NamedTuple's Python-level ``__new__``, one more
#: interpreter frame per token; the scanner builds the same tuple directly
#: with ``tuple.__new__``.  On static inference (``beanbench`` ``infer``)
#: this raised throughput by ~7% end to end.
_new_token = cast(
    Callable[[Type[Token], Tuple[str, str, int, int]], Token], tuple.__new__
)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`BeanSyntaxError` on bad input.

    The list always ends with one ``EOF`` token.  Its column is just past
    the last character, or the start of a comment that ends the input.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    before_line = -1  # offset of the newline that ends the previous line
    eof_offset = len(source)
    for match in _SCAN.finditer(source):
        group = match.lastgroup
        if group is None:  # ``\Z``: nothing but blanks was left
            break
        if group in _TOKEN_KINDS:
            column = match.start(group) - before_line
            append(_new_token(Token, (group, match[group], line, column)))
            continue
        offset = match.start(group)
        if group == "newline":
            line += 1
            before_line = offset
        elif group == "comment":
            if match.end() == len(source):
                eof_offset = offset
        else:
            text = match[group]
            column = offset - before_line
            if group == "other" or not text[0].isalpha():
                raise BeanSyntaxError(f"unexpected character {text[0]!r}", line, column)
            # Every keyword is ASCII, so a word led by another letter is not.
            append(_new_token(Token, (TokenKind.IDENT, text, line, column)))
    append(_new_token(Token, (TokenKind.EOF, "", line, eof_offset - before_line)))
    return tokens
