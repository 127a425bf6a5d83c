"""Tests for the Bean tokenizer."""

import glob
import os
import string
import time
from typing import Iterator

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import Program, parse_program, pretty_program
from repro.core.errors import BeanSyntaxError
from repro.core.lexer import KEYWORDS, SYMBOLS, Token, TokenKind, tokenize
from repro.core.types import vector
from repro.programs.generators import BENCHMARK_FAMILIES, TABLE1_SIZES


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]  # drop EOF


class TestTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == TokenKind.EOF

    def test_keywords(self):
        assert texts("let in dlet case of inl inr") == [
            "let", "in", "dlet", "case", "of", "inl", "inr",
        ]
        assert all(t.kind == TokenKind.KEYWORD for t in tokenize("let in")[:-1])

    def test_identifiers(self):
        toks = tokenize("foo x0 a_b x'")
        assert [t.text for t in toks[:-1]] == ["foo", "x0", "a_b", "x'"]
        assert all(t.kind == TokenKind.IDENT for t in toks[:-1])

    def test_R_is_keyword(self):
        assert tokenize("R")[0].kind == TokenKind.KEYWORD

    def test_integers(self):
        toks = tokenize("42 7")
        assert [t.text for t in toks[:-1]] == ["42", "7"]
        assert all(t.kind == TokenKind.INT for t in toks[:-1])

    def test_symbols(self):
        assert texts(":= => ( ) , : = | ! + *") == [
            ":=", "=>", "(", ")", ",", ":", "=", "|", "!", "+", "*",
        ]

    def test_assign_not_split(self):
        toks = tokenize("x := y")
        assert toks[1].text == ":="

    def test_line_comment(self):
        assert texts("x // the rest is ignored\ny") == ["x", "y"]

    def test_hash_comment(self):
        assert texts("x # ignored\ny") == ["x", "y"]

    def test_unexpected_character(self):
        with pytest.raises(BeanSyntaxError):
            tokenize("x ` y")

    def test_contract_symbols(self):
        assert texts("@ / 3") == ["@", "/", "3"]


class TestPositions:
    def test_line_tracking(self):
        toks = tokenize("a\nb\n  c")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 1)
        assert (toks[2].line, toks[2].column) == (3, 3)

    def test_error_carries_position(self):
        with pytest.raises(BeanSyntaxError) as exc:
            tokenize("ok\n   $")
        assert exc.value.line == 2
        assert exc.value.column == 4


class TestTokenHelpers:
    def test_is_keyword(self):
        tok = Token(TokenKind.KEYWORD, "let", 1, 1)
        assert tok.is_keyword("let")
        assert not tok.is_keyword("in")

    def test_is_symbol(self):
        tok = Token(TokenKind.SYMBOL, "(", 1, 1)
        assert tok.is_symbol("(")
        assert not tok.is_symbol(")")

    def test_describe_eof(self):
        assert Token(TokenKind.EOF, "", 1, 1).describe() == "end of input"

    def test_describe_quotes_text(self):
        assert Token(TokenKind.IDENT, "x0", 2, 5).describe() == "'x0'"

    def test_fields(self):
        tok = tokenize("\n  foo")[0]
        assert (tok.kind, tok.text, tok.line, tok.column) == (
            TokenKind.IDENT, "foo", 2, 3,
        )

    def test_immutable(self):
        tok = Token(TokenKind.IDENT, "x", 1, 1)
        with pytest.raises(AttributeError):
            tok.text = "y"

    def test_hashable_and_compares_by_value(self):
        a = Token(TokenKind.SYMBOL, ":=", 3, 7)
        b = tokenize("\n\n      :=")[0]
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Token(TokenKind.SYMBOL, ":=", 3, 8)


# ---------------------------------------------------------------------------
# The scanner against the character loop it replaced
# ---------------------------------------------------------------------------


# The tokenizer before the one-regex scanner, kept verbatim as the
# reference for the differential tests below.
def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _ident_continue(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


def _tokens(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if _ident_start(ch):
            start = i
            while i < n and _ident_continue(source[i]):
                i += 1
            text = source[start:i]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            yield Token(kind, text, line, col)
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            yield Token(TokenKind.INT, source[start:i], line, col)
            col += i - start
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                yield Token(TokenKind.SYMBOL, sym, line, col)
                i += len(sym)
                col += len(sym)
                break
        else:
            raise BeanSyntaxError(f"unexpected character {ch!r}", line, col)
    yield Token(TokenKind.EOF, "", line, col)


def _diagnostic(exc: BeanSyntaxError):
    return (str(exc), exc.line, exc.column)


def assert_matches_reference(source: str) -> None:
    """``tokenize`` agrees with the reference loop on ``source``.

    Token lists are equal, or both raise with the same message, line and
    column.  The one documented divergence: the reference lexed any
    ``str.isdigit`` run as an INT, including non-decimal digits such as
    ``²`` that ``int()`` rejects.  The scanner's INT is decimal digits
    only, so it reports the first such character as unexpected.
    """
    emitted = []
    expected_error = None
    try:
        for tok in _tokens(source):
            emitted.append(tok)
    except BeanSyntaxError as exc:
        expected_error = _diagnostic(exc)
    for tok in emitted:
        if tok.kind == TokenKind.INT and not tok.text.isdecimal():
            k = next(i for i, ch in enumerate(tok.text) if not ch.isdecimal())
            expected_error = (
                f"{tok.line}:{tok.column + k}: unexpected character {tok.text[k]!r}",
                tok.line,
                tok.column + k,
            )
            break
    else:
        if expected_error is None:
            assert tokenize(source) == emitted
            return
    with pytest.raises(BeanSyntaxError) as exc:
        tokenize(source)
    assert _diagnostic(exc.value) == expected_error


bean_alphabet = st.sampled_from(
    list(string.ascii_lowercase[:8])
    + sorted(KEYWORDS)
    + list(SYMBOLS)
    + [" ", "\n", "\t", "\r\n", "1", "42", "x'", "_y", "// c", "# c", "/"]
)
bean_soup = st.lists(bean_alphabet, max_size=40).map(" ".join)
bean_glued = st.lists(bean_alphabet, max_size=40).map("".join)

# Line-ending, tab and comment layouts, ending in a comment with no
# newline after it (the EOF token then sits at the comment's start).
layout_piece = st.sampled_from(
    ["x", "let", ":=", "3", " ", "\t", "\r", "\n", "\r\n", "//", "#", "/"]
)
layouts = st.tuples(
    st.lists(layout_piece, max_size=20).map("".join),
    st.sampled_from(["", "// tail", "# tail", "//", "#", "\t// x\r"]),
).map("".join)


class TestMatchesReference:
    @given(bean_soup)
    def test_bean_soup(self, source):
        assert_matches_reference(source)

    @given(bean_glued)
    def test_bean_glued(self, source):
        assert_matches_reference(source)

    @given(st.text(max_size=60))
    @example("caf\u00e9 \u03b1\u2082 \u00bd \u2460 \U0001d4b3 \u0663 \u0bef\u00b2")
    @example("x\x0by")
    @example("a\u00a0b")
    def test_arbitrary_text(self, source):
        assert_matches_reference(source)

    @given(layouts)
    @example("x // comment at EOF")
    @example("x\r\n  y # hash at EOF")
    @example("\tx\t\ty\r\n\r\n   ")
    @example("a // one\r\n// two")
    def test_layout(self, source):
        assert_matches_reference(source)

    @pytest.mark.parametrize(
        "family,size",
        [(f, n) for f, sizes in TABLE1_SIZES.items() for n in sizes],
    )
    def test_table1_programs(self, family, size):
        source = pretty_program(Program([BENCHMARK_FAMILIES[family](size)]))
        assert tokenize(source) == list(_tokens(source))

    def test_example_files(self):
        root = os.path.join(os.path.dirname(__file__), "..", "examples", "bean")
        paths = sorted(glob.glob(os.path.join(root, "*.bean")))
        assert paths
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            assert tokenize(source) == list(_tokens(source)), path


class TestLongBlankRuns:
    """A long run of blanks is scanned in linear time, wherever it sits.

    Without the ``\\Z`` alternative in the scanner, a trailing run of k
    blanks made every alternative fail at end of input and backtrack one
    blank at a time from each later offset: k**2/2 steps, about 16 s for
    k = 10,000 and a minute for 20,000.  The linear scanner takes well
    under a millisecond at this size, so a regression fails in seconds
    rather than hanging the suite.
    """

    N = 10_000

    @pytest.mark.parametrize(
        "source,eof_column",
        [
            ("x" + " " * N, N + 2),
            ("x" + " \t\r" * (N // 3), 3 * (N // 3) + 2),
            (" " * N, N + 1),
            ("x" + " " * N + "// tail", N + 2),
            ("x\n" + " " * N, N + 1),
        ],
        ids=["spaces", "mixed", "only-blanks", "before-comment", "after-newline"],
    )
    def test_trailing_blanks(self, source, eof_column):
        started = time.perf_counter()
        tokens = tokenize(source)
        assert time.perf_counter() - started < 1.0
        assert tokens[-1] == Token(TokenKind.EOF, "", tokens[-1].line, eof_column)
        assert tokens == list(_tokens(source))

    def test_blanks_between_tokens(self):
        source = "x" + " " * self.N + "y"
        started = time.perf_counter()
        tokens = tokenize(source)
        assert time.perf_counter() - started < 1.0
        assert [(t.text, t.column) for t in tokens] == [
            ("x", 1),
            ("y", self.N + 2),
            ("", self.N + 3),
        ]


class TestDigits:
    def test_superscript_two_is_an_unexpected_character(self):
        source = "f (x : vec(\u00b2)) := x"
        with pytest.raises(BeanSyntaxError) as exc:
            tokenize(source)
        assert str(exc.value) == "1:12: unexpected character '\u00b2'"
        assert (exc.value.line, exc.value.column) == (1, 12)
        with pytest.raises(BeanSyntaxError):
            parse_program(source)

    def test_digit_run_stops_at_a_non_decimal_digit(self):
        with pytest.raises(BeanSyntaxError) as exc:
            tokenize("vec(12\u00b3)")
        assert (exc.value.line, exc.value.column) == (1, 7)

    def test_other_decimal_digits_are_integers(self):
        arabic_three = "\u0663"
        tok = tokenize(arabic_three)[0]
        assert (tok.kind, tok.text) == (TokenKind.INT, arabic_three)
        program = parse_program(f"f (x : vec({arabic_three})) := x")
        assert program.main.params[0].ty == vector(3)

