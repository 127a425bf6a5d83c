"""Recursive-descent parser for Bean's concrete syntax.

Grammar (expressions follow the paper's Figure 2, with the Section 4
conveniences: calls, tuple patterns, and n-ary tuples)::

    program    ::= definition+
    definition ::= NAME param* (':' type)? ':=' expr
    param      ::= '(' pattern ':' type ')'
    pattern    ::= NAME | '(' pattern (',' pattern)+ ')'

    type       ::= tensor ('+' tensor)?
    tensor     ::= atomtype (('*' | '⊗') atomtype)*        (right assoc)
    atomtype   ::= 'num' | 'R' | 'unit' | '!' atomtype
                 | 'vec' '(' INT ')' | 'mat' '(' INT ',' INT ')'
                 | '(' type ')'

    expr       ::= 'let' pattern '=' expr 'in' expr
                 | 'dlet' pattern '=' expr 'in' expr
                 | 'case' expr 'of' 'inl' bname '=>' expr
                                '|' 'inr' bname '=>' expr
                 | op atom atom                 (op ∈ add sub mul dmul div)
                 | 'inl' ('{' type '}')? atom
                 | 'inr' ('{' type '}')? atom
                 | '!' atom
                 | NAME atom+                   (call)
                 | atom
    atom       ::= NAME | '(' ')' | '(' expr (',' expr)* ')'

Tuple patterns and n-ary tuples are desugared to *balanced* nested pairs,
matching :func:`repro.core.types.tensor_of`, so pattern depth stays
logarithmic in the tuple width.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from fractions import Fraction

from . import ast_nodes as A
from .errors import BeanSyntaxError
from .grades import Grade
from .lexer import Token, TokenKind, tokenize
from .types import NUM, UNIT, Discrete, Sum, Tensor, Type, is_discrete, matrix, vector

__all__ = ["parse_program", "parse_expression", "parse_type"]

_OPS = {
    "add": A.Op.ADD,
    "sub": A.Op.SUB,
    "mul": A.Op.MUL,
    "dmul": A.Op.DMUL,
    "div": A.Op.DIV,
}

#: Pattern = a variable name or a tuple of sub-patterns.
Pattern = Union[str, Tuple["Pattern", ...]]


class _Parser:
    """Recursive descent over a token list.

    Keywords are reserved and no identifier or integer can spell a
    symbol, so ``tok.text == "let"`` is exactly ``tok.is_keyword("let")``
    (likewise for symbols), and the EOF token's empty text matches
    neither.  The parser therefore tests ``tok.text`` alone.  Every site
    reads the current token as ``self.tokens[self.pos]``.
    """

    __slots__ = ("tokens", "pos")

    def __init__(self, tokens: List[Token]) -> None:
        # ``tokenize`` ends the list with EOF; two more copies let the
        # one-token lookahead in ``parse_expr`` and ``_begins_definition``
        # read past the end without clamping the index.
        self.tokens = tokens + [tokens[-1]] * 2
        self.pos = 0

    # -- token plumbing -------------------------------------------------------

    def expect_symbol(self, sym: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != sym:
            raise BeanSyntaxError(
                f"expected {sym!r}, found {tok.describe()}", tok.line, tok.column
            )
        self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != word:
            raise BeanSyntaxError(
                f"expected keyword {word!r}, found {tok.describe()}",
                tok.line,
                tok.column,
            )
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.IDENT:
            raise BeanSyntaxError(
                f"expected an identifier, found {tok.describe()}",
                tok.line,
                tok.column,
            )
        self.pos += 1
        return tok

    def expect_int(self) -> int:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.INT:
            raise BeanSyntaxError(
                f"expected an integer, found {tok.describe()}", tok.line, tok.column
            )
        self.pos += 1
        return int(tok.text)

    def expect_end(self) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.EOF:
            raise BeanSyntaxError(
                f"unexpected trailing input: {tok.describe()}", tok.line, tok.column
            )

    def fail(self, message: str) -> BeanSyntaxError:
        tok = self.tokens[self.pos]
        return BeanSyntaxError(message, tok.line, tok.column)

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_tensor_type()
        if self.tokens[self.pos].text == "+":
            self.pos += 1
            right = self.parse_type()
            return Sum(left, right)
        return left

    def parse_tensor_type(self) -> Type:
        left = self.parse_atom_type()
        text = self.tokens[self.pos].text
        if text == "*" or text == "⊗":
            self.pos += 1
            right = self.parse_tensor_type()
            return Tensor(left, right)
        return left

    def parse_atom_type(self) -> Type:
        tok = self.tokens[self.pos]
        text = tok.text
        if text == "num" or text == "R":
            self.pos += 1
            return NUM
        if text == "unit":
            self.pos += 1
            return UNIT
        if text == "!":
            self.pos += 1
            return Discrete(self.parse_atom_type())
        if text == "vec":
            self.pos += 1
            self.expect_symbol("(")
            n = self.expect_int()
            self.expect_symbol(")")
            return vector(n)
        if text == "mat":
            self.pos += 1
            self.expect_symbol("(")
            rows = self.expect_int()
            self.expect_symbol(",")
            cols = self.expect_int()
            self.expect_symbol(")")
            return matrix(rows, cols)
        if text == "(":
            self.pos += 1
            inner = self.parse_type()
            self.expect_symbol(")")
            return inner
        raise self.fail(f"expected a type, found {tok.describe()}")

    # -- patterns --------------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        tok = self.tokens[self.pos]
        if tok.kind == TokenKind.IDENT:
            self.pos += 1
            return tok.text
        if tok.text == "(":
            self.pos += 1
            parts: List[Pattern] = [self.parse_pattern()]
            while self.tokens[self.pos].text == ",":
                self.pos += 1
                parts.append(self.parse_pattern())
            self.expect_symbol(")")
            if len(parts) == 1:
                return parts[0]
            return tuple(parts)
        raise self.fail(f"expected a pattern, found {tok.describe()}")

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        tok = self.tokens[self.pos]
        text = tok.text
        if text == "let" or text == "dlet":
            # Iterate over the let-spine instead of recursing: benchmark
            # programs chain thousands of binders, and the rest of the
            # pipeline (IR lowering, sweeps) is iterative too.
            frames = []
            while text == "let" or text == "dlet":
                self.pos += 1  # let / dlet
                pattern = self.parse_pattern()
                self.expect_symbol("=")
                bound = self.parse_expr()
                self.expect_keyword("in")
                frames.append((pattern, bound, text == "dlet"))
                text = self.tokens[self.pos].text
            expr = self.parse_expr()
            for pattern, bound, discrete in reversed(frames):
                expr = bind_pattern(pattern, bound, expr, discrete=discrete)
            return expr
        if text == "case":
            return self.parse_case()
        op = _OPS.get(text)
        if op is not None:
            self.pos += 1
            left = self.parse_atom()
            right = self.parse_atom()
            return A.PrimOp(op, left, right)
        if text == "rnd":
            self.pos += 1
            return A.Rnd(self.parse_atom())
        if text == "inl" or text == "inr":
            return self.parse_injection()
        if text == "!":
            self.pos += 1
            return A.Bang(self.parse_atom())
        if (
            tok.kind == TokenKind.IDENT
            and self._starts_atom(self.tokens[self.pos + 1])
            and not self._begins_definition(self.pos + 1)
        ):
            self.pos += 1
            args = [self.parse_atom()]
            while self._starts_atom(self.tokens[self.pos]) and not (
                self._begins_definition(self.pos)
            ):
                args.append(self.parse_atom())
            return A.Call(text, args)
        return self.parse_atom()

    @staticmethod
    def _starts_atom(tok: Token) -> bool:
        return tok.kind == TokenKind.IDENT or tok.text == "("

    def _begins_definition(self, idx: int) -> bool:
        """Whether the token at ``idx`` starts a new top-level definition.

        Definitions look like ``NAME (pat : type) ... :=``; the telltale is
        a ``:`` or ``:=`` after the name (possibly inside the first
        parenthesized parameter), which no expression can produce.
        """
        tokens = self.tokens
        if tokens[idx].kind != TokenKind.IDENT:
            return False
        after = tokens[idx + 1].text
        if after == ":=" or after == ":":
            return True
        if after != "(":
            return False
        depth = 0
        for j in range(idx + 1, len(tokens)):
            tok = tokens[j]
            text = tok.text
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif text == ":" or text == ":=":
                return True
            elif tok.kind == TokenKind.EOF:
                return False
        return False

    def parse_case(self) -> A.Expr:
        self.expect_keyword("case")
        scrutinee = self.parse_expr()
        self.expect_keyword("of")
        self.expect_keyword("inl")
        left_name = self.parse_branch_name()
        self.expect_symbol("=>")
        left = self.parse_expr()
        self.expect_symbol("|")
        self.expect_keyword("inr")
        right_name = self.parse_branch_name()
        self.expect_symbol("=>")
        right = self.parse_expr()
        return A.Case(scrutinee, left_name, left, right_name, right)

    def parse_branch_name(self) -> str:
        if self.tokens[self.pos].text == "(":
            self.pos += 1
            name = self.expect_ident().text
            self.expect_symbol(")")
            return name
        return self.expect_ident().text

    def parse_injection(self) -> A.Expr:
        tok = self.tokens[self.pos]  # inl / inr
        self.pos += 1
        other: Type = UNIT
        if self.tokens[self.pos].text == "{":
            self.pos += 1
            other = self.parse_type()
            self.expect_symbol("}")
        body = self.parse_atom()
        if tok.text == "inl":
            return A.Inl(body, other)
        return A.Inr(body, other)

    def parse_atom(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == TokenKind.IDENT:
            self.pos += 1
            return A.Var(tok.text)
        if tok.text == "(":
            self.pos += 1
            if self.tokens[self.pos].text == ")":
                self.pos += 1
                return A.UnitVal()
            parts = [self.parse_expr()]
            while self.tokens[self.pos].text == ",":
                self.pos += 1
                parts.append(self.parse_expr())
            self.expect_symbol(")")
            if len(parts) == 1:
                return parts[0]
            return balanced_tuple(parts)
        raise self.fail(f"expected an expression, found {tok.describe()}")

    # -- definitions -----------------------------------------------------------

    def parse_grade_annotation(self) -> Grade:
        """``@ n`` or ``@ n/d``: a declared bound in units of ε."""
        numerator = self.expect_int()
        denominator = 1
        if self.tokens[self.pos].text == "/":
            self.pos += 1
            denominator = self.expect_int()
        if denominator == 0:
            raise self.fail("grade annotation denominator cannot be zero")
        return Grade(Fraction(numerator, denominator))

    def parse_definition(self) -> A.Definition:
        name = self.expect_ident().text
        raw_params: List[Tuple[Pattern, Type, Optional[Grade]]] = []
        while self.tokens[self.pos].text == "(":
            self.pos += 1
            pattern = self.parse_pattern()
            self.expect_symbol(":")
            ty = self.parse_type()
            declared_grade: Optional[Grade] = None
            if self.tokens[self.pos].text == "@":
                self.pos += 1
                declared_grade = self.parse_grade_annotation()
            self.expect_symbol(")")
            raw_params.append((pattern, ty, declared_grade))
        declared: Optional[Type] = None
        if self.tokens[self.pos].text == ":":
            self.pos += 1
            declared = self.parse_type()
        self.expect_symbol(":=")
        body = self.parse_expr()
        params: List[A.Param] = []
        for pattern, ty, declared_grade in reversed(raw_params):
            if isinstance(pattern, str):
                params.append(A.Param(pattern, ty, declared_grade))
            else:
                fresh = A.fresh_name("arg")
                params.append(A.Param(fresh, ty, declared_grade))
                body = destructure(pattern, fresh, ty, body)
        params.reverse()
        return A.Definition(name, params, body, declared_result=declared)

    def parse_program(self) -> A.Program:
        definitions = []
        while self.tokens[self.pos].kind != TokenKind.EOF:
            definitions.append(self.parse_definition())
        if not definitions:
            raise self.fail("a program must contain at least one definition")
        return A.Program(definitions)


# ---------------------------------------------------------------------------
# Pattern desugaring
# ---------------------------------------------------------------------------


def balanced_tuple(parts: Sequence[A.Expr]) -> A.Expr:
    """Combine expressions into balanced nested pairs (like tensor_of)."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return A.Pair(balanced_tuple(parts[:mid]), balanced_tuple(parts[mid:]))


def _split_pattern(pattern: Tuple) -> Tuple[Pattern, Pattern]:
    """Split a tuple pattern the same way balanced tensors split."""
    if len(pattern) == 2:
        return pattern[0], pattern[1]
    mid = len(pattern) // 2
    left = pattern[:mid] if mid > 1 else pattern[0]
    right = pattern[mid:] if len(pattern) - mid > 1 else pattern[mid]
    return left, right


def bind_pattern(
    pattern: Pattern, bound: A.Expr, body: A.Expr, *, discrete: bool
) -> A.Expr:
    """Desugar ``let pattern = bound in body`` (or ``dlet``)."""
    if isinstance(pattern, str):
        if discrete:
            return A.DLet(pattern, bound, body)
        return A.Let(pattern, bound, body)
    left, right = _split_pattern(pattern)
    left_name = left if isinstance(left, str) else A.fresh_name("l")
    right_name = right if isinstance(right, str) else A.fresh_name("r")
    if not isinstance(right, str):
        body = bind_pattern(right, A.Var(right_name), body, discrete=discrete)
    if not isinstance(left, str):
        body = bind_pattern(left, A.Var(left_name), body, discrete=discrete)
    if discrete:
        return A.DLetPair(left_name, right_name, bound, body)
    return A.LetPair(left_name, right_name, bound, body)


def destructure(pattern: Pattern, name: str, ty: Type, body: A.Expr) -> A.Expr:
    """Destructure parameter ``name : ty`` against a tuple pattern.

    Discrete parameter types (``m(...)`` or tensors of discrete components)
    are eliminated with ``dlet``; everything else with ``let``.
    """
    discrete = _eliminates_discretely(ty)
    return bind_pattern(pattern, A.Var(name), body, discrete=discrete)


def _eliminates_discretely(ty: Type) -> bool:
    if is_discrete(ty):
        return True
    if isinstance(ty, Tensor):
        return is_discrete(ty.left) and is_discrete(ty.right)
    return False


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_program(source: str) -> A.Program:
    """Parse a whole Bean source file into a :class:`Program`."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single Bean expression (no definitions)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


def parse_type(source: str) -> Type:
    """Parse a Bean type."""
    parser = _Parser(tokenize(source))
    ty = parser.parse_type()
    parser.expect_end()
    return ty
