"""Parse annotation strings into :class:`~repro.types.expr.TypeExpr` values.

The grammar covers the annotation forms found in real Python code and in the
synthetic corpus::

    type      := dotted_name [ "[" arguments "]" ]
               | "None" | "..." | string_literal
    arguments := type ("," type)*
               | "[" arguments "]" ("," type)*      # Callable parameter lists

String-literal forward references (``"Widget"``) are unwrapped to their
contents.  PEP 604 unions (``int | None``) are normalised to ``Union`` /
``Optional`` expressions so downstream code only sees one spelling.
"""

from __future__ import annotations

import functools
import re
from typing import Optional

from repro.types.expr import ELLIPSIS_TYPE, NONE, TypeExpr


class TypeParseError(ValueError):
    """Raised when an annotation string cannot be parsed."""


_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_\.]*)|(?P<lbracket>\[)|(?P<rbracket>\])"
    r"|(?P<comma>,)|(?P<ellipsis>\.\.\.)|(?P<pipe>\|)|(?P<string>'[^']*'|\"[^\"]*\"))"
)


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.tokens: list[tuple[str, str]] = []
        position = 0
        stripped = text.strip()
        while position < len(stripped):
            match = _TOKEN_PATTERN.match(stripped, position)
            if match is None or match.end() == position:
                raise TypeParseError(f"unexpected character at {position!r} in {text!r}")
            position = match.end()
            kind = match.lastgroup or ""
            value = match.group(kind)
            self.tokens.append((kind, value))
        self.index = 0

    def peek(self) -> Optional[tuple[str, str]]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise TypeParseError("unexpected end of annotation")
        self.index += 1
        return token

    def expect(self, kind: str) -> tuple[str, str]:
        token = self.advance()
        if token[0] != kind:
            raise TypeParseError(f"expected {kind}, found {token[1]!r}")
        return token

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.tokens)


def parse_type(text: str) -> TypeExpr:
    """Parse an annotation string into a :class:`TypeExpr`.

    Raises
    ------
    TypeParseError
        If the string is empty or malformed.
    """
    if text is None:
        raise TypeParseError("annotation is None")
    stripped = text.strip()
    if not stripped:
        raise TypeParseError("annotation is empty")
    tokenizer = _Tokenizer(stripped)
    expr = _parse_union(tokenizer)
    if not tokenizer.exhausted:
        leftover = tokenizer.peek()
        raise TypeParseError(f"trailing input {leftover!r} in {text!r}")
    return expr


@functools.lru_cache(maxsize=4096)
def try_parse_type(text: str) -> Optional[TypeExpr]:
    """Like :func:`parse_type` but returns ``None`` instead of raising.

    Results are memoised: a :class:`TypeExpr` is immutable, and the type
    checker parses the same few annotation strings over and over.
    """
    try:
        return parse_type(text)
    except TypeParseError:
        return None


def _parse_union(tokenizer: _Tokenizer) -> TypeExpr:
    """Parse ``A | B | None`` into Union/Optional expressions."""
    members = [_parse_single(tokenizer)]
    while True:
        token = tokenizer.peek()
        if token is None or token[0] != "pipe":
            break
        tokenizer.advance()
        members.append(_parse_single(tokenizer))
    if len(members) == 1:
        return members[0]
    non_none = [member for member in members if not member.is_none]
    if len(non_none) == len(members):
        return TypeExpr.generic("Union", *members)
    if len(non_none) == 1:
        return TypeExpr.generic("Optional", non_none[0])
    return TypeExpr.generic("Optional", TypeExpr.generic("Union", *non_none))


def _parse_single(tokenizer: _Tokenizer) -> TypeExpr:
    kind, value = tokenizer.advance()
    if kind == "ellipsis":
        return ELLIPSIS_TYPE
    if kind == "string":
        inner = value[1:-1].strip()
        if not inner:
            raise TypeParseError("empty forward reference")
        return parse_type(inner)
    if kind == "lbracket":
        # A bare bracketed list appears as the first argument of Callable.
        args = _parse_arguments(tokenizer)
        tokenizer.expect("rbracket")
        return TypeExpr.generic("__arglist__", *args)
    if kind != "name":
        raise TypeParseError(f"unexpected token {value!r}")
    if value == "None":
        return NONE
    token = tokenizer.peek()
    if token is not None and token[0] == "lbracket":
        tokenizer.advance()
        args = _parse_arguments(tokenizer)
        tokenizer.expect("rbracket")
        return TypeExpr.generic(value, *args)
    return TypeExpr.atom(value)


def _parse_arguments(tokenizer: _Tokenizer) -> list[TypeExpr]:
    args = [_parse_union(tokenizer)]
    while True:
        token = tokenizer.peek()
        if token is None or token[0] != "comma":
            break
        tokenizer.advance()
        args.append(_parse_union(tokenizer))
    return args
