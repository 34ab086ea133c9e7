"""Lattice-group terms: parsing, rendering, and meet-of-joins normal form.

Grammar (whitespace insignificant)::

    stmt  := term ("<=" | "=") term
    term  := meet
    meet  := join { "/\\" join }
    join  := prod { "\\/" prod }
    prod  := atom { "*" atom }
    atom  := "e" | var | atom "^-1" | "(" term ")"
    var   := "x" | "y" | "z" | "x" digits

Meet and join associate left; "^-1" binds tightest. Word-set literals
reuse the prod production inside braces: "{x*y, y^-1}".

The normalization to a meet of joins runs on letter tuples, as in
``words``; each join set becomes a frozenset of Words once, at the end.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .words import IDENTITY, Word, generator_name, reduced_word


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Inv:
    arg: "Term"


@dataclass(frozen=True)
class Prod:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


Term = Union[Identity, Var, Inv, Prod, Meet, Join]

JoinSet = frozenset[Word]
MeetOfJoins = tuple[JoinSet, ...]


@dataclass(frozen=True)
class Statement:
    relation: str  # "<=" or "="
    left: Term
    right: Term


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# a whitespace run, a token of more than one character, or any single
# character: the kinds table names the tokens, and any other character is
# refused
_TOKEN_RE = re.compile(r"\s+|<=|=|/\\|\\/|\^-1|x[0-9]+|.", re.DOTALL)

_KINDS = {
    "<=": "le", "=": "eq", "/\\": "meet", "\\/": "join", "^-1": "inv",
    "*": "star", "(": "lpar", ")": "rpar", "{": "lbrace", "}": "rbrace",
    ",": "comma", "e": "ident", "x": "var", "y": "var", "z": "var",
}

Token = tuple[str, str, int]  # kind, text, offset


def tokenize(text: str) -> list[Token]:
    """The text's tokens, whitespace left out, then an "end" token at the
    text's length; raises ParseError at a character no token starts with."""
    tokens = []
    pos = 0
    for tok in _TOKEN_RE.findall(text):
        kind = _KINDS.get(tok)
        if kind is None:
            if tok.isspace():
                pos += len(tok)
                continue
            if len(tok) == 1:
                raise ParseError(f"unexpected character {tok!r}", pos)
            kind = "var"  # x and its digits
        tokens.append((kind, tok, pos))
        pos += len(tok)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the text's tokens (given, or tokenized here),
    read by index. Each level of parentheses costs the five calls term,
    meet, join, prod and atom; that sets the depth at which the
    interpreter's recursion limit stops a statement, which the CLI refuses
    as nested too deeply."""

    def __init__(self, text: str, rank: int, tokens: Optional[list[Token]] = None):
        self.tokens = tokenize(text) if tokens is None else tokens
        self.rank = rank
        self.i = 0

    def expect(self, kind: str, what: str) -> None:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        self.i += 1

    def end(self) -> None:
        kind, _, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError("trailing input", pos)

    def var_index(self, text: str, pos: int) -> int:
        index = _generator_index(text)
        if index == 0:
            raise ParseError(f"{text} is not a generator", pos)
        if index > self.rank:
            raise ParseError(
                f"variable {text} exceeds rank {self.rank}", pos
            )
        return index

    def parse_term(self) -> Term:
        return self.parse_meet()

    def parse_meet(self) -> Term:
        t = self.parse_join()
        tokens = self.tokens
        while tokens[self.i][0] == "meet":
            self.i += 1
            t = Meet(t, self.parse_join())
        return t

    def parse_join(self) -> Term:
        t = self.parse_prod()
        tokens = self.tokens
        while tokens[self.i][0] == "join":
            self.i += 1
            t = Join(t, self.parse_prod())
        return t

    def parse_prod(self) -> Term:
        t = self.parse_atom()
        tokens = self.tokens
        while tokens[self.i][0] == "star":
            self.i += 1
            t = Prod(t, self.parse_atom())
        return t

    def parse_atom(self) -> Term:
        tokens = self.tokens
        kind, text, pos = tokens[self.i]
        self.i += 1
        if kind == "var":
            t: Term = Var(self.var_index(text, pos))
        elif kind == "ident":
            t = Identity()
        elif kind == "lpar":
            t = self.parse_term()
            self.expect("rpar", "')'")
        else:
            raise ParseError("expected a term", pos)
        while tokens[self.i][0] == "inv":
            self.i += 1
            t = Inv(t)
        return t


def parse_term(text: str, rank: int) -> Term:
    p = _Parser(text, rank)
    t = p.parse_term()
    p.end()
    return t


def parse_statement(
    text: str, rank: int, tokens: Optional[list[Token]] = None
) -> Statement:
    """Parse a statement over the given rank; ``tokens`` are the text's
    tokens when the caller has them already."""
    p = _Parser(text, rank, tokens)
    left = p.parse_term()
    kind, _, pos = p.tokens[p.i]
    if kind == "le":
        rel = "<="
    elif kind == "eq":
        rel = "="
    else:
        raise ParseError("expected '<=' or '='", pos)
    p.i += 1
    right = p.parse_term()
    p.end()
    return Statement(rel, left, right)


def group_word(t: Term) -> Word:
    """Interpret a lattice-free term as a reduced word. The left-nested
    chain of a flat product is walked in a loop, so that only right
    operands (parenthesized products) and inverses recurse."""
    rights = []
    while isinstance(t, Prod):
        rights.append(t.right)
        t = t.left
    if isinstance(t, Identity):
        w = IDENTITY
    elif isinstance(t, Var):
        w = Word((t.index,))
    elif isinstance(t, Inv):
        w = group_word(t.arg).inverse()
    else:
        raise ValueError(f"not a group term: {render(t)}")
    for right in reversed(rights):
        w = w * group_word(right)
    return w


def parse_group_word(text: str, rank: int) -> Word:
    p = _Parser(text, rank)
    t = p.parse_prod()
    p.end()
    return group_word(t)


def parse_word_set(
    text: str, rank: int, tokens: Optional[list[Token]] = None
) -> frozenset[Word]:
    """Parse a word-set literal such as "{x*y, y^-1, e}"; ``tokens`` are
    the text's tokens when the caller has them already."""
    p = _Parser(text, rank, tokens)
    p.expect("lbrace", "'{'")
    out = set()
    if p.tokens[p.i][0] != "rbrace":
        out.add(group_word(p.parse_prod()))
        while p.tokens[p.i][0] == "comma":
            p.i += 1
            out.add(group_word(p.parse_prod()))
    p.expect("rbrace", "'}'")
    p.end()
    return frozenset(out)


def term_node_count(t: Term) -> int:
    if isinstance(t, (Identity, Var)):
        return 1
    if isinstance(t, Inv):
        return 1 + term_node_count(t.arg)
    return 1 + term_node_count(t.left) + term_node_count(t.right)


def _generator_index(tok: str) -> int:
    # an index of more digits than any rank reads as sys.maxsize, so that
    # no string of digits is converted past the interpreter's limit
    if len(tok) == 1:
        return "xyz".index(tok) + 1
    digits = tok[1:].lstrip("0")
    return int(digits or "0") if len(digits) < 19 else sys.maxsize


def max_var_index(tokens: list[Token]) -> int:
    """Largest generator index among the tokens, 0 if none."""
    return max(
        (_generator_index(tok) for kind, tok, _ in tokens if kind == "var"),
        default=0,
    )


def render(t: Term) -> str:
    # levels: meet 0, join 1, prod 2, atom 3; parenthesize a child whose
    # level is below its slot, keeping left-associative chains flat
    def go(t: Term, slot: int) -> str:
        if isinstance(t, Identity):
            return "e"
        if isinstance(t, Var):
            return generator_name(t.index)
        if isinstance(t, Inv):
            inner = go(t.arg, 3)
            if not isinstance(t.arg, (Identity, Var, Inv)):
                inner = f"({inner})"
            return inner + "^-1"
        if isinstance(t, Prod):
            s = f"{go(t.left, 2)}*{go(t.right, 3)}"
            level = 2
        elif isinstance(t, Join):
            s = f"{go(t.left, 1)} \\/ {go(t.right, 2)}"
            level = 1
        else:
            s = f"{go(t.left, 0)} /\\ {go(t.right, 1)}"
            level = 0
        return f"({s})" if level < slot else s

    return go(t, 0)


# join sets as frozensets of letter tuples; repeats are dropped through
# dict.fromkeys, which keeps each join set's first place


def _combine_join(a: list[frozenset], b: list[frozenset]) -> list[frozenset]:
    # join of two meets distributes: (/\ A_i) \/ (/\ B_j) = /\_{i,j} (A_i u B_j)
    return list(dict.fromkeys([ja | jb for ja in a for jb in b]))


def _combine_product(a: list[frozenset], b: list[frozenset]) -> list[frozenset]:
    # group product distributes over meet and join on both sides; u*v
    # cancels at the seam only, as u and v are reduced
    out = []
    for ja in a:
        for jb in b:
            products = set()
            for u in ja:
                if not u:
                    products.update(jb)
                    continue
                n, head = len(u), -u[-1]
                for v in jb:
                    if v and v[0] == head:
                        i, stop = 1, min(n, len(v))
                        while i < stop and u[n - 1 - i] == -v[i]:
                            i += 1
                        products.add(u[: n - i] + v[i:])
                    else:
                        products.add(u + v)
            out.append(frozenset(products))
    return list(dict.fromkeys(out))


def _moj(t: Term, inverted: bool) -> list[frozenset]:
    # node kinds in the order of their frequency in typical statements
    if isinstance(t, Var):
        return [frozenset({(-t.index if inverted else t.index,)})]
    if isinstance(t, Inv):
        return _moj(t.arg, not inverted)
    if isinstance(t, Prod):
        if inverted:
            return _combine_product(_moj(t.right, True), _moj(t.left, True))
        return _combine_product(_moj(t.left, False), _moj(t.right, False))
    if isinstance(t, Join):
        if inverted:
            return list(dict.fromkeys(_moj(t.left, True) + _moj(t.right, True)))
        return _combine_join(_moj(t.left, False), _moj(t.right, False))
    if isinstance(t, Identity):
        return [frozenset({()})]
    if isinstance(t, Meet):
        if inverted:
            return _combine_join(_moj(t.left, True), _moj(t.right, True))
        return list(dict.fromkeys(_moj(t.left, False) + _moj(t.right, False)))
    raise TypeError(f"unknown term node {t!r}")


def to_meet_of_joins(t: Term) -> MeetOfJoins:
    """Normalize to a meet of joins of reduced words.

    Inverses are pushed through lattice operations by the dual laws,
    products distribute over meet and join on both sides, and joins
    then distribute under meets. The result is equivalent to ``t`` in
    every lattice-ordered group; it may be exponentially larger. The
    work runs on letter tuples; each join set becomes Words at the end.
    """
    return tuple(frozenset(map(reduced_word, j)) for j in _moj(t, False))


def inequation_to_joinsets(s: Term, t: Term) -> MeetOfJoins:
    """Join sets whose joint validity is equivalent to s <= t.

    s <= t reduces by right multiplication to e <= t*s^-1.
    """
    return to_meet_of_joins(Prod(t, Inv(s)))


def equation_to_joinsets(s: Term, t: Term) -> MeetOfJoins:
    return inequation_to_joinsets(s, t) + inequation_to_joinsets(t, s)


def statement_to_joinsets(stmt: Statement) -> MeetOfJoins:
    if stmt.relation == "<=":
        return inequation_to_joinsets(stmt.left, stmt.right)
    return equation_to_joinsets(stmt.left, stmt.right)
