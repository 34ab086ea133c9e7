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
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Union

from .words import IDENTITY, Word, generator_name


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


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<le><=)
      | (?P<eq>=)
      | (?P<meet>/\\)
      | (?P<join>\\/)
      | (?P<inv>\^-1)
      | (?P<star>\*)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<lbrace>\{)
      | (?P<rbrace>\})
      | (?P<comma>,)
      | (?P<var>x[0-9]+|[xyz])
      | (?P<ident>e)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, rank: int):
        self.tokens = _tokenize(text)
        self.rank = rank
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return self.take()

    def var_index(self, text: str, pos: int) -> int:
        index = _generator_index(text)
        if index == 0:
            raise ParseError("x0 is not a generator", pos)
        if index > self.rank:
            raise ParseError(
                f"variable {text} exceeds rank {self.rank}", pos
            )
        return index

    def parse_term(self) -> Term:
        return self.parse_meet()

    def parse_meet(self) -> Term:
        t = self.parse_join()
        while self.peek()[0] == "meet":
            self.take()
            t = Meet(t, self.parse_join())
        return t

    def parse_join(self) -> Term:
        t = self.parse_prod()
        while self.peek()[0] == "join":
            self.take()
            t = Join(t, self.parse_prod())
        return t

    def parse_prod(self) -> Term:
        t = self.parse_atom()
        while self.peek()[0] == "star":
            self.take()
            t = Prod(t, self.parse_atom())
        return t

    def parse_atom(self) -> Term:
        kind, text, pos = self.peek()
        if kind == "ident":
            self.take()
            t: Term = Identity()
        elif kind == "var":
            self.take()
            t = Var(self.var_index(text, pos))
        elif kind == "lpar":
            self.take()
            t = self.parse_term()
            self.expect("rpar", "')'")
        else:
            raise ParseError("expected a term", pos)
        while self.peek()[0] == "inv":
            self.take()
            t = Inv(t)
        return t


def parse_term(text: str, rank: int) -> Term:
    p = _Parser(text, rank)
    t = p.parse_term()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return t


def parse_statement(text: str, rank: int) -> Statement:
    p = _Parser(text, rank)
    left = p.parse_term()
    kind, _, pos = p.peek()
    if kind == "le":
        rel = "<="
    elif kind == "eq":
        rel = "="
    else:
        raise ParseError("expected '<=' or '='", pos)
    p.take()
    right = p.parse_term()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
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
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return group_word(t)


def parse_word_set(text: str, rank: int) -> frozenset[Word]:
    """Parse a word-set literal such as "{x*y, y^-1, e}"."""
    p = _Parser(text, rank)
    p.expect("lbrace", "'{'")
    out = set()
    if p.peek()[0] != "rbrace":
        out.add(group_word(p.parse_prod()))
        while p.peek()[0] == "comma":
            p.take()
            out.add(group_word(p.parse_prod()))
    p.expect("rbrace", "'}'")
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
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


def max_var_index(text: str) -> int:
    """Largest generator index mentioned in the text, 0 if none."""
    best = 0
    for kind, tok, _ in _tokenize(text)[:-1]:
        if kind == "var":
            best = max(best, _generator_index(tok))
    return best


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


def _dedup(joins: list[JoinSet]) -> list[JoinSet]:
    seen = set()
    out = []
    for j in joins:
        if j not in seen:
            seen.add(j)
            out.append(j)
    return out


def _combine_join(a: list[JoinSet], b: list[JoinSet]) -> list[JoinSet]:
    # join of two meets distributes: (/\ A_i) \/ (/\ B_j) = /\_{i,j} (A_i u B_j)
    return _dedup([ja | jb for ja in a for jb in b])


def _combine_product(a: list[JoinSet], b: list[JoinSet]) -> list[JoinSet]:
    # group product distributes over meet and join on both sides
    return _dedup(
        [frozenset(u * v for u in ja for v in jb) for ja in a for jb in b]
    )


def _moj(t: Term, inverted: bool) -> list[JoinSet]:
    if isinstance(t, Identity):
        return [frozenset({IDENTITY})]
    if isinstance(t, Var):
        l = -t.index if inverted else t.index
        return [frozenset({Word((l,))})]
    if isinstance(t, Inv):
        return _moj(t.arg, not inverted)
    if isinstance(t, Prod):
        if inverted:
            return _combine_product(_moj(t.right, True), _moj(t.left, True))
        return _combine_product(_moj(t.left, False), _moj(t.right, False))
    if isinstance(t, Meet):
        if inverted:
            return _combine_join(_moj(t.left, True), _moj(t.right, True))
        return _dedup(_moj(t.left, False) + _moj(t.right, False))
    if isinstance(t, Join):
        if inverted:
            return _dedup(_moj(t.left, True) + _moj(t.right, True))
        return _combine_join(_moj(t.left, False), _moj(t.right, False))
    raise TypeError(f"unknown term node {t!r}")


def to_meet_of_joins(t: Term) -> MeetOfJoins:
    """Normalize to a meet of joins of reduced words.

    Inverses are pushed through lattice operations by the dual laws,
    products distribute over meet and join on both sides, and joins
    then distribute under meets. The result is equivalent to ``t`` in
    every lattice-ordered group; it may be exponentially larger.
    """
    return tuple(_moj(t, False))


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
