"""The earlier statement front end, kept as oracles for ``ellgroups.terms``.

``tokenize`` matches one token at a time with a regular expression, and
``statement_to_joinsets`` normalizes on Words, multiplying through
``Word.__mul__`` and dropping repeated join sets by a seen-set. The
program's one-pass tokenizer and letter-tuple normalization must give the
same tokens and the same join sets in the same order.
"""

from __future__ import annotations

import re

from ellgroups.terms import (
    Identity,
    Inv,
    Join,
    Meet,
    ParseError,
    Prod,
    Statement,
    Var,
)
from ellgroups.words import IDENTITY, Word

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


def tokenize(text: str) -> list[tuple[str, str, int]]:
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


def _dedup(joins):
    seen = set()
    out = []
    for j in joins:
        if j not in seen:
            seen.add(j)
            out.append(j)
    return out


def _combine_join(a, b):
    return _dedup([ja | jb for ja in a for jb in b])


def _combine_product(a, b):
    return _dedup(
        [frozenset(u * v for u in ja for v in jb) for ja in a for jb in b]
    )


def _moj(t, inverted: bool):
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


def statement_to_joinsets(stmt: Statement):
    # s <= t is e <= t*s^-1; s = t is both inequations
    pairs = [(stmt.left, stmt.right)]
    if stmt.relation == "=":
        pairs.append((stmt.right, stmt.left))
    out = ()
    for s, t in pairs:
        out += tuple(_moj(Prod(t, Inv(s)), False))
    return out
