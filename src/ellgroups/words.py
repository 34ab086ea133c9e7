"""Freely reduced words over a finite set of generators.

A word is a tuple of nonzero integers: letter ``+i`` is the i-th generator,
``-i`` its inverse. The empty word is the group identity ``e``. Every
operation keeps words freely reduced, so equality of letter tuples is
equality in the free group.

Generators render as x, y, z, then x4, x5, ...
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable, Optional


def generator_name(index: int) -> str:
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    return "xyz"[index - 1] if index <= 3 else f"x{index}"


def _letter_key(letter: int) -> tuple[int, int]:
    # generator index first; a plain letter sorts before its inverse
    return (abs(letter), 0 if letter > 0 else 1)


@functools.total_ordering
@dataclass(frozen=True)
class Word:
    """A freely reduced word; orders by length, then letterwise."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prev = 0
        for l in self.letters:
            if l == 0:
                raise ValueError("0 is not a letter")
            if l == -prev:
                raise ValueError(f"not freely reduced: {prev} followed by {l}")
            prev = l

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat_reduce(self, other)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    @property
    def key(self) -> tuple:
        return (len(self.letters), tuple(_letter_key(l) for l in self.letters))

    def __lt__(self, other: "Word") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"Word({render_word(self)!r})"


IDENTITY = Word()


def word(letters: Iterable[int]) -> Word:
    """Build a word from arbitrary letters, performing free reduction."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return Word(tuple(out))


def concat_reduce(a: Word, b: Word) -> Word:
    """Product in the free group: concatenate and cancel at the seam."""
    left = list(a.letters)
    right = b.letters
    i = 0
    while left and i < len(right) and left[-1] == -right[i]:
        left.pop()
        i += 1
    return Word(tuple(left) + right[i:])


def invert(a: Word) -> Word:
    return a.inverse()


def render_word(w: Word) -> str:
    if not w.letters:
        return "e"
    parts = []
    for l in w.letters:
        name = generator_name(abs(l))
        parts.append(name if l > 0 else name + "^-1")
    return "*".join(parts)


def initial_subterms(words: Iterable[Word]) -> frozenset[Word]:
    """All prefixes of the given words, including the empty prefix e."""
    out = {IDENTITY}
    for w in words:
        for i in range(1, len(w.letters) + 1):
            out.add(Word(w.letters[:i]))
    return frozenset(out)


def canonical_pair_difference(u: Word, v: Word) -> tuple[Word, tuple[Word, Word]]:
    """For distinct u, v return (rep, oriented pair) with rep the smaller of
    u*v^-1 and its inverse, and the pair ordered so that pair[0]*pair[1]^-1 == rep."""
    d = concat_reduce(u, v.inverse())
    dinv = d.inverse()
    if dinv < d:
        return dinv, (v, u)
    return d, (u, v)


@dataclass(frozen=True)
class DifferenceClass:
    """Pairs of initial subterms sharing one quotient up to inversion.

    ``rep`` is the canonical (smaller) of the two mutually inverse quotients;
    every listed ordered pair (u, v) satisfies u * v^-1 == rep.
    """

    rep: Word
    oriented_pairs: tuple[tuple[Word, Word], ...]
    forced_sign: Optional[int] = None

    def with_forced_sign(self, sign: Optional[int]) -> "DifferenceClass":
        return replace(self, forced_sign=sign)


def difference_classes(words: Iterable[Word]) -> list[DifferenceClass]:
    """Group the pairwise quotients of initial subterms into inverse classes.

    For each unordered pair {u, v} of distinct prefixes, the quotient
    u*v^-1 (suitably oriented) lands in exactly one class. Classes come
    back sorted by representative.
    """
    nodes = sorted(initial_subterms(words))
    by_rep: dict[Word, list[tuple[Word, Word]]] = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            rep, pair = canonical_pair_difference(u, v)
            by_rep.setdefault(rep, []).append(pair)
    return [
        DifferenceClass(rep, tuple(sorted(by_rep[rep], key=lambda p: (p[0].key, p[1].key))))
        for rep in sorted(by_rep)
    ]


def ball_letters(k: int, radius: int) -> list[tuple[int, ...]]:
    """Letter tuples of all reduced words of length at most ``radius`` over
    k generators, in ascending word order (no Word is built or compared)."""
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    # extending each word of a length, in order, by the letters in order
    # gives the next length in order
    letters = [l for g in range(1, k + 1) for l in (g, -g)]
    level: list[tuple[int, ...]] = [()]
    out = [()]
    for _ in range(radius):
        level = [w + (l,) for w in level for l in letters if not w or w[-1] != -l]
        out += level
    return out


def ball(k: int, radius: int) -> frozenset[Word]:
    """All reduced words of length at most ``radius`` over k generators."""
    return frozenset(map(Word, ball_letters(k, radius)))
