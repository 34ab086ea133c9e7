"""Freely reduced words over a finite set of generators.

A word is a tuple of nonzero integers: letter ``+i`` is the i-th generator,
``-i`` its inverse. The empty word is the group identity ``e``. Every
operation keeps words freely reduced, so equality of letter tuples is
equality in the free group.

Generators render as x, y, z, then x4, x5, ...
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional


def generator_name(index: int) -> str:
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    return "xyz"[index - 1] if index <= 3 else f"x{index}"


def _code(letter: int) -> int:
    # letters as ints in word order: generator index first, a plain letter
    # before its inverse
    return 2 * letter if letter > 0 else 1 - 2 * letter


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
        return (len(self.letters), tuple(map(_code, self.letters)))

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
    left, right = a.letters, b.letters
    if left and right and left[-1] == -right[0]:
        n = len(left)
        i, stop = 1, min(n, len(right))
        while i < stop and left[n - 1 - i] == -right[i]:
            i += 1
        letters = left[: n - i] + right[i:]
    else:
        letters = left + right
    # both sides are reduced and the seam no longer cancels, so the
    # product is reduced: it skips the check of Word's constructor
    product = object.__new__(Word)
    object.__setattr__(product, "letters", letters)
    return product


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


@dataclass(frozen=True)
class DifferenceClass:
    """Pairs of initial subterms sharing one quotient up to inversion.

    ``rep`` is the canonical (smaller) of the two mutually inverse quotients;
    every listed ordered pair (u, v) satisfies u * v^-1 == rep.
    """

    rep: Word
    oriented_pairs: tuple[tuple[Word, Word], ...]
    forced_sign: Optional[int] = None


def difference_table(
    words: Iterable[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[list[tuple[int, int]]]]:
    """The difference classes of a join given as letter tuples, on indices.

    Returns the initial subterms (e included) as letter tuples in ascending
    word order, the class representatives in ascending order, and for each
    class its sorted (i, j) node-index pairs with nodes[i] * nodes[j]^-1
    equal to the representative. No Word is built.

    For nodes u = p*s and v = q*s with s their longest common suffix,
    u*v^-1 = p*q^-1 is already reduced, and so is its inverse q*p^-1, of
    the same length; the smaller of the two, compared letterwise on codes
    precomputed for each node and its inverse, is the representative.
    """
    prefixes = {()}
    for w in words:
        prefixes.update(w[:i] for i in range(1, len(w) + 1))
    keyed = sorted((len(t), tuple(map(_code, t)), t) for t in prefixes)
    nodes = [t for _, _, t in keyed]
    codes = [c for _, c, _ in keyed]
    inverse_codes = [tuple(_code(-l) for l in reversed(t)) for t in nodes]
    by_rep: dict[tuple[int, ...], list[tuple[int, int]]] = defaultdict(list)
    rows = list(zip(range(len(nodes)), nodes, codes, inverse_codes))
    for i, u, u_code, u_inverse in rows:
        nu = len(u)
        for j, v, v_code, v_inverse in rows[i + 1 :]:
            # c counts the common suffix; u sorts first, so it is not longer
            c = 0
            while c < nu and u[nu - 1 - c] == v[-1 - c]:
                c += 1
            d = u_code[: nu - c] + v_inverse[c:]
            d_inverse = v_code[: len(v) - c] + u_inverse[c:]
            if d_inverse < d:
                by_rep[d_inverse].append((j, i))
            else:
                by_rep[d].append((i, j))
    reps = sorted(by_rep, key=lambda r: (len(r), r))
    letter = {_code(l): l for t in nodes for x in t for l in (x, -x)}.__getitem__
    return (
        nodes,
        [tuple(map(letter, r)) for r in reps],
        [sorted(by_rep[r]) for r in reps],
    )


def table_classes(
    table: tuple[list, list, list], forced: Iterable[Optional[int]]
) -> tuple[tuple[Word, ...], tuple[DifferenceClass, ...]]:
    """The nodes and classes of a difference table as Words, each class
    with its forced sign."""
    nodes, reps, pairs = table
    words = tuple(map(Word, nodes))
    classes = tuple(
        DifferenceClass(Word(rep), tuple((words[i], words[j]) for i, j in cls), sign)
        for rep, cls, sign in zip(reps, pairs, forced)
    )
    return words, classes


def difference_classes(words: Iterable[Word]) -> list[DifferenceClass]:
    """Group the pairwise quotients of initial subterms into inverse classes.

    For each unordered pair {u, v} of distinct prefixes, the quotient
    u*v^-1 (suitably oriented) lands in exactly one class. Classes come
    back sorted by representative, pairs by node order. A thin wrapper
    building Words from ``difference_table``.
    """
    table = difference_table(w.letters for w in words)
    return list(table_classes(table, [None] * len(table[1]))[1])


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
