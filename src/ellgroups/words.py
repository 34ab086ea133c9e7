"""Freely reduced words over a finite set of generators.

A word is a tuple of nonzero integers: letter ``+i`` is the i-th generator,
``-i`` its inverse. The empty word is the group identity ``e``. Every
operation keeps words freely reduced, so equality of letter tuples is
equality in the free group.

Generators render as x, y, z, then x4, x5, ...
"""

from __future__ import annotations

import functools
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
        return reduced_word(inverse_letters(self.letters))

    @property
    def key(self) -> tuple:
        return letters_key(self.letters)

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
    # product is reduced
    return reduced_word(letters)


def reduced_word(letters: tuple[int, ...]) -> Word:
    """A Word from letters known to be reduced, skipping the constructor's
    check."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def letters_key(letters: tuple[int, ...]) -> tuple:
    """The sort key of a reduced word's letters: length, then letterwise."""
    return (len(letters), tuple(map(_code, letters)))


def inverse_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of a reduced word's inverse, which is reduced too."""
    return tuple(-l for l in reversed(letters))


def round_products(lefts, rights, radius: int, current: set, new: dict, goal) -> bool:
    """One closure round's products on letter tuples: every a*b, a from
    lefts and b from rights in that nested order, of length <= radius and
    not yet in current goes into current, and into new with (a, b) as its
    parents. e is in neither list. Returns True, at once, when the product
    added is goal (None for no goal); False when the products run out."""
    for a in lefts:
        n = len(a)
        head, short = -a[-1], radius - n
        for b in rights:
            if b[0] == head:
                i, stop = 1, min(n, len(b))
                while i < stop and a[n - 1 - i] == -b[i]:
                    i += 1
                if n + len(b) - 2 * i > radius:
                    continue
                c = a[: n - i] + b[i:]
            elif len(b) > short:
                continue
            else:
                c = a + b
            if c not in current:
                current.add(c)
                new[c] = (a, b)
                if c == goal:
                    return True
    return False


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


def _prefix_codes(w: tuple[int, ...], base: int):
    """For each nonempty prefix p of w, in order: p, the integer code of p,
    the code of p^-1 and base**len(p).

    A word's code is the integer whose base-``base`` digits are its
    letter codes; with ``base`` above every letter code, distinct words
    get distinct codes and integers order as words do.
    """
    code, inverse, power = 0, 0, 1
    for i, l in enumerate(w, 1):
        code = code * base + _code(l)
        inverse += _code(-l) * power
        power *= base
        yield w[:i], code, inverse, power


def difference_table(
    words: Iterable[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[list[tuple[int, int]]]]:
    """The difference classes of a join given as letter tuples, on indices.

    Returns the initial subterms (e included) as letter tuples in ascending
    word order, the class representatives in ascending order, and for each
    class its sorted (i, j) node-index pairs with nodes[i] * nodes[j]^-1
    equal to the representative. No Word is built.

    Words are compared as integer codes (``_prefix_codes``). Nodes u = p*x
    and v = q*x have u*v^-1 = p*q^-1, so such a pair takes the class and
    orientation of its parents' pair, found earlier. Otherwise u*v^-1 is
    already reduced: its code is code(u) * B**|v| + code(v^-1), that of its
    inverse code(v) * B**|u| + code(u^-1), and the smaller is the
    representative. A representative's letters are built once, when it
    first appears.
    """
    words = list(words)
    base = 2 * max((abs(l) for w in words for l in w), default=1) + 2
    coded = {(): (0, 0, 1)}
    for w in words:
        for p, *values in _prefix_codes(w, base):
            coded[p] = values
    nodes = sorted(coded, key=lambda t: coded[t][0])
    n = len(nodes)
    position = {t: i for i, t in enumerate(nodes)}
    codes, inverses, powers = zip(*map(coded.__getitem__, nodes))
    # e has no parent, and its last letter 0 matches no other node's
    last = [t[-1] if t else 0 for t in nodes]
    parent = [position[t[:-1]] if t else 0 for t in nodes]
    inverted = list(map(inverse_letters, nodes))
    # pair i < j holds c when nodes[i] * nodes[j]^-1 is the representative
    # of class c, ~c when nodes[j] * nodes[i]^-1 is
    table = [0] * (n * n)
    classes: dict[int, int] = {}
    reps: list[tuple[int, ...]] = []
    pairs: list[list[tuple[int, int]]] = []
    for i in range(n):
        u_code, u_inverse, u_power = codes[i], inverses[i], powers[i]
        u_last, row, parents = last[i], i * n, parent[i] * n
        for j in range(i + 1, n):
            if last[j] == u_last:
                c = table[parents + parent[j]]
            else:
                d = u_code * powers[j] + inverses[j]
                d_inverse = codes[j] * u_power + u_inverse
                if d_inverse < d:
                    c = classes.get(d_inverse)
                    if c is None:
                        c = classes[d_inverse] = len(reps)
                        reps.append(nodes[j] + inverted[i])
                        pairs.append([])
                    c = ~c
                else:
                    c = classes.get(d)
                    if c is None:
                        c = classes[d] = len(reps)
                        reps.append(nodes[i] + inverted[j])
                        pairs.append([])
            table[row + j] = c
            if c >= 0:
                pairs[c].append((i, j))
            else:
                pairs[~c].append((j, i))
    for p in pairs:
        p.sort()
    ranked = [classes[d] for d in sorted(classes)]
    return nodes, [reps[c] for c in ranked], [pairs[c] for c in ranked]


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
