"""Group oracles with cheap canonical forms, and the presented-group decider.

An oracle fixes a group on k generators and supplies exact arithmetic on
canonical elements:

* ``canonicalize(word)`` maps a reduced word to the element it presents,
* ``multiply`` / ``invert`` / ``is_identity`` operate on canonical forms,
* ``length`` is the word length of the canonical form and
  ``enumerate_ball(r)`` lists all elements of length at most r,
* ``to_word`` renders a canonical element back as a reduced word.

Built-in oracles: free groups, free abelian groups Z^k, and the
fundamental group of the Klein bottle (normal forms x^m y^n with
multiplication twisting the y-exponent). Only these are accepted;
right-orderability and the word problem are undecidable for arbitrary
presentations.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterable, NamedTuple, Optional

from .derivation import (
    DerivationTree,
    Invalid,
    Valid,
    bounded_closure_with_parents,
    closure_leaf,
    leaf,
    product_witness,
)
from .words import IDENTITY, Word, ball as free_ball

__all__ = [
    "FreeGroupOracle",
    "IntLatticeOracle",
    "KleinElement",
    "KleinBottleOracle",
    "canonicalize_klein",
    "klein_right_order_sign",
    "KLEIN_ORDER_VARIANTS",
    "decide_presented_lg",
    "oracle_from_selector",
    "MAX_RANK",
]

# the largest rank a selector names: a witness holds one map per generator,
# and nothing the deciders do is practical far beyond this
MAX_RANK = 100


class FreeGroupOracle:
    """F(k); canonical elements are the reduced words themselves."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"rank must be >= 1, got {k}")
        self.k = k

    @property
    def name(self) -> str:
        return f"free:{self.k}"

    @property
    def identity(self) -> Word:
        return IDENTITY

    def canonicalize(self, w: Word) -> Word:
        self._check_rank(w)
        return w

    def to_word(self, g: Word) -> Word:
        return g

    def multiply(self, a: Word, b: Word) -> Word:
        return a * b

    def invert(self, a: Word) -> Word:
        return a.inverse()

    def is_identity(self, a: Word) -> bool:
        return not a.letters

    def length(self, a: Word) -> int:
        return len(a)

    def enumerate_ball(self, radius: int) -> list[Word]:
        return sorted(free_ball(self.k, radius))

    def _check_rank(self, w: Word) -> None:
        for l in w.letters:
            if abs(l) > self.k:
                raise ValueError(f"letter {l} exceeds rank {self.k}")


class IntLatticeOracle:
    """Z^k written multiplicatively; canonical elements are k-tuples."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"rank must be >= 1, got {k}")
        self.k = k

    @property
    def name(self) -> str:
        return f"zn:{self.k}"

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.k

    def canonicalize(self, w: Word) -> tuple[int, ...]:
        v = [0] * self.k
        for l in w.letters:
            if abs(l) > self.k:
                raise ValueError(f"letter {l} exceeds rank {self.k}")
            v[abs(l) - 1] += 1 if l > 0 else -1
        return tuple(v)

    def to_word(self, g: tuple[int, ...]) -> Word:
        letters: list[int] = []
        for i, c in enumerate(g, start=1):
            letters.extend([i if c > 0 else -i] * abs(c))
        return Word(tuple(letters))

    def multiply(self, a, b):
        return tuple(map(operator.add, a, b))

    def invert(self, a):
        return tuple(-x for x in a)

    def is_identity(self, a) -> bool:
        return all(x == 0 for x in a)

    def length(self, a) -> int:
        return sum(map(abs, a))

    def enumerate_ball(self, radius: int) -> list[tuple[int, ...]]:
        out = []
        for v in itertools.product(range(-radius, radius + 1), repeat=self.k):
            if sum(abs(x) for x in v) <= radius:
                out.append(v)
        return sorted(out, key=lambda g: (self.length(g), g))


class KleinElement(NamedTuple):
    m: int  # x-exponent
    n: int  # y-exponent, twisted by the sign (-1)^m under products


class KleinBottleOracle:
    """<x, y | x y x^-1 y>: normal forms x^m y^n.

    Multiplication follows (x^m1 y^n1)(x^m2 y^n2) = x^(m1+m2) y^((-1)^m2 n1 + n2);
    the minimal word length of x^m y^n is |m| + |n|.
    """

    k = 2

    @property
    def name(self) -> str:
        return "klein"

    @property
    def identity(self) -> KleinElement:
        return KleinElement(0, 0)

    def canonicalize(self, w: Word) -> KleinElement:
        g = KleinElement(0, 0)
        for l in w.letters:
            if abs(l) > 2:
                raise ValueError("the Klein bottle group has two generators")
            if abs(l) == 1:
                step = KleinElement(1 if l > 0 else -1, 0)
            else:
                step = KleinElement(0, 1 if l > 0 else -1)
            g = self.multiply(g, step)
        return g

    def to_word(self, g: KleinElement) -> Word:
        letters: list[int] = []
        letters.extend([1 if g.m > 0 else -1] * abs(g.m))
        letters.extend([2 if g.n > 0 else -2] * abs(g.n))
        return Word(tuple(letters))

    def multiply(self, a: KleinElement, b: KleinElement) -> KleinElement:
        n1 = a.n if b.m % 2 == 0 else -a.n
        return KleinElement(a.m + b.m, n1 + b.n)

    def invert(self, a: KleinElement) -> KleinElement:
        return KleinElement(-a.m, -a.n if a.m % 2 == 0 else a.n)

    def is_identity(self, a: KleinElement) -> bool:
        return a.m == 0 and a.n == 0

    def length(self, a: KleinElement) -> int:
        return abs(a.m) + abs(a.n)

    def enumerate_ball(self, radius: int) -> list[KleinElement]:
        out = []
        for m in range(-radius, radius + 1):
            for n in range(-radius + abs(m), radius - abs(m) + 1):
                out.append(KleinElement(m, n))
        return sorted(out, key=lambda g: (self.length(g), g))


_KLEIN = KleinBottleOracle()


def canonicalize_klein(w: Word) -> KleinElement:
    return _KLEIN.canonicalize(w)


# The Klein bottle group carries exactly four right orders; their positive
# cones are the sign-flipped lexicographic cones on the normal form (m, n).
KLEIN_ORDER_VARIANTS: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
)


def klein_right_order_sign(g: KleinElement, variant: int) -> int:
    """Sign of g in right order 1..4: +1 positive, -1 negative, 0 identity."""
    eps_x, eps_y = KLEIN_ORDER_VARIANTS[variant - 1]
    if g.m != 0:
        return 1 if eps_x * g.m > 0 else -1
    if g.n != 0:
        return 1 if eps_y * g.n > 0 else -1
    return 0


def _klein_cone_containing(canonical: frozenset) -> Optional[int]:
    for variant in range(1, 5):
        if all(klein_right_order_sign(g, variant) == 1 for g in canonical):
            return variant
    return None


def _klein_certificate(canonical: frozenset) -> DerivationTree:
    """A sign split on x, then on y, for a join no right order holds: in
    the order of each sign pair (ex, ey) some join element s = x^m y^n is
    negative, and s times powers of x^ex and y^ey is e."""
    x, y, halves = KleinElement(1, 0), KleinElement(0, 1), []
    for ex in (1, -1):
        px, leaves = KleinElement(ex, 0), []
        for ey in (1, -1):
            py = KleinElement(0, ey)
            variant = KLEIN_ORDER_VARIANTS.index((ex, ey)) + 1
            s = min(
                (g for g in canonical if klein_right_order_sign(g, variant) == -1),
                key=lambda g: (_KLEIN.length(g), g),
            )
            if s.m == 0:
                seq = [s] + [py] * abs(s.n)
            else:
                # s * px^(|m|-1) = x^-ex y^n
                n = s.n if s.m % 2 else -s.n
                ys = [py] * abs(n)
                tail = ys + [px] if ey * n <= 0 else [px] + ys
                seq = [s] + [px] * (abs(s.m) - 1) + tail
            leaves.append(closure_leaf(canonical | {px, py}, seq))
        halves.append(DerivationTree(canonical | {px}, "split", (y,), tuple(leaves)))
    return DerivationTree(canonical, "split", (x,), tuple(halves))


def decide_presented_lg(join: Iterable[Word], oracle, deadline: Optional[float] = None):
    """Decide e <= join in lattice-ordered groups satisfying the relations
    of the Klein bottle group or of Z^k; ValueError for any other oracle.

    A join holding the identity is valid at once. A Klein bottle join is
    invalid inside one of the group's four right orders, and otherwise
    valid with a certificate built outright: a sign split on x and on y,
    and a product reaching e in each of the four branches. A Z^k join on
    which some functional is strictly positive is invalid; otherwise it
    is valid, certified by an identity in the bounded product closure of
    the canonical join images (radius twice the longest, at least 2), or
    else by the vanishing combination of ``decide_abelian_order_extension``.
    A ``deadline`` binds in the closure and the combination search, which
    raise ``PastDeadline`` past it. An empty join, which every right order
    holds, is invalid over the Klein bottle group, in order 1; over Z^k,
    ``positive_functional`` refuses it with a ValueError.
    """
    if not isinstance(oracle, (KleinBottleOracle, IntLatticeOracle)):
        raise ValueError("the presented-group decider takes klein or zn:K")
    canonical = frozenset(oracle.canonicalize(w) for w in join)

    if oracle.identity in canonical:
        return Valid(leaf(canonical, oracle.identity), "identity")
    if isinstance(oracle, KleinBottleOracle):
        variant = _klein_cone_containing(canonical)
        if variant is None:
            return Valid(_klein_certificate(canonical), "klein-orders")
        witness = {"variant": variant, "epsilon": KLEIN_ORDER_VARIANTS[variant - 1]}
        return Invalid(witness, "klein-orders")

    from .biorder import decide_abelian_order_extension, positive_functional

    functional = positive_functional(canonical, oracle.k)
    if functional is not None:
        return Invalid({"functional": functional}, "abelian-duality")
    radius = max(2, 2 * max(oracle.length(g) for g in canonical))
    # the identity's parents are fixed in the round it enters
    closed, parents = bounded_closure_with_parents(
        canonical, radius, oracle, stop_at_identity=True, deadline=deadline
    )
    if oracle.identity in closed:
        seq = product_witness(oracle.identity, canonical, parents)
        return Valid(closure_leaf(canonical, seq), "closure")
    # no functional: the dichotomy yields a combination
    outcome = decide_abelian_order_extension(canonical, oracle.k, deadline)
    seq = [elem for elem, count in outcome.combination for _ in range(count)]
    return Valid(closure_leaf(canonical, seq), "abelian-duality")


def oracle_from_selector(selector: str):
    """Build an oracle from a selector string: free:K, zn:K, or klein, with
    K of at most nine decimal digits and 1 <= K <= MAX_RANK; ValueError
    otherwise."""
    if selector == "klein":
        return KleinBottleOracle()
    # a bounded digit count keeps int() within the interpreter's limit
    match = re.fullmatch(r"(free|zn):([0-9]{1,9})", selector)
    if match is None:
        raise ValueError(f"bad group selector {selector!r}")
    k = int(match[2])
    if not 1 <= k <= MAX_RANK:
        raise ValueError(f"group rank {k} is not between 1 and {MAX_RANK}")
    return (FreeGroupOracle if match[1] == "free" else IntLatticeOracle)(k)
