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
from typing import Iterable, NamedTuple, Optional

from . import derivation
from .derivation import (
    DerivationTree,
    Invalid,
    RuleSystem,
    Unknown,
    Valid,
    bounded_closure_with_parents,
    closure_leaf,
    leaf,
    product_witness,
)
from .rightorder import LgInvalid, LgValid, decide_valid_lg
from .words import IDENTITY, Word, ball as free_ball

__all__ = [
    "FreeGroupOracle",
    "IntLatticeOracle",
    "KleinElement",
    "KleinBottleOracle",
    "canonicalize_klein",
    "klein_right_order_sign",
    "KLEIN_ORDER_VARIANTS",
    "semigroup_closure_in_ball",
    "normal_closure_in_ball",
    "decide_presented_lg",
    "oracle_from_selector",
]


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

    # this group carries exactly four right orders, so a complete
    # enumeration is part of the oracle surface
    def right_order_variants(self) -> tuple[int, ...]:
        return (1, 2, 3, 4)

    def right_order_sign(self, g: KleinElement, variant: int) -> int:
        return klein_right_order_sign(g, variant)


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


def semigroup_closure_in_ball(
    elements: Iterable, radius: int, oracle
) -> tuple[frozenset, dict]:
    """Close under products within the radius ball; the returned parent map
    records one decomposition per added element for witness extraction."""
    return bounded_closure_with_parents(elements, radius, oracle)


def normal_closure_in_ball(
    elements: Iterable, radius: int, oracle, conjugator_radius: int = 2
) -> frozenset:
    """Close under in-ball products and conjugation by short conjugators."""
    conjugators = oracle.enumerate_ball(conjugator_radius)
    current = set(elements)
    while True:
        snapshot = sorted(
            current, key=lambda g: derivation.element_sort_key(oracle, g)
        )
        added = False
        for a in snapshot:
            for b in snapshot:
                c = oracle.multiply(a, b)
                if oracle.length(c) <= radius and c not in current:
                    current.add(c)
                    added = True
            for g in conjugators:
                c = oracle.multiply(oracle.multiply(g, a), oracle.invert(g))
                if oracle.length(c) <= radius and c not in current:
                    current.add(c)
                    added = True
        if not added:
            return frozenset(current)


def _closure_certificate(
    canonical: frozenset, radius: int, oracle
) -> Optional[DerivationTree]:
    closed, parents = semigroup_closure_in_ball(canonical, radius, oracle)
    if oracle.identity not in closed:
        return None
    seq = product_witness(oracle.identity, canonical, parents)
    return closure_leaf(canonical, seq)


def _klein_cone_containing(canonical: frozenset) -> Optional[int]:
    for variant in range(1, 5):
        if all(klein_right_order_sign(g, variant) == 1 for g in canonical):
            return variant
    return None


def decide_presented_lg(
    join: Iterable[Word],
    oracle,
    *,
    radius: Optional[int] = None,
    depth: int = 4,
    universe_cap: int = 32,
):
    """Decide e <= join in lattice-ordered groups satisfying the oracle's
    relations (the oracle's group must be right-orderable).

    Certificates are attempted first: an identity in the bounded product
    closure of the canonical join images, then derivation search. The
    built-in oracles all have a complete fallback: free groups delegate
    to the difference-system decider, the Klein bottle enumerates its
    four right orders, and Z^k reduces to exact linear duality. Other
    oracles fall back to Unknown when no certificate is found.
    """
    join = frozenset(join)
    if not join:
        raise ValueError("empty join set")
    canonical = frozenset(oracle.canonicalize(w) for w in join)
    if radius is None:
        radius = max(2, 2 * max(oracle.length(g) for g in canonical))

    certificate: Optional[DerivationTree] = None
    method = ""
    if oracle.identity in canonical:
        certificate = leaf(canonical, oracle.identity)
        method = "identity"
    if certificate is None:
        certificate = _closure_certificate(canonical, radius, oracle)
        method = "closure"
    if certificate is None:
        certificate = derivation.search(
            canonical,
            RuleSystem.RIGHT_ORDER,
            oracle,
            max_depth=depth,
            universe_cap=universe_cap,
        )
        method = "derivation-search"

    if isinstance(oracle, KleinBottleOracle):
        variant = _klein_cone_containing(canonical)
        if certificate is not None and variant is not None:
            raise AssertionError(
                "certificate and right-order cone cannot both exist; "
                f"cone variant {variant} contains the join set"
            )
        if certificate is not None:
            return Valid(certificate, method)
        if variant is not None:
            eps = KLEIN_ORDER_VARIANTS[variant - 1]
            return Invalid(
                witness={"variant": variant, "epsilon": eps},
                method="klein-orders",
            )
        return Valid(None, "klein-orders", {"cones_checked": 4})

    if certificate is not None:
        return Valid(certificate, method)

    if isinstance(oracle, FreeGroupOracle):
        verdict = decide_valid_lg(canonical)
        if isinstance(verdict, LgValid):
            return Valid(
                None,
                "difference-system",
                {"assignments_checked": verdict.assignments_checked},
            )
        assert isinstance(verdict, LgInvalid)
        return Invalid(witness=verdict, method="difference-system")

    if isinstance(oracle, IntLatticeOracle):
        from .biorder import DoesNotExtend, decide_abelian_order_extension

        outcome = decide_abelian_order_extension(canonical, oracle.k)
        if isinstance(outcome, DoesNotExtend):
            seq = []
            for elem, count in outcome.combination:
                seq.extend([elem] * count)
            return Valid(closure_leaf(canonical, seq), "abelian-duality")
        return Invalid(
            witness={"functional": outcome.functional}, method="abelian-duality"
        )

    return Unknown(
        budgets={"radius": radius, "depth": depth, "universe_cap": universe_cap}
    )


def oracle_from_selector(selector: str):
    """Build an oracle from a selector string: free:K, zn:K, or klein."""
    if selector == "klein":
        return KleinBottleOracle()
    for prefix, cls in (("free:", FreeGroupOracle), ("zn:", IntLatticeOracle)):
        if selector.startswith(prefix):
            try:
                k = int(selector[len(prefix) :])
            except ValueError:
                raise ValueError(f"bad group selector {selector!r}") from None
            return cls(k)
    raise ValueError(f"bad group selector {selector!r}")
