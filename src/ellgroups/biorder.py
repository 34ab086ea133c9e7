"""Validity in representable lattice-ordered groups (classes of o-groups).

Validity of e <= t_1 v ... v t_n in all o-groups is semidecided from two
sides. A derivation tree in the bi-order rule system certifies validity.
For invalidity, the free group is embedded into truncated integral power
series in noncommuting variables (x_i maps to 1 + e_i X_i); ordering
series by the sign of the first nonzero coefficient in a graded
lexicographic monomial order yields a two-sided group order for every
choice of variable signs and variable precedence. If one such order (or
its dual) makes every join member strictly positive, the join set
extends to an order and the inequation fails. Neither side is complete,
so exhausted budgets surface as Unknown rather than a guess.

The free abelian case is decided exactly: a finite set of nonzero
integer vectors extends to a group order of Z^k if and only if some
rational functional is strictly positive on it, and otherwise a nonzero
nonnegative integer combination of the vectors sums to zero. Exactly one
of the two exists; feasibility runs by exact Fourier-Motzkin
elimination on integers, and the vanishing combination by growing brute
force.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Optional, Union

from . import derivation
from .derivation import (
    DerivationTree,
    Invalid,
    RuleSystem,
    Unknown,
    Valid,
    exchange_node,
    leaf,
)
from .groups import FreeGroupOracle, KleinBottleOracle
from .words import IDENTITY, Word

__all__ = [
    "MagnusOrder",
    "magnus_expand",
    "series_multiply",
    "magnus_sign",
    "decide_valid_rg",
    "ExtendsToOrder",
    "DoesNotExtend",
    "decide_abelian_order_extension",
    "positive_functional",
    "decide_klein_biorderable",
]

Series = dict[tuple[int, ...], int]


def series_multiply(a: Series, b: Series, degree: int) -> Series:
    out: Series = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if len(ma) + len(mb) <= degree:
                m = ma + mb
                c = out.get(m, 0) + ca * cb
                if c:
                    out[m] = c
                elif m in out:
                    del out[m]
    return out


def _letter_series(letter: int, degree: int, epsilon: tuple[int, ...]) -> Series:
    g = abs(letter)
    e = epsilon[g - 1]
    if letter > 0:
        return {(): 1, (g,): e}
    # (1 + eX)^-1 = 1 - eX + (eX)^2 - ... truncated
    out: Series = {(): 1}
    for j in range(1, degree + 1):
        out[(g,) * j] = (-e) ** j
    return out


def magnus_expand(w: Word, degree: int, epsilon: tuple[int, ...]) -> Series:
    """Truncated series of the word under x_i -> 1 + epsilon_i X_i."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    out: Series = {(): 1}
    for letter in w.letters:
        out = series_multiply(out, _letter_series(letter, degree, epsilon), degree)
    return out


@dataclass(frozen=True)
class MagnusOrder:
    """A two-sided order on the free group: variable signs plus a variable
    precedence for the graded-lexicographic comparison of monomials."""

    epsilon: tuple[int, ...]
    precedence: tuple[int, ...]

    @functools.cached_property
    def monomial_key(self) -> Callable[[tuple[int, ...]], tuple]:
        """The sort key of a monomial: its degree, then each variable's
        place in the precedence. Built once per order."""
        place = {g: i for i, g in enumerate(self.precedence)}.__getitem__
        return lambda m: (len(m), tuple(map(place, m)))


def magnus_sign(w: Word, order: MagnusOrder, degree: int) -> Optional[int]:
    """Sign of w under the order: +1, -1, or None when every coefficient
    up to the given degree vanishes (always for the identity)."""
    series = magnus_expand(w, degree, order.epsilon)
    series.pop((), None)
    if not series:
        return None
    lead = min(series, key=order.monomial_key)
    return 1 if series[lead] > 0 else -1


_DEGREE_GROWTH = 4  # cap multiplier for the truncation degree


def _uniform_sign_order(
    join: frozenset[Word], k: int, deadline: Optional[float]
) -> tuple[Optional[tuple[MagnusOrder, int]], int]:
    base_degree = max(1, max(len(w) for w in join))
    tried = 0
    words = sorted(join)
    for eps in itertools.product((1, -1), repeat=k):
        # the series depends on the signs only, not on the precedence
        cached: list[Series] = []
        for w in words:
            d = base_degree
            series = magnus_expand(w, d, eps)
            series.pop((), None)
            while not series and d < base_degree * _DEGREE_GROWTH:
                d *= 2
                series = magnus_expand(w, d, eps)
                series.pop((), None)
            cached.append(series)
        for perm in itertools.permutations(range(1, k + 1)):
            if deadline is not None and time.monotonic() > deadline:
                raise derivation.PastDeadline
            tried += 1
            order = MagnusOrder(eps, perm)
            signs = []
            for series in cached:
                if not series:
                    signs.append(None)
                    continue
                lead = min(series, key=order.monomial_key)
                signs.append(1 if series[lead] > 0 else -1)
            if None in signs:
                continue
            if all(s == 1 for s in signs) or all(s == -1 for s in signs):
                return (order, signs[0]), tried
    return None, tried


def decide_valid_rg(
    join: Iterable[Word],
    k: int,
    *,
    max_depth: int = 4,
    universe_cap: int = 32,
    deadline: Optional[float] = None,
) -> Union[Valid, Invalid, Unknown]:
    """Semidecide e <= join in all o-groups over F(k).

    A uniform strict Magnus sign across the join set exhibits an order
    (or its dual) whose positive cone contains the set, refuting the
    inequation; a bi-order derivation tree, searched to ``max_depth`` over
    at most ``universe_cap`` factors, certifies it. Budgets exhausted on
    both sides yield Unknown naming them. Past a ``deadline``
    (a ``time.monotonic()`` instant), the order loop or the search raises
    ``derivation.PastDeadline``.
    """
    join = frozenset(join)
    if not join:
        raise ValueError("empty join set")
    if IDENTITY in join:
        return Valid(leaf(join, IDENTITY), "identity")

    witness, orders_tried = _uniform_sign_order(join, k, deadline)
    if witness is not None:
        order, sign = witness
        return Invalid(
            witness={
                "epsilon": order.epsilon,
                "perm": order.precedence,
                "sign": "pos" if sign == 1 else "neg",
            },
            method="magnus-order",
        )

    if max_depth > 0:
        tree = derivation.search(
            join,
            RuleSystem.BI_ORDER,
            FreeGroupOracle(k),
            max_depth=max_depth,
            universe_cap=universe_cap,
            deadline=deadline,
        )
        if tree is not None:
            return Valid(tree, "derivation-search")

    return Unknown(
        budgets={
            "search_depth": max_depth,
            "universe_cap": universe_cap,
            "orders_tried": orders_tried,
            "degree_growth": _DEGREE_GROWTH,
        }
    )


@dataclass(frozen=True)
class ExtendsToOrder:
    functional: tuple[int, ...]  # integer functional, strictly positive on the set


@dataclass(frozen=True)
class DoesNotExtend:
    # nonzero nonnegative combination summing to zero: ((vector, count), ...)
    combination: tuple[tuple[tuple[int, ...], int], ...]


def _fourier_motzkin(rows: list[tuple[int, ...]], k: int) -> Optional[tuple[int, ...]]:
    """Feasibility of {coeffs . phi >= const} over the rationals, by
    fraction-free elimination; returns the smallest positive integer
    multiple of the rational witness, or None.

    A row is a tuple of integers, coefficients then constant. Eliminating
    a variable adds |c_s| r + c_r s for every row r with c_r > 0 and every
    row s with c_s < 0, divided by the gcd of its entries: scaling a row by
    a positive number leaves the bound it gives unchanged, so every stage
    and the witness match elimination over the rationals.
    """
    stages = []
    current = rows
    for _ in range(k):
        lowers = []  # c > 0: phi_var >= (const - tail . rest) / c
        uppers = []  # c < 0: phi_var <= (const - tail . rest) / c
        rest = []
        for row in current:
            if row[0] > 0:
                lowers.append(row)
            elif row[0] < 0:
                uppers.append(row)
            else:
                rest.append(row[1:])
        for r in lowers:
            cr = r[0]
            for s in uppers:
                cs = -s[0]
                combined = [cs * a + cr * b for a, b in zip(r[1:], s[1:])]
                # the constants start at 1 and combine with positive
                # weights, so the gcd is never 0
                g = gcd(*combined)
                rest.append(tuple(x // g for x in combined))
        stages.append((lowers, uppers))
        current = rest
    for (const,) in current:
        if const > 0:
            return None
    # phi_{var+1..k-1} = nums / den, den > 0 and gcd(den, *nums) = 1
    nums: list[int] = []
    den = 1
    for lowers, uppers in reversed(stages):
        # a bound is n / (c * den) with c > 0, kept as (n, c)
        lo = hi = None
        for row in lowers:
            n = row[-1] * den - sum(a * x for a, x in zip(row[1:-1], nums))
            if lo is None or n * lo[1] > lo[0] * row[0]:
                lo = (n, row[0])
        for row in uppers:
            n = sum(a * x for a, x in zip(row[1:-1], nums)) - row[-1] * den
            if hi is None or n * hi[1] < hi[0] * -row[0]:
                hi = (n, -row[0])
        if lo is None and hi is None:
            n, c = 0, 1
        elif lo is None:
            n, c = hi
        elif hi is None:
            n, c = lo
        else:
            n, c = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        den *= c
        nums = [n] + [x * c for x in nums]
        g = gcd(den, *nums)
        den //= g
        nums = [x // g for x in nums]
    return tuple(nums)


def _vector_set(vectors: Iterable[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    """The distinct vectors in ascending order; ValueError for an empty
    set, a vector of another length or the zero vector."""
    vs = sorted(set(tuple(v) for v in vectors))
    if not vs:
        raise ValueError("empty vector set")
    if any(len(v) != k for v in vs):
        raise ValueError("vector length differs from rank")
    if any(all(x == 0 for x in v) for v in vs):
        raise ValueError("the zero vector never extends to an order")
    return vs


def _checked_functional(vs: list[tuple[int, ...]], k: int) -> Optional[tuple[int, ...]]:
    functional = _fourier_motzkin([v + (1,) for v in vs], k)
    if functional is not None:
        for v in vs:
            if sum(c * x for c, x in zip(functional, v)) <= 0:
                raise RuntimeError(
                    f"functional {functional} is not positive on {v}"
                )
    return functional


def positive_functional(
    vectors: Iterable[tuple[int, ...]], k: int
) -> Optional[tuple[int, ...]]:
    """A strictly positive integer functional on a finite set of nonzero
    vectors of Z^k, found by exact Fourier-Motzkin elimination on integers
    and re-verified by substitution, or None when none exists."""
    return _checked_functional(_vector_set(vectors, k), k)


# combinations between two reads of the clock in a search with a deadline
_CLOCK_BLOCK = 4096


def _clocked(combos, deadline: float):
    for i, combo in enumerate(combos):
        if i % _CLOCK_BLOCK == 0 and time.monotonic() > deadline:
            raise derivation.PastDeadline
        yield combo


def decide_abelian_order_extension(
    vectors: Iterable[tuple[int, ...]], k: int, deadline: Optional[float] = None
) -> Union[ExtendsToOrder, DoesNotExtend]:
    """Exact dichotomy for order extension of finite subsets of Z^k.

    Returns a strictly positive integer functional, or else a nonzero
    nonnegative integer combination of the vectors summing to zero, which
    duality guarantees. Witnesses are re-verified by substitution before
    returning. Past a ``deadline`` (a ``time.monotonic()`` instant), the
    combination search raises ``derivation.PastDeadline``.
    """
    vs = _vector_set(vectors, k)
    functional = _checked_functional(vs, k)
    if functional is not None:
        return ExtendsToOrder(functional)

    for total in itertools.count(1):
        combos = itertools.combinations_with_replacement(vs, total)
        if deadline is not None:
            combos = _clocked(combos, deadline)
        for combo in combos:
            if all(sum(col) == 0 for col in zip(*combo)):
                counts = [(v, combo.count(v)) for v in vs if v in combo]
                if any(sum(v[i] * c for v, c in counts) != 0 for i in range(k)):
                    raise RuntimeError(f"combination {counts} does not vanish")
                return DoesNotExtend(tuple(counts))


def decide_klein_biorderable() -> DerivationTree:
    """Certificate that the Klein bottle group carries no two-sided order:
    a single generator set is already in the bi-order family.

    The premise {y, x y x^-1} is a leaf since x y x^-1 = y^-1 in the
    group, and rotating the factorization y = x^-1 * (x y) closes the
    exchange step down to {y}. The tree passes the checker against the
    Klein oracle (and its leaf fails against a free oracle).
    """
    oracle = KleinBottleOracle()
    y = oracle.canonicalize(Word((2,)))
    y_inv = oracle.canonicalize(Word((1, 2, -1)))  # x y x^-1
    premise = leaf({y, y_inv}, y)
    x_inv = oracle.canonicalize(Word((-1,)))
    xy = oracle.canonicalize(Word((1, 2)))
    tree = exchange_node({y}, y, x_inv, xy, premise)
    derivation.check(tree, RuleSystem.BI_ORDER, oracle)
    return tree
