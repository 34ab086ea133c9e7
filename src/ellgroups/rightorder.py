"""Deciders for "e <= t_1 v ... v t_n" over free groups, with witnesses.

Two complete and independent procedures are provided:

* the difference-system method: orient every pairwise quotient of the
  initial subterms by a sign, and test each resulting tournament of
  strict inequalities for a directed cycle; the inequation is valid
  exactly when every sign choice is cyclic;

* the truncated-right-order method: backtracking extension of the input
  set to a product-closed, total positive cone inside the ball of the
  maximal input length.

An invalid inequation yields an acyclic witness, which converts into
piecewise-linear order-automorphisms of the real line moving the rank
of e strictly down along every join member.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .derivation import PastDeadline, bounded_closure_with_parents
from .groups import FreeGroupOracle
from .words import (
    IDENTITY,
    DifferenceClass,
    Word,
    ball,
    ball_letters,
    difference_table,
    initial_subterms,
    inverse_letters,
    reduced_word,
    table_classes,
)

__all__ = [
    "DifferenceClass",
    "DifferenceSystem",
    "Acyclic",
    "Cycle",
    "LgValid",
    "LgInvalid",
    "TruncatedRightOrder",
    "PLAutomorphism",
    "build_difference_system",
    "consistent",
    "decide_valid_lg",
    "product_closure_in_ball",
    "clay_smith",
    "counterexample_automorphisms",
    "evaluate_pl",
    "find_bifurcation",
]


@dataclass(frozen=True)
class DifferenceSystem:
    """Initial subterms of a join set together with the sign slots.

    Every unordered pair of distinct nodes is oriented by exactly one
    class. A class whose representative (or its inverse) already lies in
    the base join set carries the corresponding forced sign; if both lie
    in the base, the system is immediately cyclic.
    """

    base: frozenset[Word]
    nodes: tuple[Word, ...]
    classes: tuple[DifferenceClass, ...]
    immediately_cyclic: bool


@dataclass(frozen=True)
class Acyclic:
    order: tuple[Word, ...]  # node words, ascending


@dataclass(frozen=True)
class Cycle:
    nodes: tuple[Word, ...]  # directed cycle, first node repeated implicitly


@dataclass(frozen=True)
class LgValid:
    assignments_checked: int
    nodes_explored: int = 0


@dataclass(frozen=True)
class LgInvalid:
    """An acyclic sign assignment, the witness that e <= join fails.

    ``reps`` holds the letter tuples of the class representatives in
    class order, and ``signs`` is aligned with them; ``order`` lists the
    initial subterms of ``join`` in ascending witness order.
    """

    join: frozenset[Word]
    reps: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]
    order: tuple[Word, ...]
    assignments_checked: int = 0
    nodes_explored: int = 0


def _has_inverse_pair(join: frozenset[tuple[int, ...]]) -> bool:
    # some w and w^-1 both in the join (w = e included): the quotient of
    # the prefix pair (w, e) is then forced both ways, so every sign
    # assignment is cyclic; O(|join|), before the O(n^2) class table
    return any(inverse_letters(w) in join for w in join)


def _forced_signs(
    base: frozenset[tuple[int, ...]], reps: Iterable[tuple[int, ...]]
) -> list[Optional[int]]:
    # per class, +1 when its representative lies in the base (given as
    # letter tuples), else -1 when its inverse does
    inverses = frozenset(map(inverse_letters, base))
    return [1 if r in base else -1 if r in inverses else None for r in reps]


def build_difference_system(join: Iterable[Word]) -> DifferenceSystem:
    base = frozenset(join)
    if IDENTITY in base:
        raise ValueError("identity in the join set; validity is immediate")
    letters = frozenset(w.letters for w in base)
    table = difference_table(letters)
    forced = _forced_signs(letters, table[1])
    return DifferenceSystem(
        base, *table_classes(table, forced), _has_inverse_pair(letters)
    )


def consistent(
    sys: DifferenceSystem, signs: Sequence[int]
) -> Union[Acyclic, Cycle]:
    """Test one total sign assignment.

    Sign +1 on a class orients each pair (u, v) as a_u < a_v (the
    quotient u*v^-1 joins the positive set); -1 reverses it. Every node
    pair is oriented, so the digraph is a tournament: acyclic means a
    unique total order, otherwise a directed cycle exists.
    """
    if len(signs) != len(sys.classes):
        raise ValueError("sign assignment must cover every class")
    n = len(sys.nodes)
    index = {w: i for i, w in enumerate(sys.nodes)}
    succ: list[set[int]] = [set() for _ in range(n)]
    for cls, sign in zip(sys.classes, signs):
        if cls.forced_sign is not None and sign != cls.forced_sign:
            raise ValueError(f"sign for class {cls.rep} violates forced sign")
        for u, v in cls.oriented_pairs:
            ui, vi = index[u], index[v]
            if sign == 1:
                succ[ui].add(vi)
            else:
                succ[vi].add(ui)
    # transitive tournaments are exactly those with pairwise distinct
    # out-degrees; the ascending order is by descending score
    scores = [len(s) for s in succ]
    if len(set(scores)) == n:
        order = sorted(range(n), key=lambda i: -scores[i])
        return Acyclic(tuple(sys.nodes[i] for i in order))
    # non-transitive tournament: a directed 3-cycle exists
    for a, b, c in itertools.combinations(range(n), 3):
        for u, v, w in ((a, b, c), (a, c, b)):
            if v in succ[u] and w in succ[v] and u in succ[w]:
                return Cycle((sys.nodes[u], sys.nodes[v], sys.nodes[w]))
    raise AssertionError("tournament with repeated scores but no 3-cycle")


def _column(n: int) -> int:
    # bit 0 of every row of an n*n-bit matrix
    return sum(1 << (w * n) for w in range(n))


def _grow(
    closure: int, n: int, column: int, pairs: Iterable[tuple[int, int]], sign: int
) -> Optional[int]:
    # closure is an n*n-bit matrix, bit u*n + v set when v is strictly
    # reachable from u; returns it with the edges u -> v (v -> u for sign
    # -1) of the pairs added and closed transitively, or None if an edge
    # closes a cycle
    row = (1 << n) - 1
    for u, v in pairs:
        if sign == -1:
            u, v = v, u
        if (closure >> (v * n + u)) & 1:
            return None
        add = ((closure >> (v * n)) & row) | (1 << v)
        # one bit per row for u and every node reaching u; the product
        # copies add into each of those rows, without carries
        sources = ((closure >> u) & column) | (1 << (u * n))
        closure |= sources * add
    return closure


def decide_valid_lg(
    join: Iterable[Word], deadline: Optional[float] = None
) -> Union[LgValid, LgInvalid]:
    """Decide validity of e <= join in all lattice-ordered groups.

    Valid exactly when every total sign assignment on the difference
    classes yields a cyclic tournament. Signs are enumerated with the
    classes in canonical order, +1 before -1, and the first acyclic
    assignment wins; subtrees whose partial orientation already contains
    a cycle are skipped, which cannot change the outcome or the witness.
    ``assignments_checked`` counts complete assignments covered, so it
    matches plain exhaustive enumeration. A join holding some w and w^-1
    (e included) is valid with no assignment checked, and its difference
    system is never built.

    The search runs on ``words.difference_table``: node indices, per class
    its index pairs, and forced signs read off the join's letter tuples.
    The partial order is one integer, an n*n-bit reachability matrix, and
    each class's pairs are such a matrix too, one per orientation: a sign
    whose reversed pairs meet the order closes a cycle, and one whose
    pairs all lie in it adds nothing, so most levels cost two integer
    tests. The search recurses only where both signs survive and walks on
    in a loop elsewhere; after a large +1 subtree it drops the levels the
    -1 order already settles, which it then passes without a test. It
    counts the states it reaches; the counts of the plain recursion, which
    tries +1 and then -1 at every state, follow from that number and the
    leaf's signs. An ``LgInvalid`` carries the join, the table's class
    representatives as letter tuples and the signs, and builds only the
    Words of its order; no Word-level ``DifferenceSystem`` is built.

    With a ``deadline`` (a ``time.monotonic()`` instant), each state where
    both signs survive first checks the clock, and a search still running
    past it raises ``PastDeadline``.
    """
    join = frozenset(join)
    if not join:
        raise ValueError("empty join set")
    letters = frozenset(w.letters for w in join)
    if _has_inverse_pair(letters):
        return LgValid(assignments_checked=0)
    nodes, reps, edges = difference_table(letters)
    n = len(nodes)
    forced_signs = _forced_signs(letters, reps)
    forced = [(i, s) for i, s in enumerate(forced_signs) if s is not None]
    free = [i for i, s in enumerate(forced_signs) if s is None]
    m = len(free)

    column = _column(n)
    base: Optional[int] = 0
    for tried, (ci, sign) in enumerate(forced, 1):
        base = _grow(base, n, column, edges[ci], sign)
        if base is None:
            return LgValid(assignments_checked=2**m, nodes_explored=tried)

    # per free class, its pairs as matrix bits, oriented +1 and -1
    ups, downs = [], []
    for ci in free:
        up = down = 0
        for u, v in edges[ci]:
            up |= 1 << (u * n + v)
            down |= 1 << (v * n + u)
        ups.append(up)
        downs.append(down)
    states = 0  # search states visited: levels reached below m

    def search(start: int, closure: int, levels: list[int]) -> Optional[int]:
        # walks from level start on, branching where both signs survive;
        # returns the order at the first leaf, or None. levels lists the
        # levels from start on that the order had not settled when last
        # filtered: a settled level adds nothing, so it is passed untested
        nonlocal states
        level = start
        i = 0
        while i < len(levels):
            level = levels[i]
            i += 1
            up, down = ups[level], downs[level]
            if closure & down:
                if closure & up:
                    break
                if closure & down != down:
                    closure = _grow(closure, n, column, edges[free[level]], -1)
                    if closure is None:
                        break
            elif closure & up:
                if closure & up != up:
                    closure = _grow(closure, n, column, edges[free[level]], 1)
                    if closure is None:
                        break
            else:
                plus = _grow(closure, n, column, edges[free[level]], 1)
                minus = _grow(closure, n, column, edges[free[level]], -1)
                if plus is None:
                    closure = minus
                elif minus is None:
                    closure = plus
                else:
                    if deadline is not None and time.monotonic() > deadline:
                        raise PastDeadline
                    before = states
                    leaf = search(level + 1, plus, levels[i:])
                    if leaf is not None:
                        states += level + 1 - start
                        return leaf
                    closure = minus
                    if states - before > len(levels) - i:
                        # the +1 side outweighed a pass over the levels
                        # left; drop those the -1 order settles
                        levels = [
                            l for l in levels[i:]
                            if closure & ups[l] != ups[l] and closure & downs[l] != downs[l]
                        ]
                        i = 0
                if closure is None:
                    break
        else:
            states += m - start
            return closure
        states += level + 1 - start
        return None

    leaf = search(0, base, list(range(m)))
    if leaf is None:
        # every state tried both signs; all 2**m assignments are covered
        return LgValid(assignments_checked=2**m, nodes_explored=len(forced) + 2 * states)
    # the leaf's order fixes every sign. Before the leaf, the search
    # covered exactly the assignments that come first in +1-before--1
    # order, and tried both signs at every state except where the leaf's
    # path took +1, whose -1 it never reached
    signs = [s or 0 for s in forced_signs]
    checked = 1
    for level, (ci, up) in enumerate(zip(free, ups)):
        if leaf & up == up:
            signs[ci] = 1
        else:
            signs[ci] = -1
            checked += 1 << (m - level - 1)
    pluses = sum(signs[ci] == 1 for ci in free)
    row = (1 << n) - 1
    order = sorted(range(n), key=lambda i: -bin((leaf >> (i * n)) & row).count("1"))
    return LgInvalid(
        join=join,
        reps=tuple(reps),
        signs=tuple(signs),
        order=tuple(reduced_word(nodes[i]) for i in order),
        assignments_checked=checked,
        nodes_explored=len(forced) + 2 * states - pluses,
    )


def decide_valid_lg_bruteforce(join: Iterable[Word]) -> Union[LgValid, LgInvalid]:
    """Plain enumeration of all sign assignments; for cross-checking only."""
    join = frozenset(join)
    if not join:
        raise ValueError("empty join set")
    if _has_inverse_pair(frozenset(w.letters for w in join)):
        return LgValid(assignments_checked=0)
    sys = build_difference_system(join)
    free = [i for i, cls in enumerate(sys.classes) if cls.forced_sign is None]
    checked = 0
    for choice in itertools.product((1, -1), repeat=len(free)):
        signs = [cls.forced_sign or 0 for cls in sys.classes]
        for i, s in zip(free, choice):
            signs[i] = s
        checked += 1
        verdict = consistent(sys, signs)
        if isinstance(verdict, Acyclic):
            return LgInvalid(
                join=join,
                reps=tuple(cls.rep.letters for cls in sys.classes),
                signs=tuple(signs),
                order=verdict.order,
                assignments_checked=checked,
            )
    return LgValid(assignments_checked=checked)


@dataclass(frozen=True)
class TruncatedRightOrder:
    """A positive-cone fragment: product-closed in the l-ball, total below l."""

    rank: int
    l: int
    positives: frozenset[Word]


@functools.lru_cache(maxsize=8)
def _interior(k: int, l: int) -> tuple[list, list]:
    # the (l-1)-ball of F(k) in ascending word order, and the inverses
    letters = ball_letters(k, l - 1)
    return letters, list(map(inverse_letters, letters))


def _close(l: int, cone: set[tuple], delta: Iterable[tuple]) -> set[tuple]:
    """Close a product-closed cone of letter tuples, in place, in the
    l-ball with delta adjoined, and return it.

    Semi-naive: each round multiplies only the elements new in the last
    round, in both orders, against the cone, with the new element as the
    outer loop. The closure ends, unfinished, at the first product equal
    to e, with e added to the cone (or at once when delta holds e).
    """
    delta = set(delta) - cone
    while delta:
        cone |= delta
        if () in cone:
            break
        fresh = set()
        for a in delta:
            n = len(a)
            short = l - n
            head, tail = -a[-1], -a[0]
            for b in cone:
                # a product longer than l stays in the ball only if its
                # seam cancels
                m = len(b)
                if b[0] == head:
                    i, stop = 1, min(n, m)
                    while i < stop and a[n - 1 - i] == -b[i]:
                        i += 1
                    if n + m - 2 * i <= l:
                        c = a[: n - i] + b[i:]
                        if not c:
                            cone.add(c)
                            return cone
                        if c not in cone:
                            fresh.add(c)
                elif m <= short:
                    c = a + b
                    if c not in cone:
                        fresh.add(c)
                if b[-1] == tail:
                    i, stop = 1, min(n, m)
                    while i < stop and b[m - 1 - i] == -a[i]:
                        i += 1
                    if n + m - 2 * i <= l:
                        c = b[: m - i] + a[i:]
                        if not c:
                            cone.add(c)
                            return cone
                        if c not in cone:
                            fresh.add(c)
                elif m <= short:
                    c = b + a
                    if c not in cone:
                        fresh.add(c)
        delta = fresh
    return cone


def product_closure_in_ball(words: Iterable[Word], l: int) -> frozenset[Word]:
    """Least superset closed under reduced products of length <= l.

    Words longer than l are kept and take part in products that land back
    in the l-ball. ``bounded_closure_with_parents`` over a free group:
    the cost grows with the closure, not with the l-ball.
    """
    words = frozenset(words)
    rank = max((abs(x) for w in words for x in w.letters), default=1)
    return bounded_closure_with_parents(words, l, FreeGroupOracle(rank))[0]


def clay_smith(
    words: Iterable[Word], k: int, deadline: Optional[float] = None
) -> Optional[TruncatedRightOrder]:
    """Decide right-order extension in F(k) by truncated-order backtracking.

    With l the maximal input length, the input is closed under in-ball
    products; as long as some element of the (l-1)-ball is undecided,
    the least one is tried positive, then negative, re-closing each
    time. A branch containing e is dead. Returns a full truncated order
    on success, None when every branch dies (no right order extends the
    input). The empty set extends trivially.

    Cones are sets of letter tuples, and Words are built only for the
    returned order; the (l-1)-ball and its inverses are listed once per
    (k, l). A branch re-closes its parent's cone, which is already closed,
    from the one adjoined element only, stopping at the first product
    equal to e. The positive branch closes a copy, since its parent waits
    on ``pending`` for the negative one; the negative branch closes the
    popped parent in place. Raises ValueError on a word with a letter
    outside F(k).

    With a ``deadline`` (a ``time.monotonic()`` instant), each branch
    checks the clock before it closes, and one past it raises
    ``PastDeadline``.
    """
    start = frozenset(words)
    for w in start:
        if any(abs(x) > k for x in w.letters):
            raise ValueError(f"{w} is not a word of F({k})")
    l = max(1, max((len(w) for w in start), default=1))
    interior, inverses = _interior(k, l)
    cone = _close(l, set(), (w.letters for w in start))
    # the (parent cone, t) of every branch whose negative side, the
    # inverse of interior[t], is still to be tried
    pending: list[tuple[set[tuple], int]] = []
    t = 1
    while True:
        if () in cone:
            if not pending:
                return None
            cone, t = pending.pop()
            adjoined = inverses[t]
        else:
            while t < len(interior) and (interior[t] in cone or inverses[t] in cone):
                t += 1
            if t == len(interior):
                positives = frozenset(map(reduced_word, cone))
                return TruncatedRightOrder(rank=k, l=l, positives=positives)
            pending.append((cone, t))
            cone = set(cone)
            adjoined = interior[t]
        if deadline is not None and time.monotonic() > deadline:
            raise PastDeadline
        cone = _close(l, cone, (adjoined,))


class WitnessError(RuntimeError):
    """An invalidity witness failed an internal consistency guarantee."""


@dataclass(frozen=True)
class PLAutomorphism:
    """An increasing piecewise-linear bijection of the rationals.

    Linear interpolation between breakpoints, slope 1 outside their hull.
    No breakpoints means the identity map.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self) -> None:
        pts = self.breakpoints
        for (p1, q1), (p2, q2) in zip(pts, pts[1:]):
            if not (p1 < p2 and q1 < q2):
                raise ValueError("breakpoints must increase in both coordinates")

    def __call__(self, p: Fraction) -> Fraction:
        pts = self.breakpoints
        if not pts:
            return p
        if p <= pts[0][0]:
            return pts[0][1] - (pts[0][0] - p)
        if p >= pts[-1][0]:
            return pts[-1][1] + (p - pts[-1][0])
        for (p1, q1), (p2, q2) in zip(pts, pts[1:]):
            if p1 <= p <= p2:
                return q1 + (q2 - q1) * (p - p1) / (p2 - p1)
        raise AssertionError("unreachable")

    def inverse(self) -> "PLAutomorphism":
        return PLAutomorphism(tuple((q, p) for p, q in self.breakpoints))


def counterexample_automorphisms(
    join: Iterable[Word], order: Sequence[Word], k: int
) -> dict[int, PLAutomorphism]:
    """Turn an acyclic witness order into one PL map per generator.

    Nodes receive consecutive integer ranks along the order. Generator g
    maps rank(u) to rank(u*g) whenever both are nodes; by construction
    these partial maps are strictly increasing, so a violation signals a
    broken witness and raises WitnessError.
    """
    join = frozenset(join)
    nodes = frozenset(order)
    if nodes != initial_subterms(join):
        raise WitnessError("order does not enumerate the initial subterms")
    rank = {w: Fraction(i) for i, w in enumerate(order)}
    autos: dict[int, PLAutomorphism] = {}
    for g in range(1, k + 1):
        gen = Word((g,))
        pairs = sorted(
            {(rank[u], rank[u * gen]) for u in order if u * gen in nodes}
        )
        for (p1, q1), (p2, q2) in zip(pairs, pairs[1:]):
            if not q1 < q2:
                raise WitnessError(
                    f"partial map for generator {g} is not increasing"
                )
        autos[g] = PLAutomorphism(tuple(pairs))
    return autos


def evaluate_pl(
    autos: dict[int, PLAutomorphism], w: Word, p: Fraction
) -> Fraction:
    """Apply the word's letters left to right; inverse letters invert maps."""
    for letter in w.letters:
        f = autos[abs(letter)]
        p = f(p) if letter > 0 else f.inverse()(p)
    return p


def find_bifurcation(
    words: Iterable[Word], k: int, max_len: int
) -> Optional[Word]:
    """Least word s (length-lex) splitting the given extendable set.

    Returns s not in the set or its inverses such that the set stays
    right-order extendable with s adjoined and also with s^-1 adjoined,
    or None when no such word of length <= max_len exists.
    """
    base = frozenset(words)
    if clay_smith(base, k) is None:
        raise ValueError("base set does not extend to a right order")
    excluded = base | {w.inverse() for w in base}
    for s in sorted(ball(k, max_len)):
        if s == IDENTITY or s in excluded:
            continue
        if (
            clay_smith(base | {s}, k) is not None
            and clay_smith(base | {s.inverse()}, k) is not None
        ):
            return s
    return None
