"""Checkers that re-verify the program's outputs without using its code.

Words are tuples of nonzero integers (``+i`` the i-th generator, ``-i``
its inverse), freely reduced. Every group operation, normal form, order
and evaluation below is written here from the definitions, so a fault in
``ellgroups`` cannot hide itself by also sitting in its checker. Each
checker returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

NAMES = "xyz"

# ---------------------------------------------------------------- free groups


def reduce(letters) -> tuple:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def mul(a: tuple, b: tuple) -> tuple:
    return reduce(a + b)


def inv(a: tuple) -> tuple:
    return tuple(-l for l in reversed(a))


def prefixes(words) -> set:
    out = {()}
    for w in words:
        for i in range(1, len(w) + 1):
            out.add(w[:i])
    return out


def parse_word(text: str) -> tuple:
    """Read a rendered word such as ``x*y^-1`` or ``e``."""
    if text == "e":
        return ()
    letters = []
    for part in text.split("*"):
        negative = part.endswith("^-1")
        name = part[:-3] if negative else part
        index = NAMES.index(name) + 1 if len(name) == 1 else int(name[1:])
        letters.append(-index if negative else index)
    return reduce(letters)


def ball(k: int, radius: int) -> list:
    out = [()]
    frontier = [()]
    for _ in range(radius):
        frontier = [
            w + (l,)
            for w in frontier
            for g in range(1, k + 1)
            for l in (g, -g)
            if not w or w[-1] != -l
        ]
        out.extend(frontier)
    return out


def has_cycle(n: int, edges) -> bool:
    """Kahn's algorithm on the digraph with nodes 0..n-1."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [u for u in range(n) if indeg[u] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen < n


# ------------------------------------------------- witnesses of the deciders


def check_sign_witness(join, order) -> list[str]:
    """A total order on the initial subterms refuting ``e <= \\/ join``.

    The order must list the initial subterms exactly once each, right
    multiplication by every generator must increase along it wherever it
    stays among the nodes, and every join word must sit below ``e``.
    """
    join = set(join)
    order = list(order)
    if len(set(order)) != len(order) or set(order) != prefixes(join):
        return ["sign witness: order does not list the initial subterms exactly"]
    rank = {w: i for i, w in enumerate(order)}
    problems = []
    for g in sorted({abs(l) for w in join for l in w}):
        pairs = sorted(
            (rank[u], rank[mul(u, (g,))]) for u in order if mul(u, (g,)) in rank
        )
        if any(q1 >= q2 for (_, q1), (_, q2) in zip(pairs, pairs[1:])):
            problems.append(f"sign witness: generator {g} does not act increasingly")
    for t in join:
        if rank[t] >= rank[()]:
            problems.append(f"sign witness: join word {t} is not below e")
    return problems


def difference_slots(join):
    """Nodes, and per unordered node pair the quotient and its class key."""
    nodes = sorted(prefixes(join), key=lambda w: (len(w), w))
    pairs = []
    for i, j in itertools.combinations(range(len(nodes)), 2):
        d = mul(nodes[i], inv(nodes[j]))
        pairs.append((i, j, d, min(d, inv(d), key=lambda w: (len(w), w))))
    return nodes, pairs


def check_cyclic_assignments(join, rng, count: int) -> list[str]:
    """Backs a ``valid`` verdict: random complete sign assignments are cyclic.

    A sign assignment picks, for every quotient class {d, d^-1} of the
    initial subterms, which of the two is below e; join words are forced
    below e. Under it, u < v exactly when u*v^-1 is below e. A valid
    inequation admits no acyclic assignment, so each draw must close a
    directed cycle.
    """
    join = set(join)
    if () in join or any(inv(t) in join for t in join):
        return []
    nodes, pairs = difference_slots(join)
    classes = sorted({key for *_, key in pairs})
    for _ in range(count):
        below = set(join)
        for key in classes:
            if key not in below and inv(key) not in below:
                below.add(key if rng.random() < 0.5 else inv(key))
        edges = [(i, j) if d in below else (j, i) for i, j, d, _ in pairs]
        if not has_cycle(len(nodes), edges):
            return ["valid verdict: an acyclic sign assignment exists"]
    return []


def check_truncated_order(words, positives, l: int, k: int) -> list[str]:
    """A truncated right order: no identity, product-closed inside the
    l-ball, and containing w or w^-1 for each non-identity w of the
    (l-1)-ball, with the input among its elements."""
    pos = set(positives)
    problems = []
    if () in pos:
        problems.append("truncated order: contains e")
    if any(len(w) > l for w in pos):
        problems.append("truncated order: element outside the l-ball")
    if not set(words) <= pos:
        problems.append("truncated order: input not contained")
    for a in pos:
        for b in pos:
            c = mul(a, b)
            if len(c) <= l and c not in pos:
                problems.append(f"truncated order: not closed at {a}*{b}")
                return problems
    for w in ball(k, l - 1):
        if w and w not in pos and inv(w) not in pos:
            problems.append(f"truncated order: {w} left undecided")
            break
    return problems


# ------------------------------------------------------------ abelian orders


def in_open_half_plane(vectors) -> bool:
    """Integer test in Z^2: the directions fit in an open arc shorter than pi
    exactly when one of them, taken as the most clockwise, sees every other
    strictly counterclockwise or along itself."""
    vs = list(vectors)
    for a in vs:
        ok = True
        for b in vs:
            cross = a[0] * b[1] - a[1] * b[0]
            dot = a[0] * b[0] + a[1] * b[1]
            if not (cross > 0 or (cross == 0 and dot > 0)):
                ok = False
                break
        if ok:
            return True
    return False


def check_functional(vectors, functional) -> list[str]:
    if any(sum(c * x for c, x in zip(functional, v)) <= 0 for v in vectors):
        return ["functional: not strictly positive on every vector"]
    return []


def check_combination(vectors, combination) -> list[str]:
    """Pairs (vector, count): members of the set, positive counts, sum zero."""
    vectors = set(map(tuple, vectors))
    if not combination:
        return ["combination: empty"]
    problems = []
    if any(tuple(v) not in vectors or c < 1 for v, c in combination):
        problems.append("combination: foreign vector or nonpositive count")
    dim = len(next(iter(vectors)))
    if any(sum(v[i] * c for v, c in combination) for i in range(dim)):
        problems.append("combination: does not sum to zero")
    return problems


def check_abelian(vectors, extends: bool, witness) -> list[str]:
    """Witness by substitution, verdict by the half-plane test."""
    problems = (
        check_functional(vectors, witness)
        if extends
        else check_combination(vectors, witness)
    )
    if extends != in_open_half_plane(vectors):
        problems.append("abelian verdict disagrees with the half-plane test")
    return problems


# ---------------------------------------------------------------- term trees
#
# ("e",) | ("x", i) | ("inv", t) | ("mul", a, b) | ("join", a, b) | ("meet", a, b)


def word_term(w: tuple):
    if not w:
        return ("e",)
    terms = [("x", l) if l > 0 else ("inv", ("x", -l)) for l in w]
    out = terms[0]
    for t in terms[1:]:
        out = ("mul", out, t)
    return out


def render(t) -> str:
    kind = t[0]
    if kind == "e":
        return "e"
    if kind == "x":
        return NAMES[t[1] - 1]
    if kind == "inv":
        return f"({render(t[1])})^-1"
    op = {"mul": "*", "join": " \\/ ", "meet": " /\\ "}[kind]
    return f"({render(t[1])}{op}{render(t[2])})"


def render_statement(stmt) -> str:
    rel, lhs, rhs = stmt
    return f"{render(lhs)} {rel} {render(rhs)}"


def meet_of_joins(t, inverted: bool = False) -> set:
    """Set of join sets (frozensets of words) whose meet equals t
    (or t^-1), by the ℓ-group distributive and duality laws."""
    kind = t[0]
    if kind == "e":
        return {frozenset({()})}
    if kind == "x":
        return {frozenset({(-t[1],) if inverted else (t[1],)})}
    if kind == "inv":
        return meet_of_joins(t[1], not inverted)
    a, b = t[1], t[2]
    if kind == "mul":
        first, second = (b, a) if inverted else (a, b)
        return {
            frozenset(mul(u, v) for u in x for v in y)
            for x in meet_of_joins(first, inverted)
            for y in meet_of_joins(second, inverted)
        }
    as_join = (kind == "join") != inverted
    left, right = meet_of_joins(a, inverted), meet_of_joins(b, inverted)
    if as_join:  # a join of two meets distributes into pairwise unions
        return {x | y for x in left for y in right}
    return left | right


def statement_joinsets(stmt) -> set:
    rel, lhs, rhs = stmt
    out = meet_of_joins(("mul", rhs, ("inv", lhs)))
    if rel == "=":
        out |= meet_of_joins(("mul", lhs, ("inv", rhs)))
    return out


def refutes(stmt, left, right, less) -> bool:
    """Do the two evaluated sides refute the statement under ``less``?"""
    rel = stmt[0]
    if rel == "<=":
        return less(right, left)
    return less(right, left) or less(left, right)


# ------------------------------------------------- models for invalid verdicts


class PL:
    """Increasing piecewise-linear map of Q, slope 1 outside its breakpoints."""

    def __init__(self, points):
        self.points = [(Fraction(p), Fraction(q)) for p, q in points]

    @staticmethod
    def _apply(points, x):
        if not points:
            return x
        if x <= points[0][0]:
            return points[0][1] + (x - points[0][0])
        if x >= points[-1][0]:
            return points[-1][1] + (x - points[-1][0])
        for (p1, q1), (p2, q2) in zip(points, points[1:]):
            if p1 <= x <= p2:
                return q1 + (q2 - q1) * (x - p1) / (p2 - p1)
        raise ValueError("breakpoints out of order")

    def __call__(self, x):
        return self._apply(self.points, x)

    def inverse(self, x):
        return self._apply([(q, p) for p, q in self.points], x)

    def increasing(self) -> bool:
        pts = self.points
        return all(p1 < p2 and q1 < q2 for (p1, q1), (p2, q2) in zip(pts, pts[1:]))


def act_pl(t, x, maps, inverted=False):
    """The point x moved by t (or t^-1), acting on the right."""
    kind = t[0]
    if kind == "e":
        return x
    if kind == "x":
        f = maps.get(t[1])
        if f is None:
            return x
        return f.inverse(x) if inverted else f(x)
    if kind == "inv":
        return act_pl(t[1], x, maps, not inverted)
    a, b = t[1], t[2]
    if kind == "mul":
        first, second = (b, a) if inverted else (a, b)
        return act_pl(second, act_pl(first, x, maps, inverted), maps, inverted)
    left, right = act_pl(a, x, maps, inverted), act_pl(b, x, maps, inverted)
    return max(left, right) if (kind == "join") != inverted else min(left, right)


def check_pl_refutation(stmt, witness) -> list[str]:
    """Evaluate both sides in Aut(Q) on the witness maps, at the rank of e."""
    maps = {}
    for auto in witness["automorphisms"]:
        f = PL([(Fraction(p), Fraction(q)) for p, q in auto["breakpoints"]])
        if not f.increasing():
            return ["PL witness: a map is not increasing"]
        (g,) = parse_word(auto["gen"])
        maps[g] = f
    order = [parse_word(w) for w in witness["order"]]
    x = Fraction(order.index(()))
    left, right = act_pl(stmt[1], x, maps), act_pl(stmt[2], x, maps)
    if not refutes(stmt, left, right, lambda a, b: a < b):
        return ["PL witness: the statement holds at the rank of e"]
    return []


def eval_int(t, phi):
    kind = t[0]
    if kind == "e":
        return 0
    if kind == "x":
        return phi[t[1] - 1]
    if kind == "inv":
        return -eval_int(t[1], phi)
    a, b = eval_int(t[1], phi), eval_int(t[2], phi)
    return {"mul": a + b, "join": max(a, b), "meet": min(a, b)}[kind]


def check_int_refutation(stmt, functional) -> list[str]:
    """The functional is positive on the failing join, so its negative sends
    every join word below 0 in the ordered group Z."""
    psi = [-c for c in functional]
    left, right = eval_int(stmt[1], psi), eval_int(stmt[2], psi)
    if not refutes(stmt, left, right, lambda a, b: a < b):
        return ["functional witness: the statement holds in Z"]
    return []


# Klein bottle group <x, y | x y x^-1 y>: normal forms x^m y^n.


def klein_mul(a, b):
    return (a[0] + b[0], (a[1] if b[0] % 2 == 0 else -a[1]) + b[1])


def klein_inv(a):
    return (-a[0], -a[1] if a[0] % 2 == 0 else a[1])


def klein_of(w: tuple):
    g = (0, 0)
    for l in w:
        step = (1 if l > 0 else -1, 0) if abs(l) == 1 else (0, 1 if l > 0 else -1)
        g = klein_mul(g, step)
    return g


def klein_sign(g, epsilon) -> int:
    """Sign in the right order with lexicographic cone flipped by epsilon."""
    if g[0]:
        return 1 if epsilon[0] * g[0] > 0 else -1
    if g[1]:
        return 1 if epsilon[1] * g[1] > 0 else -1
    return 0


KLEIN_CONES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def check_klein_refutation(stmt, witness) -> list[str]:
    """Evaluate in the order-preserving maps of the Klein group under the
    order whose cone is the inverse of the witness cone (so the join words
    fall below e), acting on the right, at the point e."""
    eps = tuple(witness["epsilon"])

    def less(a, b):
        return klein_sign(klein_mul(a, klein_inv(b)), eps) == 1

    def act(t, p, inverted=False):
        kind = t[0]
        if kind == "e":
            return p
        if kind == "x":
            g = klein_of((t[1],))
            return klein_mul(p, klein_inv(g) if inverted else g)
        if kind in ("join", "meet"):
            left, right = act(t[1], p, inverted), act(t[2], p, inverted)
            take_max = (kind == "join") != inverted
            return (right if less(left, right) else left) if take_max else (
                left if less(left, right) else right
            )
        if kind == "inv":
            return act(t[1], p, not inverted)
        a, b = (t[2], t[1]) if inverted else (t[1], t[2])
        return act(b, act(a, p, inverted), inverted)

    left, right = act(stmt[1], (0, 0)), act(stmt[2], (0, 0))
    if not refutes(stmt, left, right, less):
        return ["Klein witness: the statement holds at e"]
    return []


def magnus_sign(w: tuple, epsilon, precedence):
    """Sign of the leading coefficient of w - 1 under x_i -> 1 + e_i X_i."""
    if not w:
        return 0
    rank = {g: i for i, g in enumerate(precedence)}
    degree = len(w)
    series = {(): 1}
    for l in w:
        g, e = abs(l), epsilon[abs(l) - 1]
        factor = {(): 1, (g,): e} if l > 0 else {
            (g,) * j: (-e) ** j for j in range(degree + 1)
        }
        nxt: dict = {}
        for m1, c1 in series.items():
            for m2, c2 in factor.items():
                if len(m1) + len(m2) <= degree:
                    nxt[m1 + m2] = nxt.get(m1 + m2, 0) + c1 * c2
        series = {m: c for m, c in nxt.items() if c}
    series.pop((), None)
    if not series:
        return None
    lead = min(series, key=lambda m: (len(m), [rank[g] for g in m]))
    return 1 if series[lead] > 0 else -1


def check_magnus_refutation(stmt, witness) -> list[str]:
    """Evaluate in F(k) under the witness bi-order, turned so that the join
    words are negative, and compare the two sides."""
    eps, perm = tuple(witness["epsilon"]), tuple(witness["perm"])
    flip = -1 if witness["sign"] == "pos" else 1
    unresolved = []

    def less(a, b):
        s = magnus_sign(mul(inv(a), b), eps, perm)
        if s is None:
            unresolved.append((a, b))
            return False
        return s * flip == 1

    def value(t):
        kind = t[0]
        if kind == "e":
            return ()
        if kind == "x":
            return (t[1],)
        if kind == "inv":
            return inv(value(t[1]))
        a, b = value(t[1]), value(t[2])
        if kind == "mul":
            return mul(a, b)
        if kind == "join":
            return b if less(a, b) else a
        return a if less(a, b) else b

    left, right = value(stmt[1]), value(stmt[2])
    ok = refutes(stmt, left, right, less)
    if unresolved:
        return ["Magnus witness: a comparison was not resolved"]
    if not ok:
        return ["Magnus witness: the statement holds in the ordered free group"]
    return []


# --------------------------------------------------- canonical forms per group


def canonical(group: str, w: tuple):
    if group == "klein":
        return klein_of(w)
    if group.startswith("zn:"):
        k = int(group[3:])
        v = [0] * k
        for l in w:
            v[abs(l) - 1] += 1 if l > 0 else -1
        return tuple(v)
    return w


def is_identity(group: str, g) -> bool:
    return g == canonical(group, ())
