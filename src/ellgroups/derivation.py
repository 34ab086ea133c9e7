"""Certificate trees for non-extendability of finite group subsets.

A tree concludes a finite set of oracle-canonical group elements. Leaves
witness an element together with its inverse, or a product of conclusion
elements equal to the identity. Inner nodes split one element c = a*b
into two premises (product rule), or rotate a factorization c = a*b into
a premise containing b*a (exchange rule, admitted only in the bi-order
rule system). The checker verifies every side condition with oracle
arithmetic and trusts nothing else.

In the rules' set notation T u {ab}, the set T may itself contain ab, so
the checker accepts premises built from either T = conclusion - {c} or
T = conclusion.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional

from .words import Word
from . import terms

Element = Hashable


class RuleSystem(enum.Enum):
    RIGHT_ORDER = "S"  # product rule only
    BI_ORDER = "D"  # product and exchange rules


@dataclass(frozen=True)
class DerivationTree:
    conclusion: frozenset
    rule: str  # "leaf" | "closure-leaf" | "product" | "exchange"
    data: tuple
    children: tuple["DerivationTree", ...] = ()

    def depth(self) -> int:
        return max((c.depth() + 1 for c in self.children), default=0)


def leaf(conclusion: Iterable[Element], element: Element) -> DerivationTree:
    return DerivationTree(frozenset(conclusion), "leaf", (element,))


def closure_leaf(
    conclusion: Iterable[Element], sequence: Iterable[Element]
) -> DerivationTree:
    return DerivationTree(frozenset(conclusion), "closure-leaf", tuple(sequence))


def product_node(
    conclusion: Iterable[Element],
    c: Element,
    a: Element,
    b: Element,
    left: DerivationTree,
    right: DerivationTree,
) -> DerivationTree:
    return DerivationTree(frozenset(conclusion), "product", (c, a, b), (left, right))


def exchange_node(
    conclusion: Iterable[Element],
    c: Element,
    a: Element,
    b: Element,
    child: DerivationTree,
) -> DerivationTree:
    return DerivationTree(frozenset(conclusion), "exchange", (c, a, b), (child,))


@dataclass(frozen=True)
class Valid:
    certificate: Optional[DerivationTree]
    method: str
    details: Optional[Mapping] = None


@dataclass(frozen=True)
class Invalid:
    witness: object
    method: str


@dataclass(frozen=True)
class Unknown:
    budgets: Mapping


class CertificateError(ValueError):
    def __init__(self, path: tuple[int, ...], message: str):
        where = "root" if not path else "node " + ".".join(map(str, path))
        super().__init__(f"{where}: {message}")
        self.path = path


def _is_canonical(oracle, g: Element) -> bool:
    try:
        return oracle.canonicalize(oracle.to_word(g)) == g
    except (AttributeError, TypeError, ValueError):
        return False


def check(tree: DerivationTree, system: RuleSystem, oracle) -> None:
    """Verify a derivation tree; raises CertificateError at the first bad node."""
    for g in tree.conclusion:
        if not _is_canonical(oracle, g):
            raise CertificateError((), f"element {g!r} is not oracle-canonical")
    _check_node(tree, system, oracle, ())


def _check_node(
    node: DerivationTree, system: RuleSystem, oracle, path: tuple[int, ...]
) -> None:
    conclusion = node.conclusion
    if not conclusion:
        raise CertificateError(path, "empty conclusion")
    if node.rule == "leaf":
        if node.children:
            raise CertificateError(path, "leaf must have no premises")
        (a,) = node.data
        if a not in conclusion:
            raise CertificateError(path, "leaf element not in conclusion")
        if oracle.invert(a) not in conclusion:
            raise CertificateError(path, "inverse of leaf element not in conclusion")
        return
    if node.rule == "closure-leaf":
        if node.children:
            raise CertificateError(path, "closure leaf must have no premises")
        if not node.data:
            raise CertificateError(path, "empty product sequence")
        product = oracle.identity
        for g in node.data:
            if g not in conclusion:
                raise CertificateError(path, f"factor {g!r} not in conclusion")
            product = oracle.multiply(product, g)
        if not oracle.is_identity(product):
            raise CertificateError(path, "product sequence is not the identity")
        return
    if node.rule == "product":
        c, a, b = node.data
        if c not in conclusion:
            raise CertificateError(path, "split element not in conclusion")
        if oracle.multiply(a, b) != c:
            raise CertificateError(path, "factorization does not multiply back")
        if len(node.children) != 2:
            raise CertificateError(path, "product rule needs two premises")
        rest = conclusion - {c}
        for t in (rest, conclusion):
            if (
                node.children[0].conclusion == t | {a}
                and node.children[1].conclusion == t | {b}
            ):
                break
        else:
            raise CertificateError(path, "premise sets do not match the split")
        for i, child in enumerate(node.children):
            _check_node(child, system, oracle, path + (i,))
        return
    if node.rule == "exchange":
        if system is not RuleSystem.BI_ORDER:
            raise CertificateError(path, "exchange rule not admitted in this system")
        c, a, b = node.data
        if c not in conclusion:
            raise CertificateError(path, "rotated element not in conclusion")
        if oracle.multiply(a, b) != c:
            raise CertificateError(path, "factorization does not multiply back")
        if len(node.children) != 1:
            raise CertificateError(path, "exchange rule needs one premise")
        ba = oracle.multiply(b, a)
        rest = conclusion - {c}
        if node.children[0].conclusion not in (rest | {ba}, conclusion | {ba}):
            raise CertificateError(path, "premise set does not match the rotation")
        _check_node(node.children[0], system, oracle, path + (0,))
        return
    raise CertificateError(path, f"unknown rule {node.rule!r}")


def element_sort_key(oracle, g: Element) -> tuple:
    return (oracle.length(g), oracle.to_word(g).key)


def bounded_closure_with_parents(
    elements: Iterable[Element],
    radius: int,
    oracle,
    *,
    stop_at_identity: bool = False,
    size_cap: Optional[int] = None,
) -> tuple[frozenset, dict]:
    """Close under products staying within the radius ball, recording for
    every added element one decomposition into earlier elements.

    Frontier rounds: each round only multiplies pairs touching elements
    added in the previous round. With ``stop_at_identity`` the fixpoint
    stops as soon as the identity appears; ``size_cap`` truncates runaway
    closures (the result is then a deterministic under-approximation).
    """
    key = lambda g: element_sort_key(oracle, g)
    multiply, length = oracle.multiply, oracle.length
    current = set(elements)
    parents: dict = {}
    older = sorted(current, key=key)
    fresh = list(older)
    while fresh:
        if stop_at_identity and oracle.identity in current:
            break
        if size_cap is not None and len(current) >= size_cap:
            break
        fresh_set = set(fresh)
        new: dict = {}
        pairs = itertools.chain(
            itertools.product(older, fresh),
            ((a, b) for a in fresh for b in older if b not in fresh_set),
        )
        for a, b in pairs:
            c = multiply(a, b)
            if length(c) <= radius and c not in current and c not in new:
                new[c] = (a, b)
        parents.update(new)
        current.update(new)
        fresh = sorted(new, key=key)
        older = sorted(current, key=key)
    return frozenset(current), parents


def product_witness(target: Element, base: frozenset, parents: dict) -> list:
    """Flatten the parent decompositions of ``target`` into base factors."""
    if target in base:
        return [target]
    a, b = parents[target]
    return product_witness(a, base, parents) + product_witness(b, base, parents)


# identity hunting inside the search gives up once a subgoal's product
# closure reaches this many elements; larger certificates still arrive
# through explicit closure calls with caller-chosen radii
_CLOSURE_SIZE_CAP = 64


def factor_universe(
    elements: Iterable[Element], oracle, cap: int
) -> list[Element]:
    """Candidate factors: pairwise quotients of the canonical prefixes of
    the input, with inverses, shortest first, capped in size."""
    prefixes = {oracle.identity}
    for g in elements:
        w = oracle.to_word(g)
        for i in range(1, len(w.letters) + 1):
            prefixes.add(oracle.canonicalize(Word(w.letters[:i])))
    pool = set()
    for u in prefixes:
        for v in prefixes:
            if u != v:
                pool.add(oracle.multiply(u, oracle.invert(v)))
    for g in list(pool):
        pool.add(oracle.invert(g))
    pool.discard(oracle.identity)
    ordered = sorted(pool, key=lambda g: element_sort_key(oracle, g))
    return ordered[:cap]


def search(
    start: Iterable[Element],
    system: RuleSystem,
    oracle,
    *,
    max_depth: int = 5,
    universe_cap: int = 32,
    closure_radius: Optional[int] = None,
) -> Optional[DerivationTree]:
    """Iterative-deepening backward search for a derivation tree.

    Leaf tests come first, then a bounded product closure looking for an
    identity witness, then product splits over the factor universe, then
    (bi-order system only) exchange rotations. Elements and factors are
    tried shortest first, so the returned tree is the first success in a
    fixed expansion order. Depth counts nested product/exchange steps.
    Failure is honest: the factor universe is a heuristic restriction,
    so None never means the set is provably outside the family.
    """
    start = frozenset(start)
    if not start:
        raise ValueError("empty start set")
    for g in start:
        if not _is_canonical(oracle, g):
            raise ValueError(f"element {g!r} is not oracle-canonical")

    universe = factor_universe(start, oracle, universe_cap)
    in_universe = set(universe)
    key = lambda g: element_sort_key(oracle, g)

    immediate_memo: dict[frozenset, Optional[DerivationTree]] = {}
    success: dict[frozenset, DerivationTree] = {}
    fail_at: dict[frozenset, int] = {}

    def immediate(conclusion: frozenset) -> Optional[DerivationTree]:
        for a in sorted(conclusion, key=key):
            if oracle.invert(a) in conclusion:
                return leaf(conclusion, a)
        if conclusion in immediate_memo:
            return immediate_memo[conclusion]
        radius = closure_radius or (
            2 + max(oracle.length(g) for g in conclusion)
        )
        closed, parents = bounded_closure_with_parents(
            conclusion,
            radius,
            oracle,
            stop_at_identity=True,
            size_cap=_CLOSURE_SIZE_CAP,
        )
        tree = None
        if oracle.identity in closed:
            seq = product_witness(oracle.identity, conclusion, parents)
            tree = closure_leaf(conclusion, seq)
        immediate_memo[conclusion] = tree
        return tree

    def factorizations(c: Element):
        for a in universe:
            b = oracle.multiply(oracle.invert(a), c)
            if b in in_universe and not oracle.is_identity(b):
                yield a, b

    def prove(conclusion: frozenset, depth: int) -> Optional[DerivationTree]:
        if conclusion in success:
            return success[conclusion]
        tree = immediate(conclusion)
        if tree is not None:
            success[conclusion] = tree
            return tree
        if depth == 0 or fail_at.get(conclusion, -1) >= depth:
            return None
        rest_cache = {c: conclusion - {c} for c in conclusion}
        for c in sorted(conclusion, key=key):
            rest = rest_cache[c]
            for a, b in factorizations(c):
                left = prove(rest | {a}, depth - 1)
                if left is None:
                    continue
                right = prove(rest | {b}, depth - 1)
                if right is not None:
                    tree = product_node(conclusion, c, a, b, left, right)
                    success[conclusion] = tree
                    return tree
        if system is RuleSystem.BI_ORDER:
            for c in sorted(conclusion, key=key):
                rest = rest_cache[c]
                for a, b in factorizations(c):
                    ba = oracle.multiply(b, a)
                    if ba == c:
                        continue
                    for premise in (rest | {ba}, conclusion | {ba}):
                        if premise == conclusion:
                            continue
                        child = prove(premise, depth - 1)
                        if child is not None:
                            tree = exchange_node(conclusion, c, a, b, child)
                            success[conclusion] = tree
                            return tree
        fail_at[conclusion] = max(fail_at.get(conclusion, -1), depth)
        return None

    for depth in range(max_depth + 1):
        tree = prove(start, depth)
        if tree is not None:
            check(tree, system, oracle)
            return tree
    return None


def widen_tree(
    tree: DerivationTree, extra: Iterable[Element]
) -> DerivationTree:
    """Enlarge every conclusion by the same extra elements.

    An accepted tree stays accepted: each rule instance survives with the
    enlarged side set.
    """
    extra = frozenset(extra)

    def go(node: DerivationTree) -> DerivationTree:
        return DerivationTree(
            node.conclusion | extra,
            node.rule,
            node.data,
            tuple(go(c) for c in node.children),
        )

    return go(tree)


def exchange_extension(
    tree: DerivationTree, c: Element, a: Element, b: Element, oracle
) -> DerivationTree:
    """Given an accepted tree concluding T u {a*b}, build the exchange node
    concluding T u {b*a} on top of it."""
    ab = oracle.multiply(a, b)
    if ab != c or c not in tree.conclusion:
        raise ValueError("c must be a*b and belong to the tree's conclusion")
    ba = oracle.multiply(b, a)
    conclusion = (tree.conclusion - {c}) | {ba}
    return exchange_node(conclusion, ba, b, a, tree)


def _render(oracle, g: Element) -> str:
    from .words import render_word

    return render_word(oracle.to_word(g))


def tree_to_json(tree: DerivationTree, system: RuleSystem, oracle) -> dict:
    def node(t: DerivationTree) -> dict:
        doc: dict = {
            "conclusion": sorted(
                (_render(oracle, g) for g in t.conclusion),
            ),
            "rule": t.rule,
        }
        if t.rule == "leaf":
            doc["data"] = {"element": _render(oracle, t.data[0])}
        elif t.rule == "closure-leaf":
            doc["data"] = {"sequence": [_render(oracle, g) for g in t.data]}
        else:
            c, a, b = t.data
            doc["data"] = {
                "element": _render(oracle, c),
                "left": _render(oracle, a),
                "right": _render(oracle, b),
            }
        doc["children"] = [node(c) for c in t.children]
        return doc

    return {"system": system.value, **node(tree)}


def tree_from_json(doc: dict, oracle) -> tuple[DerivationTree, RuleSystem]:
    system = RuleSystem(doc["system"])

    def element(s: str) -> Element:
        return oracle.canonicalize(terms.parse_group_word(s, oracle.k))

    def node(d: dict) -> DerivationTree:
        conclusion = frozenset(element(s) for s in d["conclusion"])
        rule = d["rule"]
        children = tuple(node(c) for c in d.get("children", ()))
        if rule == "leaf":
            data: tuple = (element(d["data"]["element"]),)
        elif rule == "closure-leaf":
            data = tuple(element(s) for s in d["data"]["sequence"])
        elif rule in ("product", "exchange"):
            data = (
                element(d["data"]["element"]),
                element(d["data"]["left"]),
                element(d["data"]["right"]),
            )
        else:
            raise ValueError(f"unknown rule {rule!r}")
        return DerivationTree(conclusion, rule, data, children)

    return node(doc), system
