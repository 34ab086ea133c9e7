import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ellgroups import derivation
from ellgroups.derivation import (
    CertificateError,
    DerivationTree,
    PastDeadline,
    RuleSystem,
    bounded_closure_with_parents,
    check,
    closure_leaf,
    element_sort_key,
    exchange_extension,
    exchange_node,
    leaf,
    product_node,
    search,
    tree_from_json,
    tree_to_json,
    widen_tree,
)
from ellgroups.groups import (
    FreeGroupOracle,
    IntLatticeOracle,
    KleinBottleOracle,
    decide_presented_lg,
)
from ellgroups.rightorder import clay_smith, decide_valid_lg, LgValid
from ellgroups.terms import parse_group_word
from ellgroups.words import IDENTITY, ball, word

F2 = FreeGroupOracle(2)
Z = IntLatticeOracle(1)
KLEIN = KleinBottleOracle()


def W(s, k=2):
    return parse_group_word(s, k)


def integer_tree_for_3_minus5():
    # {3,-5} descends to {3,-3}, {3,-2}; then {2,-2}, {1,-2}; then {1,-1}
    leaf_11 = leaf({(1,), (-1,)}, (1,))
    t_1_m2 = product_node(
        {(1,), (-2,)}, (-2,), (-1,), (-1,), leaf_11, leaf_11
    )
    leaf_22 = leaf({(2,), (-2,)}, (2,))
    t_3_m2 = product_node({(3,), (-2,)}, (3,), (2,), (1,), leaf_22, t_1_m2)
    leaf_33 = leaf({(3,), (-3,)}, (3,))
    return product_node({(3,), (-5,)}, (-5,), (-3,), (-2,), leaf_33, t_3_m2)


def free_tree_for_squares():
    # {xx, yy, x^-1 y^-1} via x^-1*y^-1 = (x^-1)(y^-1), then both squares
    c1 = leaf({W("x"), W("y*y"), W("x^-1")}, W("x"))
    left = product_node(
        {W("x*x"), W("y*y"), W("x^-1")}, W("x*x"), W("x"), W("x"), c1, c1
    )
    c2 = leaf({W("x*x"), W("y"), W("y^-1")}, W("y"))
    right = product_node(
        {W("x*x"), W("y*y"), W("y^-1")}, W("y*y"), W("y"), W("y"), c2, c2
    )
    return product_node(
        {W("x*x"), W("y*y"), W("x^-1*y^-1")},
        W("x^-1*y^-1"),
        W("x^-1"),
        W("y^-1"),
        left,
        right,
    )


def integer_split_tree(g=(1,), swap=False):
    # {2, -3} splits on 1: 1+1+1-3 = 0 and -1-1+2 = 0
    positive = closure_leaf({(2,), (-3,), (1,)}, [(1,), (1,), (1,), (-3,)])
    negative = closure_leaf({(2,), (-3,), (-1,)}, [(-1,), (-1,), (2,)])
    if swap:
        positive, negative = negative, positive
    return DerivationTree(frozenset({(2,), (-3,)}), "split", (g,), (positive, negative))


def conjugate_exchange_tree():
    # {x, y x^-1 y^-1} from the leaf {x, x^-1} by rotating (y x^-1)(y^-1)
    base = leaf({W("x"), W("x^-1")}, W("x"))
    return exchange_node(
        {W("x"), W("y*x^-1*y^-1")},
        W("y*x^-1*y^-1"),
        W("y*x^-1"),
        W("y^-1"),
        base,
    )


class TestCheck:
    def test_integer_tree_accepted(self):
        check(integer_tree_for_3_minus5(), RuleSystem.RIGHT_ORDER, Z)

    def test_free_tree_accepted(self):
        check(free_tree_for_squares(), RuleSystem.RIGHT_ORDER, F2)

    def test_exchange_tree_accepted_in_bi_order_system(self):
        check(conjugate_exchange_tree(), RuleSystem.BI_ORDER, F2)

    def test_exchange_tree_rejected_in_right_order_system(self):
        with pytest.raises(CertificateError, match="exchange"):
            check(conjugate_exchange_tree(), RuleSystem.RIGHT_ORDER, F2)

    def test_leaf_requires_inverse(self):
        with pytest.raises(CertificateError, match="inverse"):
            check(leaf({W("x")}, W("x")), RuleSystem.RIGHT_ORDER, F2)

    def test_leaf_on_identity(self):
        check(leaf({IDENTITY, W("x")}, IDENTITY), RuleSystem.RIGHT_ORDER, F2)

    def test_closure_leaf(self):
        tree = closure_leaf({(1,), (-2,)}, [(1,), (1,), (-2,)])
        check(tree, RuleSystem.RIGHT_ORDER, Z)

    def test_closure_leaf_bad_product(self):
        with pytest.raises(CertificateError, match="identity"):
            check(
                closure_leaf({(1,), (-2,)}, [(1,), (-2,)]),
                RuleSystem.RIGHT_ORDER,
                Z,
            )

    def test_closure_leaf_foreign_factor(self):
        with pytest.raises(CertificateError, match="factor"):
            check(
                closure_leaf({(1,), (-2,)}, [(2,), (-2,)]),
                RuleSystem.RIGHT_ORDER,
                Z,
            )

    def test_product_premises_must_match(self):
        good = leaf({W("x"), W("x^-1")}, W("x"))
        with pytest.raises(CertificateError, match="premise"):
            check(
                product_node(
                    {W("x*x")}, W("x*x"), W("x"), W("x"), good, good
                ),
                RuleSystem.RIGHT_ORDER,
                F2,
            )

    def test_bad_factorization(self):
        c1 = leaf({W("x"), W("x^-1")}, W("x"))
        with pytest.raises(CertificateError, match="multiply"):
            check(
                product_node(
                    {W("x"), W("x^-1")}, W("x"), W("y"), W("y"), c1, c1
                ),
                RuleSystem.RIGHT_ORDER,
                F2,
            )

    def test_klein_sensitivity(self):
        # the Klein leaf {y, x y x^-1} is only a leaf modulo the relation
        klein_leaf = leaf(
            {KLEIN.canonicalize(W("y")), KLEIN.canonicalize(W("x*y*x^-1"))},
            KLEIN.canonicalize(W("y")),
        )
        check(klein_leaf, RuleSystem.BI_ORDER, KLEIN)
        free_leaf = leaf({W("y"), W("x*y*x^-1")}, W("y"))
        with pytest.raises(CertificateError):
            check(free_leaf, RuleSystem.BI_ORDER, F2)

    def test_split_tree_accepted_in_both_systems(self):
        for system in RuleSystem:
            check(integer_split_tree(), system, Z)

    @pytest.mark.parametrize(
        "tree, match",
        [
            # {1} extends to an order; a split on e would prove it from
            # the leaf {1, e}
            (
                DerivationTree(
                    frozenset({(1,)}), "split", ((0,),), (leaf({(1,), (0,)}, (0,)),) * 2
                ),
                "e or",
            ),
            (integer_split_tree(swap=True), "premises"),
            (integer_split_tree(g=(0, 1)), "canonical"),
            (
                DerivationTree(
                    frozenset({(1,), (-1,)}), "split", ((1,),),
                    (leaf({(1,), (-1,)}, (1,)),),
                ),
                "two premises",
            ),
        ],
    )
    def test_bad_split_rejected(self, tree, match):
        with pytest.raises(CertificateError, match=match):
            check(tree, RuleSystem.RIGHT_ORDER, Z)

    def test_non_canonical_conclusion_rejected(self):
        with pytest.raises(CertificateError, match="canonical"):
            check(leaf({W("x*y"), W("x")}, W("x")), RuleSystem.BI_ORDER, KLEIN)


class TestSearch:
    def test_finds_square_certificate(self):
        S = {W("x*x"), W("y*y"), W("x^-1*y^-1")}
        tree = search(S, RuleSystem.RIGHT_ORDER, F2)
        assert tree is not None
        check(tree, RuleSystem.RIGHT_ORDER, F2)

    def test_finds_exchange_certificate(self):
        S = {W("x"), W("y*x^-1*y^-1")}
        tree = search(S, RuleSystem.BI_ORDER, F2)
        assert tree is not None
        assert any(n.rule == "exchange" for n in _walk(tree))
        check(tree, RuleSystem.BI_ORDER, F2)

    def test_single_generator_not_found(self):
        assert search({W("x")}, RuleSystem.RIGHT_ORDER, F2, max_depth=4) is None

    def test_integer_example(self):
        tree = search({(3,), (-5,)}, RuleSystem.RIGHT_ORDER, Z, max_depth=4)
        assert tree is not None
        check(tree, RuleSystem.RIGHT_ORDER, Z)

    def test_rejects_non_canonical_input(self):
        with pytest.raises(ValueError):
            search({W("x*y*x^-1")}, RuleSystem.BI_ORDER, KLEIN)

    def test_deterministic(self):
        S = {W("x*x"), W("y*y"), W("x^-1*y^-1")}
        t1 = search(S, RuleSystem.RIGHT_ORDER, F2)
        t2 = search(S, RuleSystem.RIGHT_ORDER, F2)
        assert t1 == t2

    def test_search_stops_past_deadline(self):
        # a set whose depth-4 search over 100 factors runs for seconds
        S = {W("x*y"), W("y*x^-1"), W("x^-1*y^-1*x")}
        deadline = time.monotonic() + 0.2
        with pytest.raises(PastDeadline):
            search(
                S, RuleSystem.RIGHT_ORDER, F2, max_depth=4, universe_cap=100,
                deadline=deadline,
            )
        assert time.monotonic() < deadline + 5

    def test_deadline_leaves_results_unchanged(self):
        far = time.monotonic() + 3600
        elems = sorted(w for w in ball(2, 1) if w != IDENTITY)
        family = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations(elems, r)]
        family.append(frozenset({W("x*x"), W("y*y"), W("x^-1*y^-1")}))
        for S in family:
            for system in RuleSystem:
                expected = search(S, system, F2, max_depth=3)
                assert search(S, system, F2, max_depth=3, deadline=far) == expected

    def test_search_successes_roundtrip_through_checker(self):
        import itertools

        elems = sorted(w for w in ball(2, 2) if w != IDENTITY)
        rng = random.Random(3)
        family = [
            frozenset(c)
            for r in (1, 2, 3)
            for c in itertools.combinations(elems, r)
        ]
        valid = [S for S in family if isinstance(decide_valid_lg(S), LgValid)]
        for S in rng.sample(valid, 120):
            tree = search(S, RuleSystem.RIGHT_ORDER, F2, max_depth=3, universe_cap=24)
            if tree is not None:
                check(tree, RuleSystem.RIGHT_ORDER, F2)

    def test_never_returns_a_tree_for_extendable_sets(self):
        # soundness: a right-order-extendable set has no derivation, so
        # exhausting the budget must come back empty, never with a tree
        import itertools

        elems = sorted(w for w in ball(2, 2) if w != IDENTITY)
        rng = random.Random(9)
        family = [
            frozenset(c)
            for r in (1, 2, 3)
            for c in itertools.combinations(elems, r)
        ]
        extendable = [S for S in family if clay_smith(S, 2) is not None]
        for S in rng.sample(extendable, 25):
            assert search(S, RuleSystem.RIGHT_ORDER, F2, max_depth=2, universe_cap=16) is None


def _walk(tree):
    yield tree
    for c in tree.children:
        yield from _walk(c)


def generic_closure(elements, radius, oracle, stop_at_identity=False, size_cap=None):
    # the closure through the oracle's arithmetic alone, sort keys
    # recomputed at every sort, as it ran for every group before the
    # free-group letter-tuple kernel; with stop_at_identity it ends at the
    # first product equal to e, in the same nested order
    key = lambda g: element_sort_key(oracle, g)
    current = set(elements)
    parents = {}
    older = sorted(current, key=key)
    fresh = list(older)
    while fresh:
        if stop_at_identity and oracle.identity in current:
            break
        if size_cap is not None and len(current) >= size_cap:
            break
        fresh_set = set(fresh)
        new = {}
        pairs = itertools.chain(
            itertools.product(older, fresh),
            ((a, b) for a in fresh for b in older if b not in fresh_set),
        )
        for a, b in pairs:
            c = oracle.multiply(a, b)
            if oracle.length(c) <= radius and c not in current and c not in new:
                new[c] = (a, b)
                if stop_at_identity and c == oracle.identity:
                    break
        parents.update(new)
        current.update(new)
        fresh = sorted(new, key=key)
        older = sorted(current, key=key)
    return frozenset(current), parents


def assert_same_closure(elements, radius, oracle, **options):
    closed, parents = bounded_closure_with_parents(elements, radius, oracle, **options)
    expected, expected_parents = generic_closure(elements, radius, oracle, **options)
    assert closed == expected
    # the same first-found parents, recorded in the same order
    assert list(parents.items()) == list(expected_parents.items())


CLOSURE_OPTIONS = [
    {},
    {"stop_at_identity": True},
    {"size_cap": 12},
    {"stop_at_identity": True, "size_cap": 64},
]


class TestClosureKernels:
    """The free-group letter-tuple kernel, and the cached sort keys of the
    other groups, against the generic closure above."""

    @pytest.mark.parametrize("options", CLOSURE_OPTIONS, ids=str)
    def test_radius_two_family(self, options):
        elems = sorted(w for w in ball(2, 2) if w != IDENTITY)
        for r in (1, 2, 3):
            for S in itertools.combinations(elems, r):
                assert_same_closure(S, 4, F2, **options)

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.integers(1, k).flatmap(lambda g: st.sampled_from((g, -g))),
                    max_size=6,
                ),
                min_size=1,
                max_size=5,
            )
        ),
        st.integers(-1, 5),
        st.booleans(),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    @settings(max_examples=200, deadline=None)
    def test_free_property(self, letter_lists, radius, stop, cap):
        # words longer than the radius, e and repeated words included
        S = [word(letters) for letters in letter_lists]
        assert_same_closure(
            S, radius, FreeGroupOracle(3), stop_at_identity=stop, size_cap=cap
        )

    @pytest.mark.parametrize("oracle", [IntLatticeOracle(2), KLEIN], ids=lambda o: o.name)
    @pytest.mark.parametrize("options", CLOSURE_OPTIONS, ids=str)
    def test_other_groups(self, oracle, options):
        rng = random.Random(43)
        ball3 = [g for g in oracle.enumerate_ball(3) if not oracle.is_identity(g)]
        for _ in range(60):
            S = rng.sample(ball3, rng.randint(1, 3))
            assert_same_closure(S, 6, oracle, **options)


class TestClosureDeadline:
    def test_spent_deadline_raises(self):
        spent = time.monotonic() - 1
        for S, oracle in (({W("x"), W("y")}, F2), ({(1, 0), (0, 1)}, IntLatticeOracle(2))):
            with pytest.raises(PastDeadline):
                bounded_closure_with_parents(S, 4, oracle, deadline=spent)

    def test_spent_deadline_stops_the_closure_certificate(self):
        # x + (y - x) - y = 0: no functional refutes the join, and its
        # closure certificate is where the decider would find e
        Z2 = IntLatticeOracle(2)
        join = {W("x"), W("x^-1*y"), W("y^-1")}
        assert decide_presented_lg(join, Z2).method == "closure"
        spent = time.monotonic() - 1
        with pytest.raises(PastDeadline):
            decide_presented_lg(join, Z2, deadline=spent)

    def test_search_passes_its_deadline_to_its_closures(self, monkeypatch):
        seen = []
        closure = derivation.bounded_closure_with_parents

        def spy(*args, **kwargs):
            seen.append(kwargs.get("deadline"))
            return closure(*args, **kwargs)

        monkeypatch.setattr(derivation, "bounded_closure_with_parents", spy)
        far = time.monotonic() + 3600
        search({W("x*x"), W("y*y"), W("x^-1*y^-1")}, RuleSystem.RIGHT_ORDER, F2, deadline=far)
        assert seen and set(seen) == {far}

    def test_far_deadline_leaves_closures_unchanged(self, monkeypatch):
        # blocks of two left factors: the clock is read between most
        # products, and the nested order, so every parent, stays
        monkeypatch.setattr(derivation, "_CLOCK_BLOCK", 2)
        far = time.monotonic() + 3600
        elems = sorted(w for w in ball(2, 2) if w != IDENTITY)
        families = [(F2, c) for r in (1, 2, 3) for c in itertools.combinations(elems, r)]
        rng = random.Random(44)
        for oracle in (IntLatticeOracle(2), KLEIN):
            ball3 = [g for g in oracle.enumerate_ball(3) if not oracle.is_identity(g)]
            families += [(oracle, rng.sample(ball3, rng.randint(1, 3))) for _ in range(60)]
        for oracle, S in families:
            closed, parents = bounded_closure_with_parents(S, 4, oracle)
            got, got_parents = bounded_closure_with_parents(S, 4, oracle, deadline=far)
            assert got == closed
            assert list(got_parents.items()) == list(parents.items())


class TestTreeTransformers:
    def test_widening_preserves_acceptance(self):
        extra = {W("y*x"), W("x^-1*y^-1")}
        for tree, system, oracle in (
            (free_tree_for_squares(), RuleSystem.RIGHT_ORDER, F2),
            (conjugate_exchange_tree(), RuleSystem.BI_ORDER, F2),
        ):
            widened = widen_tree(tree, extra)
            check(widened, system, oracle)
            assert widened.conclusion == tree.conclusion | extra

    def test_widening_with_element_equal_to_split(self):
        # widening by the split element itself exercises the retained-c form
        tree = free_tree_for_squares()
        widened = widen_tree(tree, {W("x*x")})
        check(widened, RuleSystem.RIGHT_ORDER, F2)

    def test_exchange_extension_on_worked_tree(self):
        # rotating (y x^-1)(y^-1) back gives y^-1 y x^-1 = x^-1
        tree = conjugate_exchange_tree()  # concludes {x, y x^-1 y^-1}
        a, b = W("y*x^-1"), W("y^-1")
        extended = exchange_extension(tree, a * b, a, b, F2)
        check(extended, RuleSystem.BI_ORDER, F2)
        assert extended.conclusion == {W("x"), W("x^-1")}

    def test_exchange_extension_random_instances(self):
        rng = random.Random(5)
        pool = sorted(w for w in ball(2, 2) if w != IDENTITY)
        count = 0
        while count < 50:
            c = rng.choice(pool)
            junk = frozenset(rng.sample(pool, rng.randint(0, 2)))
            a = rng.choice(pool)
            b = rng.choice(pool)
            ab = a * b
            if ab == IDENTITY:
                continue
            base = junk | {c, c.inverse(), ab}
            tree = leaf(base, c)
            extended = exchange_extension(tree, ab, a, b, F2)
            check(extended, RuleSystem.BI_ORDER, F2)
            assert b * a in extended.conclusion
            count += 1


class TestJsonRoundTrip:
    def test_free_tree(self):
        tree = free_tree_for_squares()
        doc = tree_to_json(tree, RuleSystem.RIGHT_ORDER, F2)
        text = json.dumps(doc, sort_keys=True)
        back, system = tree_from_json(json.loads(text), F2)
        assert system is RuleSystem.RIGHT_ORDER
        assert back == tree
        check(back, system, F2)

    def test_klein_tree(self):
        from ellgroups.biorder import decide_klein_biorderable

        tree = decide_klein_biorderable()
        doc = tree_to_json(tree, RuleSystem.BI_ORDER, KLEIN)
        back, system = tree_from_json(json.loads(json.dumps(doc)), KLEIN)
        assert back == tree
        check(back, system, KLEIN)

    def test_split_tree(self):
        tree = integer_split_tree()
        doc = tree_to_json(tree, RuleSystem.RIGHT_ORDER, Z)
        assert (doc["rule"], doc["data"]) == ("split", {"element": "x"})
        back, system = tree_from_json(json.loads(json.dumps(doc)), Z)
        assert back == tree
        check(back, system, Z)

    def test_integer_tree(self):
        tree = integer_tree_for_3_minus5()
        doc = tree_to_json(tree, RuleSystem.RIGHT_ORDER, Z)
        back, system = tree_from_json(doc, Z)
        assert back == tree
        check(back, system, Z)
