"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; the only tolerances are wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction

from ellgroups.biorder import (
    DoesNotExtend,
    ExtendsToOrder,
    decide_abelian_order_extension,
    decide_klein_biorderable,
    decide_valid_rg,
)
from ellgroups.derivation import (
    Invalid,
    RuleSystem,
    Unknown,
    Valid,
    check,
    exchange_extension,
    leaf,
    product_node,
    search,
)
from ellgroups.groups import (
    FreeGroupOracle,
    IntLatticeOracle,
    KleinBottleOracle,
    decide_presented_lg,
)
from ellgroups.rightorder import (
    LgInvalid,
    LgValid,
    clay_smith,
    counterexample_automorphisms,
    decide_valid_lg,
    evaluate_pl,
    find_bifurcation,
    product_closure_in_ball,
)
from ellgroups.terms import parse_group_word
from ellgroups.words import IDENTITY, ball, render_word

F2 = FreeGroupOracle(2)
Z1 = IntLatticeOracle(1)
KLEIN = KleinBottleOracle()


def W(s, k=2):
    return parse_group_word(s, k)


def words(text, k=2):
    return frozenset(W(part.strip(), k) for part in text.split(","))


def family_ball22():
    elems = sorted(w for w in ball(2, 2) if w != IDENTITY)
    out = []
    for r in (1, 2, 3):
        out.extend(frozenset(c) for c in itertools.combinations(elems, r))
    return out


def report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def timed(budget_s, fn, *args, **kwargs):
    start = time.monotonic()
    out = fn(*args, **kwargs)
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"{fn.__name__} took {elapsed:.2f}s"
    return out


def test_criterion_1_worked_examples():
    # each individual verdict must land in under a second
    v = timed(1.0, decide_valid_lg, words("x*x, y*y, x^-1*y^-1"))
    assert isinstance(v, LgValid)

    v = timed(1.0, decide_valid_lg, words("x*x, x*y, y*x^-1"))
    assert isinstance(v, LgInvalid)
    t = timed(1.0, clay_smith, words("x*x, x*y, y*x^-1"), 2)
    assert t.positives == words("x*x, x*y, y*x^-1, y*x, y*y, x, y")

    assert isinstance(timed(1.0, decide_valid_lg, words("x, y*x^-1*y^-1")), LgInvalid)
    rg = timed(1.0, decide_valid_rg, words("x, y*x^-1*y^-1"), 2)
    assert isinstance(rg, Valid)
    check(rg.certificate, RuleSystem.BI_ORDER, F2)

    klein = timed(1.0, decide_presented_lg, words("y^-1*x^-1, x"), KLEIN)
    assert isinstance(klein, Valid)

    tree = timed(1.0, decide_klein_biorderable)
    check(tree, RuleSystem.BI_ORDER, KLEIN)

    closure_s = product_closure_in_ball(words("x*x, y*y, x^-1*y^-1"), 2)
    assert sorted(render_word(w) for w in sorted(closure_s)) == [
        "x*x", "x*y", "x*y^-1", "x^-1*y", "x^-1*y^-1", "y*y",
    ]
    closure_t = product_closure_in_ball(words("x*x, x*y, y*x^-1"), 2)
    assert sorted(render_word(w) for w in sorted(closure_t)) == [
        "x*x", "x*y", "y*x", "y*x^-1", "y*y",
    ]
    report(1, "worked examples")


def test_criterion_2_decider_cross_validation():
    family = family_ball22()
    assert len(family) == 696
    start = time.monotonic()
    n_valid = 0
    for S in family:
        lg = decide_valid_lg(S)
        truncated = clay_smith(S, 2)
        assert isinstance(lg, LgValid) == (truncated is None), sorted(map(str, S))
        n_valid += isinstance(lg, LgValid)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"cross-validation took {elapsed:.1f}s"
    report(2, f"cross-validation on 696 instances ({n_valid} valid, {elapsed:.1f}s)")


def test_criterion_3_certificate_soundness():
    family = family_ball22()
    searched = checked_trees = invalid_checked = 0
    for S in family:
        verdict = decide_valid_lg(S)
        if isinstance(verdict, LgValid):
            tree = search(S, RuleSystem.RIGHT_ORDER, F2, max_depth=3, universe_cap=24)
            searched += 1
            if tree is not None:
                check(tree, RuleSystem.RIGHT_ORDER, F2)
                checked_trees += 1
        else:
            truncated = clay_smith(S, 2)
            assert truncated is not None
            assert IDENTITY not in truncated.positives
            for a in truncated.positives:
                for b in truncated.positives:
                    c = a * b
                    if len(c) <= truncated.l:
                        assert c in truncated.positives
            for w in ball(2, truncated.l - 1):
                if w != IDENTITY:
                    assert (
                        w in truncated.positives
                        or w.inverse() in truncated.positives
                    )
            autos = counterexample_automorphisms(S, verdict.order, 2)
            rank = {w: Fraction(i) for i, w in enumerate(verdict.order)}
            for t in S:
                value = evaluate_pl(autos, t, rank[IDENTITY])
                assert value == rank[t]  # exact rational arithmetic
                assert value < rank[IDENTITY]
            invalid_checked += 1
    assert checked_trees > 0
    report(
        3,
        f"certificate soundness ({checked_trees}/{searched} trees, "
        f"{invalid_checked} invalid witnesses)",
    )


def test_criterion_4_integer_characterization():
    values = [v for v in range(-4, 5) if v != 0]
    draws = []
    for r in (1, 2, 3):
        draws.extend(itertools.combinations_with_replacement(values, r))
    assert len(draws) == 164
    for draw in draws:
        combo = set(draw)
        points = frozenset((v,) for v in combo)
        verdict = decide_presented_lg(
            frozenset(Z1.to_word(p) for p in points), Z1
        )
        expected = min(combo) <= 0 and max(combo) >= 0
        assert isinstance(verdict, Valid) == expected, combo
        with_zero = frozenset(Z1.to_word(p) for p in points | {(0,)})
        assert isinstance(decide_presented_lg(with_zero, Z1), Valid)

    # the two worked trees, verbatim
    leaf_11 = leaf({(1,), (-1,)}, (1,))
    t_1_m2 = product_node({(1,), (-2,)}, (-2,), (-1,), (-1,), leaf_11, leaf_11)
    leaf_22 = leaf({(2,), (-2,)}, (2,))
    t_3_m2 = product_node({(3,), (-2,)}, (3,), (2,), (1,), leaf_22, t_1_m2)
    leaf_33 = leaf({(3,), (-3,)}, (3,))
    tree_z = product_node({(3,), (-5,)}, (-5,), (-3,), (-2,), leaf_33, t_3_m2)
    check(tree_z, RuleSystem.RIGHT_ORDER, Z1)

    c1 = leaf({W("x"), W("y*y"), W("x^-1")}, W("x"))
    left = product_node(
        {W("x*x"), W("y*y"), W("x^-1")}, W("x*x"), W("x"), W("x"), c1, c1
    )
    c2 = leaf({W("x*x"), W("y"), W("y^-1")}, W("y"))
    right = product_node(
        {W("x*x"), W("y*y"), W("y^-1")}, W("y*y"), W("y"), W("y"), c2, c2
    )
    tree_f = product_node(
        {W("x*x"), W("y*y"), W("x^-1*y^-1")},
        W("x^-1*y^-1"), W("x^-1"), W("y^-1"), left, right,
    )
    check(tree_f, RuleSystem.RIGHT_ORDER, F2)
    report(4, "integer characterization (164 draws) and worked trees")


def test_criterion_5_quasi_equation_properties():
    rng = random.Random(97)
    pool = sorted(w for w in ball(2, 2) if w != IDENTITY)

    # product rule: Valid(T u {a}) and Valid(T u {b}) imply Valid(T u {ab})
    tested = attempts = 0
    while tested < 100 and attempts < 30000:
        attempts += 1
        T = frozenset(rng.sample(pool, rng.randint(0, 2)))
        a, b = rng.choice(pool), rng.choice(pool)
        if not isinstance(decide_valid_lg(T | {a}), LgValid):
            continue
        if not isinstance(decide_valid_lg(T | {b}), LgValid):
            continue
        assert isinstance(decide_valid_lg(T | {a * b}), LgValid)
        tested += 1
    assert tested == 100

    # superset monotonicity
    family = family_ball22()
    valid = [S for S in family if isinstance(decide_valid_lg(S), LgValid)]
    for _ in range(100):
        S = rng.choice(valid)
        extra = frozenset(rng.sample(pool, rng.randint(1, 2)))
        assert isinstance(decide_valid_lg(S | extra), LgValid)

    # exchange closure at certificate level
    done = 0
    while done < 50:
        c = rng.choice(pool)
        junk = frozenset(rng.sample(pool, rng.randint(0, 2)))
        a, b = rng.choice(pool), rng.choice(pool)
        if a * b == IDENTITY:
            continue
        base_tree = leaf(junk | {c, c.inverse(), a * b}, c)
        extended = exchange_extension(base_tree, a * b, a, b, F2)
        check(extended, RuleSystem.BI_ORDER, F2)
        done += 1
    report(5, "quasi-equation properties (100+100+50 instances)")


def test_criterion_6_rg_refines_lg():
    family = family_ball22()
    for S in family:
        if isinstance(decide_valid_lg(S), LgValid):
            rg = decide_valid_rg(S, 2, max_depth=2, universe_cap=24)
            assert not isinstance(rg, Invalid), sorted(map(str, S))

    # the separation pair: invalid for all lattice-ordered groups,
    # valid for the totally ordered ones
    pair = words("x, y*x^-1*y^-1")
    assert isinstance(decide_valid_lg(pair), LgInvalid)
    assert isinstance(decide_valid_rg(pair, 2), Valid)
    report(6, "rg refines lg on the 696-instance family")


def test_criterion_7_abelian_completeness():
    points = [p for p in itertools.product(range(-3, 4), repeat=2) if p != (0, 0)]
    count = 0
    for r in (1, 2, 3):
        for combo in itertools.combinations(points, r):
            out = decide_abelian_order_extension(frozenset(combo), 2)
            if isinstance(out, ExtendsToOrder):
                for v in combo:
                    assert sum(c * x for c, x in zip(out.functional, v)) > 0
            else:
                assert isinstance(out, DoesNotExtend)
                assert sum(c for _, c in out.combination) > 0
                for i in range(2):
                    assert sum(v[i] * c for v, c in out.combination) == 0
            count += 1
    report(7, f"abelian completeness on {count} vector sets")


BIFURCATION_CASES = [
    ("x, y", "x*y^-1"),
    ("x, y^-1", "x*y"),
    ("x, x*x", "y"),
    ("x, x*y", "y"),
    ("x, x*y^-1", "y"),
    ("x, x^-1*y", "x*y^-1"),
    ("x, x^-1*y^-1", "x*y"),
    ("x, y*x", "y"),
    ("x, y*x^-1", "x^-1*y"),
    ("x, y*y", "x*y^-1"),
    ("x, y^-1*x", "y"),
    ("x, y^-1*x^-1", "x^-1*y^-1"),
    ("x, y^-1*y^-1", "x*y"),
    ("x^-1, y", "x*y"),
    ("x^-1, y^-1", "x*y^-1"),
    ("x*y, x^-1", "x^-1*y^-1"),
    ("x*y^-1, x^-1", "x^-1*y"),
    ("x^-1, y*x", "x*y"),
    ("x^-1, y*x^-1", "y"),
    ("x*x, x*y, y*x^-1", "x^-1*y"),
]


def test_criterion_8_bifurcation():
    assert len(BIFURCATION_CASES) == 20
    for text, expected in BIFURCATION_CASES:
        T = words(text)
        assert clay_smith(T, 2) is not None
        s = find_bifurcation(T, 2, max_len=3)
        assert s == W(expected), (text, str(s))
        # re-verify the split with two independent extension checks
        assert clay_smith(T | {s}, 2) is not None
        assert clay_smith(T | {s.inverse()}, 2) is not None
    report(8, "bifurcation found for all 20 fixed extendable sets")


def test_criterion_9_honest_incompleteness():
    # a conjugate-pair input that richer budgets certify as valid
    stress = words("x, y*x^-1*y^-1")
    verdict = decide_valid_rg(stress, 2, max_depth=0)
    assert isinstance(verdict, Unknown)
    assert verdict.budgets["orders_tried"] == 8  # every one of 2^2 * 2!
    assert verdict.budgets["search_depth"] == 0

    # a valid square-sum input is also honestly unknown with no search
    verdict = decide_valid_rg(words("x*x, y*y, x^-1*y^-1"), 2, max_depth=0)
    assert isinstance(verdict, Unknown)
    assert verdict.budgets["orders_tried"] == 8
    report(9, "budget exhaustion surfaces as unknown")
