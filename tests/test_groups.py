import itertools
import random
import time

import pytest

from ellgroups import derivation, groups
from ellgroups.derivation import (
    Invalid,
    RuleSystem,
    Valid,
    bounded_closure_with_parents,
    check,
    closure_leaf,
)
from ellgroups.groups import (
    FreeGroupOracle,
    IntLatticeOracle,
    KleinBottleOracle,
    KleinElement,
    MAX_RANK,
    canonicalize_klein,
    decide_presented_lg,
    klein_right_order_sign,
    oracle_from_selector,
)
from ellgroups.derivation import product_witness
from ellgroups.terms import parse_group_word
from ellgroups.words import IDENTITY, Word

F2 = FreeGroupOracle(2)
Z1 = IntLatticeOracle(1)
Z2 = IntLatticeOracle(2)
KLEIN = KleinBottleOracle()


def W(s, k=2):
    return parse_group_word(s, k)


def random_word(rng, k=2, max_len=8):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        options = [l for g in range(1, k + 1) for l in (g, -g)]
        if letters:
            options = [l for l in options if l != -letters[-1]]
        letters.append(rng.choice(options))
    return Word(tuple(letters))


def klein_rewrite(w: Word) -> KleinElement:
    """Independent oracle: push x-letters left by the confluent rules
    yx -> xy^-1, y^-1 x -> xy, y x^-1 -> x^-1 y^-1, y^-1 x^-1 -> x^-1 y,
    cancelling freely, then read off the exponents."""
    letters = list(w.letters)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(letters) - 1:
            a, b = letters[i], letters[i + 1]
            if a == -b:
                del letters[i : i + 2]
                i = max(i - 1, 0)
                changed = True
                continue
            if abs(a) == 2 and abs(b) == 1:
                # move the x-letter left, flipping the y-exponent
                letters[i], letters[i + 1] = b, -a
                changed = True
            i += 1
    m = sum(1 if l == 1 else -1 for l in letters if abs(l) == 1)
    n = sum(1 if l == 2 else -1 for l in letters if abs(l) == 2)
    return KleinElement(m, n)


class TestKleinOracle:
    def test_canonicalization_examples(self):
        assert canonicalize_klein(W("y^-1*x^-1")) == KleinElement(-1, 1)
        assert canonicalize_klein(W("x*y*x^-1*y")) == KleinElement(0, 0)
        assert canonicalize_klein(W("x*y*x^-1")) == KleinElement(0, -1)

    def test_matches_rewriting_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            w = random_word(rng)
            assert canonicalize_klein(w) == klein_rewrite(w), str(w)

    def test_ball_lengths(self):
        for g in KLEIN.enumerate_ball(4):
            assert KLEIN.length(g) == abs(g.m) + abs(g.n) <= 4
        assert len(KLEIN.enumerate_ball(0)) == 1

    def test_to_word_round_trip(self):
        for g in KLEIN.enumerate_ball(4):
            assert KLEIN.canonicalize(KLEIN.to_word(g)) == g


@pytest.mark.parametrize("oracle", [F2, Z2, KLEIN], ids=lambda o: o.name)
class TestOracleLaws:
    def test_canonicalize_is_homomorphic(self, oracle):
        rng = random.Random(29)
        for _ in range(200):
            u, v = random_word(rng, max_len=6), random_word(rng, max_len=6)
            a, b = oracle.canonicalize(u), oracle.canonicalize(v)
            assert oracle.multiply(a, b) == oracle.canonicalize(u * v)
            assert oracle.is_identity(oracle.multiply(a, oracle.invert(a)))

    def test_canonical_forms_are_fixed_points(self, oracle):
        rng = random.Random(31)
        for _ in range(50):
            g = oracle.canonicalize(random_word(rng, max_len=6))
            assert oracle.canonicalize(oracle.to_word(g)) == g


class TestKleinRightOrders:
    def test_variant_signs(self):
        x = KleinElement(1, 0)
        assert klein_right_order_sign(x, 1) == 1
        assert klein_right_order_sign(KleinElement(-1, 1), 1) == -1
        for variant in range(1, 5):
            assert klein_right_order_sign(KleinElement(0, 0), variant) == 0

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_positive_cone_axioms(self, variant):
        # product closure and trichotomy, exhaustively on the radius-4 ball
        ball4 = KLEIN.enumerate_ball(4)
        positives = [g for g in ball4 if klein_right_order_sign(g, variant) == 1]
        for a in positives:
            for b in positives:
                c = KLEIN.multiply(a, b)
                assert klein_right_order_sign(c, variant) == 1
        for g in ball4:
            s = klein_right_order_sign(g, variant)
            s_inv = klein_right_order_sign(KLEIN.invert(g), variant)
            if KLEIN.is_identity(g):
                assert s == 0
            else:
                assert {s, s_inv} == {1, -1}

    def test_variants_pairwise_distinct(self):
        ball3 = KLEIN.enumerate_ball(3)
        for v1, v2 in itertools.combinations(range(1, 5), 2):
            assert any(
                klein_right_order_sign(g, v1) != klein_right_order_sign(g, v2)
                for g in ball3
            )


class TestClosures:
    def test_klein_semigroup_closure_reaches_identity(self):
        S = {KLEIN.canonicalize(W("x")), KLEIN.canonicalize(W("x^-1*y"))}
        closed, parents = bounded_closure_with_parents(S, 2, KLEIN)
        assert KLEIN.identity in closed
        seq = product_witness(KLEIN.identity, frozenset(S), parents)
        out = KLEIN.identity
        for g in seq:
            assert g in S
            out = KLEIN.multiply(out, g)
        assert KLEIN.is_identity(out)

    def test_integer_closure(self):
        closed, parents = bounded_closure_with_parents({(1,), (-2,)}, 4, Z1)
        assert (0,) in closed
        seq = product_witness((0,), frozenset({(1,), (-2,)}), parents)
        assert sum(v[0] for v in seq) == 0

    def test_free_closure_misses_identity(self):
        closed, _ = bounded_closure_with_parents({W("x")}, 3, F2)
        assert closed == {W("x"), W("x*x"), W("x*x*x")}


class TestDecidePresented:
    def test_klein_valid_example(self):
        verdict = decide_presented_lg({W("y^-1*x^-1"), W("x")}, KLEIN)
        assert isinstance(verdict, Valid)
        assert verdict.certificate is not None
        check(verdict.certificate, RuleSystem.RIGHT_ORDER, KLEIN)

    def test_klein_invalid_example(self):
        verdict = decide_presented_lg({W("x")}, KLEIN)
        assert isinstance(verdict, Invalid)
        assert verdict.witness["variant"] == 1

    def test_klein_valid_with_a_split_certificate(self):
        # x^2 y^-1 and x^-2 y^-2 lie in no right order's cone: a split on
        # x, then on y, and a product reaching e in each of the four
        # branches prove it
        join = {KLEIN.to_word(KleinElement(2, -1)), KLEIN.to_word(KleinElement(-2, -2))}
        verdict = decide_presented_lg(join, KLEIN)
        assert verdict.method == "klein-orders"
        tree = verdict.certificate
        assert [tree.rule, *(c.rule for c in tree.children)] == ["split"] * 3
        check(tree, RuleSystem.RIGHT_ORDER, KLEIN)

    def test_klein_small_subsets_exhaustively(self):
        # every 1-3 element subset of the punctured radius-3 ball: invalid
        # exactly inside a right order's cone, and otherwise certified
        ball = [g for g in KLEIN.enumerate_ball(3) if not KLEIN.is_identity(g)]
        certified = 0
        for r in (1, 2, 3):
            for subset in itertools.combinations(ball, r):
                verdict = decide_presented_lg(map(KLEIN.to_word, subset), KLEIN)
                in_a_cone = any(
                    all(klein_right_order_sign(g, v) == 1 for g in subset)
                    for v in range(1, 5)
                )
                assert isinstance(verdict, Invalid) == in_a_cone, subset
                if not in_a_cone:
                    assert verdict.method == "klein-orders"
                    check(verdict.certificate, RuleSystem.RIGHT_ORDER, KLEIN)
                    certified += 1
        assert certified == 1404

    def test_deadline_reaches_the_combination_search(self, monkeypatch):
        # with the closure certificate ruled out, the combination search
        # decides the join: x + (y - x) - y = 0
        monkeypatch.setattr(groups, "bounded_closure_with_parents", lambda S, *a, **k: (S, {}))
        join = {W("x"), W("x^-1*y"), W("y^-1")}
        assert decide_presented_lg(join, Z2).method == "abelian-duality"
        spent = time.monotonic() - 1
        with pytest.raises(derivation.PastDeadline):
            decide_presented_lg(join, Z2, spent)

    def test_other_oracles_refused(self):
        # free groups go to the complete free-group deciders instead
        with pytest.raises(ValueError):
            decide_presented_lg({W("x*x"), W("x*y"), W("y*x^-1")}, F2)

    def test_integer_mixed_signs_characterization(self):
        # membership holds exactly when the set has an element <= 0 and one >= 0
        values = [v for v in range(-4, 5) if v != 0]
        for r in (1, 2):
            for combo in itertools.combinations(values, r):
                points = frozenset((v,) for v in combo)
                words = frozenset(Z1.to_word(p) for p in points)
                verdict = decide_presented_lg(words, Z1)
                expected = min(combo) <= 0 and max(combo) >= 0
                assert isinstance(verdict, Valid) == expected, combo

    def test_zero_containing_integer_sets_are_valid(self):
        words = {IDENTITY, Z1.to_word((3,))}
        verdict = decide_presented_lg(words, Z1)
        assert isinstance(verdict, Valid)
        assert verdict.certificate.rule == "leaf"


class TestRefuteFirst:
    """A join inside a right order's positive cone is refuted before any
    certificate is searched for; the verdict is the one found after a
    full search."""

    @staticmethod
    def refuted_without_search(join, oracle, monkeypatch):
        expected = decide_presented_lg(join, oracle)

        def refuse(*args, **kwargs):
            raise AssertionError("a certificate search ran")

        monkeypatch.setattr(groups, "bounded_closure_with_parents", refuse)
        monkeypatch.setattr(derivation, "search", refuse)
        verdict = decide_presented_lg(join, oracle)
        assert verdict == expected
        return verdict

    def test_klein_join_in_a_cone(self, monkeypatch):
        # x^-1 = (-1, 0) and y*x^-1 = (-1, -1): the cone of variant 3
        verdict = self.refuted_without_search({W("x^-1"), W("y*x^-1")}, KLEIN, monkeypatch)
        assert verdict == Invalid(
            witness={"variant": 3, "epsilon": (-1, 1)}, method="klein-orders"
        )

    def test_integer_join_in_a_cone(self, monkeypatch):
        join = {W("x"), W("x*y"), W("x*y^-1")}
        verdict = self.refuted_without_search(join, Z2, monkeypatch)
        assert verdict.method == "abelian-duality"
        functional = verdict.witness["functional"]
        for v in ((1, 0), (1, 1), (1, -1)):
            assert functional[0] * v[0] + functional[1] * v[1] > 0

    def test_stop_at_identity_keeps_the_witness(self):
        # the closure certificate stops once e enters; its product
        # sequence is the one the full closure records
        rng = random.Random(41)
        found = 0
        for _ in range(400):
            join = frozenset(
                Z2.canonicalize(random_word(rng, max_len=3))
                for _ in range(rng.randint(2, 4))
            )
            if Z2.identity in join:
                continue
            radius = max(2, 2 * max(Z2.length(g) for g in join))
            full, parents = bounded_closure_with_parents(join, radius, Z2)
            if Z2.identity not in full:
                continue
            found += 1
            sequence = product_witness(Z2.identity, join, parents)
            verdict = decide_presented_lg(map(Z2.to_word, join), Z2)
            assert verdict == Valid(closure_leaf(join, sequence), "closure")
        assert found >= 40


class TestOracleSelector:
    def test_selectors(self):
        assert oracle_from_selector("free:3").k == 3
        assert oracle_from_selector("zn:2").k == 2
        assert oracle_from_selector("klein").name == "klein"

    def test_bad_selectors(self):
        for bad in ("free", "zn:x", "kleinx", "free:0"):
            with pytest.raises(ValueError):
                oracle_from_selector(bad)

    def test_rank_cap(self):
        assert oracle_from_selector(f"free:{MAX_RANK}").k == MAX_RANK
        assert oracle_from_selector("zn:007").k == 7
        for bad in ("klein:2", "zn:0", "free:-1", "free: 2", "free:+2", "free:1_0",
                    f"zn:{MAX_RANK + 1}", "free:" + "9" * 5000):
            with pytest.raises(ValueError):
                oracle_from_selector(bad)
