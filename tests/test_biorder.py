import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from ellgroups.biorder import (
    DoesNotExtend,
    ExtendsToOrder,
    MagnusOrder,
    decide_abelian_order_extension,
    decide_klein_biorderable,
    decide_valid_rg,
    magnus_expand,
    magnus_sign,
    positive_functional,
    series_multiply,
)
from ellgroups.derivation import (
    CertificateError,
    Invalid,
    PastDeadline,
    RuleSystem,
    Unknown,
    Valid,
    check,
    leaf,
)
from ellgroups.groups import FreeGroupOracle, KleinBottleOracle
from ellgroups.rightorder import decide_valid_lg, LgValid
from ellgroups.terms import parse_group_word
from ellgroups.words import IDENTITY, Word, ball

STD = MagnusOrder((1, 1), (1, 2))


def W(s, k=2):
    return parse_group_word(s, k)


def random_word(rng, k=2, max_len=6, nonempty=False):
    letters = []
    for _ in range(rng.randint(1 if nonempty else 0, max_len)):
        options = [l for g in range(1, k + 1) for l in (g, -g)]
        if letters:
            options = [l for l in options if l != -letters[-1]]
        letters.append(rng.choice(options))
    return Word(tuple(letters))


def sympy_series(w: Word, degree: int):
    """Independent expansion through sympy's noncommutative algebra."""
    import sympy

    X, Y = sympy.symbols("X Y", commutative=False)
    gens = {1: X, 2: Y}
    expr = sympy.Integer(1)
    for l in w.letters:
        v = gens[abs(l)]
        if l > 0:
            expr = expr * (1 + v)
        else:
            inv = sum((-v) ** j for j in range(degree + 1))
            expr = expr * inv
    expr = sympy.expand(expr)
    out = {}
    for term in sympy.Add.make_args(expr):
        coeff, monomial = term.as_coeff_Mul()
        letters = []
        for factor in sympy.Mul.make_args(monomial):
            if factor.is_Number:
                continue
            base, exp = factor.as_base_exp()
            letters.extend([1 if base == X else 2] * int(exp))
        if len(letters) <= degree:
            key = tuple(letters)
            out[key] = out.get(key, 0) + int(coeff)
    return {m: c for m, c in out.items() if c}


class TestMagnusExpand:
    def test_generator(self):
        assert magnus_expand(W("x"), 2, (1, 1)) == {(): 1, (1,): 1}

    def test_inverse_generator(self):
        assert magnus_expand(W("x^-1"), 2, (1, 1)) == {
            (): 1,
            (1,): -1,
            (1, 1): 1,
        }

    def test_commutator(self):
        series = magnus_expand(W("x*y*x^-1*y^-1"), 2, (1, 1))
        assert series == {(): 1, (1, 2): 1, (2, 1): -1}

    def test_commutator_against_sympy(self):
        w = W("x*y*x^-1*y^-1")
        assert magnus_expand(w, 2, (1, 1)) == sympy_series(w, 2)

    def test_random_words_against_sympy(self):
        rng = random.Random(37)
        for _ in range(20):
            w = random_word(rng, max_len=5)
            assert magnus_expand(w, 3, (1, 1)) == sympy_series(w, 3)

    def test_homomorphism_property(self):
        rng = random.Random(41)
        for _ in range(100):
            u, v = random_word(rng), random_word(rng)
            left = magnus_expand(u * v, 6, (1, 1))
            right = series_multiply(
                magnus_expand(u, 6, (1, 1)), magnus_expand(v, 6, (1, 1)), 6
            )
            assert left == right

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            magnus_expand(W("x"), 0, (1, 1))


class TestMagnusSign:
    def test_generator_signs(self):
        assert magnus_sign(W("x"), STD, 2) == 1
        assert magnus_sign(W("x"), MagnusOrder((-1, 1), (1, 2)), 2) == -1

    def test_commutator_positive_with_x_first(self):
        assert magnus_sign(W("x*y*x^-1*y^-1"), STD, 2) == 1

    def test_commutator_sign_flips_with_precedence(self):
        assert magnus_sign(W("x*y*x^-1*y^-1"), MagnusOrder((1, 1), (2, 1)), 2) == -1

    def test_undecided_below_lowest_degree(self):
        assert magnus_sign(W("x*y*x^-1*y^-1"), STD, 1) is None
        assert magnus_sign(IDENTITY, STD, 5) is None

    def test_sign_antisymmetry(self):
        rng = random.Random(43)
        for _ in range(100):
            w = random_word(rng, nonempty=True)
            s = magnus_sign(w, STD, max(1, len(w)))
            s_inv = magnus_sign(w.inverse(), STD, max(1, len(w)))
            assert s is not None and s_inv == -s

    def test_positivity_multiplicative(self):
        rng = random.Random(47)
        tested = 0
        while tested < 100:
            u, v = random_word(rng, nonempty=True), random_word(rng, nonempty=True)
            d = max(len(u), len(v), 1)
            if magnus_sign(u, STD, d) != 1 or magnus_sign(v, STD, d) != 1:
                continue
            prod_sign = magnus_sign(u * v, STD, d)
            if prod_sign is not None:
                assert prod_sign == 1
            tested += 1


class TestDecideValidRg:
    def test_conjugate_pair_valid_with_exchange(self):
        verdict = decide_valid_rg({W("x"), W("y*x^-1*y^-1")}, 2)
        assert isinstance(verdict, Valid)
        assert verdict.certificate is not None
        check(verdict.certificate, RuleSystem.BI_ORDER, FreeGroupOracle(2))

    def test_two_generators_invalid(self):
        verdict = decide_valid_rg({W("x"), W("y")}, 2)
        assert isinstance(verdict, Invalid)
        assert verdict.witness["epsilon"] == (1, 1)
        assert verdict.witness["sign"] == "pos"

    def test_commutator_invalid(self):
        verdict = decide_valid_rg({W("x*y*x^-1*y^-1")}, 2)
        assert isinstance(verdict, Invalid)

    def test_identity_valid(self):
        verdict = decide_valid_rg({IDENTITY, W("x")}, 2)
        assert isinstance(verdict, Valid)

    def test_minimum_budgets_give_unknown(self):
        # an rg-valid join: every one of the 2^2 * 2! orders is tried
        verdict = decide_valid_rg({W("x"), W("y*x^-1*y^-1")}, 2, max_depth=0)
        assert isinstance(verdict, Unknown)
        assert verdict.budgets["orders_tried"] == 8

    def test_past_deadline_raises(self, monkeypatch):
        deadline = time.monotonic() - 1
        # in the order loop, before the first order, which refutes {x, y}
        with pytest.raises(PastDeadline):
            decide_valid_rg({W("x"), W("y")}, 2, deadline=deadline)
        join = {W("x"), W("y*x^-1*y^-1")}
        far = time.monotonic() + 3600
        assert decide_valid_rg(join, 2, deadline=far) == decide_valid_rg(join, 2)
        spent = decide_valid_rg(join, 2, max_depth=0)
        assert spent.budgets["degree_growth"] == 4
        # in the search, with an order loop that finds no order
        monkeypatch.setattr(
            "ellgroups.biorder._uniform_sign_order", lambda join, k, deadline: (None, 0)
        )
        with pytest.raises(PastDeadline):
            decide_valid_rg(join, 2, deadline=deadline)

    def test_refines_lg_on_sample(self):
        elems = sorted(w for w in ball(2, 2) if w != IDENTITY)
        rng = random.Random(53)
        family = [
            frozenset(c)
            for r in (1, 2, 3)
            for c in itertools.combinations(elems, r)
        ]
        for S in rng.sample(family, 60):
            lg_valid = isinstance(decide_valid_lg(S), LgValid)
            rg = decide_valid_rg(S, 2, max_depth=2, universe_cap=24)
            if lg_valid:
                assert not isinstance(rg, Invalid), sorted(map(str, S))


class TestAbelian:
    def test_integer_pair(self):
        out = decide_abelian_order_extension({(3,), (-5,)}, 1)
        assert out == DoesNotExtend((((-5,), 3), ((3,), 5)))

    def test_plane_pair_extends(self):
        out = decide_abelian_order_extension({(2, -1), (-1, 2)}, 2)
        assert isinstance(out, ExtendsToOrder)
        assert all(
            sum(c * x for c, x in zip(out.functional, v)) > 0
            for v in ((2, -1), (-1, 2))
        )

    def test_single_vector_extends(self):
        out = decide_abelian_order_extension({(1, 0)}, 2)
        assert isinstance(out, ExtendsToOrder)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            decide_abelian_order_extension({(0, 0), (1, 1)}, 2)

    def test_combination_past_512_vectors(self):
        # 1 * 513 + 513 * (-1) = 0 takes 514 vectors; duality alone ends
        # the search
        out = decide_abelian_order_extension([(513,), (-1,)], 1)
        assert out == DoesNotExtend((((-1,), 513), ((513,), 1)))

    def test_spent_deadline_stops_the_combination_search(self):
        spent = time.monotonic() - 1
        with pytest.raises(PastDeadline):
            decide_abelian_order_extension({(3,), (-5,)}, 1, spent)
        # a refutation needs no combination search
        assert isinstance(decide_abelian_order_extension({(3,)}, 1, spent), ExtendsToOrder)

    def test_exhaustive_small_plane(self):
        points = [
            p for p in itertools.product(range(-2, 3), repeat=2) if p != (0, 0)
        ]
        for r in (1, 2):
            for combo in itertools.combinations(points, r):
                out = decide_abelian_order_extension(frozenset(combo), 2)
                if isinstance(out, ExtendsToOrder):
                    assert all(
                        sum(c * x for c, x in zip(out.functional, v)) > 0
                        for v in combo
                    )
                else:
                    assert sum(c for _, c in out.combination) > 0
                    for i in range(2):
                        assert (
                            sum(v[i] * c for v, c in out.combination) == 0
                        )


def fraction_positive_functional(vectors, k):
    # reference: Fourier-Motzkin elimination on Fractions, each bound
    # solved for its variable; the functional is the least integer
    # multiple of the rational witness
    current = [([Fraction(x) for x in v], Fraction(1)) for v in set(vectors)]
    stages = []
    for _ in range(k):
        lowers, uppers, rest = [], [], []
        for coeffs, const in current:
            c, tail = coeffs[0], coeffs[1:]
            if c > 0:
                lowers.append(([-x / c for x in tail], const / c))
            elif c < 0:
                uppers.append(([-x / c for x in tail], const / c))
            else:
                rest.append((tail, const))
        for lo_c, lo_b in lowers:
            for up_c, up_b in uppers:
                rest.append(([u - l for l, u in zip(lo_c, up_c)], lo_b - up_b))
        stages.append((lowers, uppers))
        current = rest
    if any(const > 0 for _, const in current):
        return None
    phi = []
    for lowers, uppers in reversed(stages):
        lo = max(
            (b + sum(c * p for c, p in zip(cs, phi)) for cs, b in lowers),
            default=None,
        )
        hi = min(
            (b + sum(c * p for c, p in zip(cs, phi)) for cs, b in uppers),
            default=None,
        )
        if lo is None and hi is None:
            value = Fraction(0)
        elif lo is None:
            value = hi
        elif hi is None:
            value = lo
        else:
            value = (lo + hi) / 2
        phi.insert(0, value)
    scale = lcm(*(f.denominator for f in phi))
    return tuple(int(f * scale) for f in phi)


def random_vector_set(rng, k, count, bound):
    vectors = []
    while len(vectors) < count:
        v = tuple(rng.randint(-bound, bound) for _ in range(k))
        if any(v):
            vectors.append(v)
    return vectors


class TestIntegerElimination:
    def test_small_plane_matches_fractions(self):
        points = [
            p for p in itertools.product(range(-3, 4), repeat=2) if p != (0, 0)
        ]
        sets = [c for r in (1, 2) for c in itertools.combinations(points, r)]
        assert len(sets) == 1176
        for vectors in sets:
            assert positive_functional(vectors, 2) == fraction_positive_functional(
                vectors, 2
            )

    def test_random_sets_match_fractions(self):
        rng = random.Random(14)
        for k in range(1, 6):
            for _ in range(150):
                vectors = random_vector_set(rng, k, rng.randint(1, 6), 4)
                assert positive_functional(
                    vectors, k
                ) == fraction_positive_functional(vectors, k)

    def test_large_entries_match_fractions(self):
        # entries near 10^6 make the combined rows share large factors
        rng = random.Random(6)
        for k in (2, 3):
            for _ in range(40):
                vectors = [
                    tuple(x * 10**6 + rng.randint(-3, 3) for x in v)
                    for v in random_vector_set(rng, k, rng.randint(2, 4), 2)
                ]
                assert positive_functional(
                    vectors, k
                ) == fraction_positive_functional(vectors, k)

    def test_bad_functional_raises_under_optimize(self):
        # the re-check by substitution is an explicit test, kept by -O
        code = (
            "import ellgroups.biorder as b\n"
            "b._fourier_motzkin = lambda rows, k: (1, -1)\n"
            "b.positive_functional([(1, 0), (1, 1)], 2)\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "RuntimeError: functional (1, -1) is not positive on (1, 1)" in (
            proc.stderr
        )


class TestKleinCertificate:
    def test_accepted_by_checker(self):
        tree = decide_klein_biorderable()
        check(tree, RuleSystem.BI_ORDER, KleinBottleOracle())
        assert tree.rule == "exchange"
        assert tree.children[0].rule == "leaf"

    def test_exchange_required(self):
        tree = decide_klein_biorderable()
        with pytest.raises(CertificateError):
            check(tree, RuleSystem.RIGHT_ORDER, KleinBottleOracle())

    def test_leaf_fails_with_free_oracle(self):
        free_leaf = leaf({W("y"), W("x*y*x^-1")}, W("y"))
        with pytest.raises(CertificateError):
            check(free_leaf, RuleSystem.BI_ORDER, FreeGroupOracle(2))
