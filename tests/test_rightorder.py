import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellgroups.terms import parse_group_word
from ellgroups.rightorder import (
    Acyclic,
    Cycle,
    DifferenceSystem,
    LgInvalid,
    LgValid,
    PLAutomorphism,
    TruncatedRightOrder,
    WitnessError,
    build_difference_system,
    clay_smith,
    consistent,
    counterexample_automorphisms,
    decide_valid_lg,
    decide_valid_lg_bruteforce,
    evaluate_pl,
    find_bifurcation,
    product_closure_in_ball,
)
from ellgroups import rightorder
from ellgroups.words import (
    IDENTITY,
    ball,
    difference_classes,
    initial_subterms,
    render_word,
    word,
)


def W(s, k=2):
    return parse_group_word(s, k)


def words(text, k=2):
    return frozenset(W(part.strip(), k) for part in text.split(","))


def small_family(max_size=3):
    elems = sorted(w for w in ball(2, 2) if w != IDENTITY)
    out = []
    for r in range(1, max_size + 1):
        out.extend(frozenset(c) for c in itertools.combinations(elems, r))
    return out


def naive_closure(words, l):
    # word-level fixpoint: every pair of the current set, until nothing new
    current = set(words)
    while True:
        added = {c for a in current for b in current if len(c := a * b) <= l}
        if added <= current:
            return frozenset(current)
        current |= added


def naive_clay_smith(words, k):
    # truncated search on Words, fully re-closing every branch
    start = frozenset(words)
    l = max(1, max((len(w) for w in start), default=1))
    interior = sorted(w for w in ball(k, l - 1) if w != IDENTITY)

    def extend(current):
        if IDENTITY in current:
            return None
        for t in interior:
            if t not in current and t.inverse() not in current:
                for candidate in (t, t.inverse()):
                    result = extend(naive_closure(current | {candidate}, l))
                    if result is not None:
                        return result
                return None
        return current

    result = extend(naive_closure(start, l))
    return None if result is None else TruncatedRightOrder(k, l, result)


def check_truncated_invariants(t: TruncatedRightOrder):
    # independent re-check of all three defining conditions
    assert IDENTITY not in t.positives
    for a in t.positives:
        assert len(a) <= t.l
        for b in t.positives:
            c = a * b
            if len(c) <= t.l:
                assert c in t.positives, (str(a), str(b), str(c))
    for w in ball(t.rank, t.l - 1):
        if w != IDENTITY:
            assert w in t.positives or w.inverse() in t.positives, str(w)


class TestBuildDifferenceSystem:
    def test_single_generator(self):
        sys = build_difference_system({W("x")})
        assert set(sys.nodes) == {IDENTITY, W("x")}
        assert len(sys.classes) == 1
        assert sys.classes[0].rep == W("x")
        assert sys.classes[0].forced_sign == 1
        assert not sys.immediately_cyclic

    def test_square(self):
        sys = build_difference_system({W("x*x")})
        assert set(sys.nodes) == {IDENTITY, W("x"), W("x*x")}
        by_rep = {c.rep: c for c in sys.classes}
        assert by_rep[W("x")].forced_sign is None
        assert len(by_rep[W("x")].oriented_pairs) == 2
        assert by_rep[W("x*x")].forced_sign == 1

    def test_immediately_cyclic(self):
        sys = build_difference_system({W("x"), W("x^-1")})
        assert sys.immediately_cyclic

    def test_rejects_identity(self):
        with pytest.raises(ValueError):
            build_difference_system({IDENTITY, W("x")})

    @given(st.integers(0, 695))
    @settings(max_examples=60, deadline=None)
    def test_every_pair_oriented_exactly_once(self, idx):
        S = small_family()[idx]
        if IDENTITY in S:
            return
        sys = build_difference_system(S)
        nodes = set(sys.nodes)
        assert nodes == initial_subterms(S)
        covered = []
        for cls in sys.classes:
            covered.extend(frozenset(p) for p in cls.oriented_pairs)
        assert len(covered) == len(set(covered))
        assert set(covered) == {
            frozenset(p) for p in itertools.combinations(sorted(nodes), 2)
        }


class TestConsistent:
    def test_square_positive(self):
        sys = build_difference_system({W("x*x")})
        verdict = consistent(sys, (1, 1))
        assert verdict == Acyclic((W("x*x"), W("x"), IDENTITY))

    def test_square_negative(self):
        sys = build_difference_system({W("x*x")})
        verdict = consistent(sys, (-1, 1))
        assert isinstance(verdict, Cycle)
        assert set(verdict.nodes) == {IDENTITY, W("x"), W("x*x")}

    def test_single_generator(self):
        sys = build_difference_system({W("x")})
        assert consistent(sys, (1,)) == Acyclic((W("x"), IDENTITY))

    def test_rejects_forced_violation(self):
        sys = build_difference_system({W("x")})
        with pytest.raises(ValueError):
            consistent(sys, (-1,))


class TestDecideValidLg:
    def test_known_valid(self):
        verdict = decide_valid_lg(words("x*x, y*y, x^-1*y^-1"))
        assert isinstance(verdict, LgValid)

    def test_known_invalid(self):
        verdict = decide_valid_lg(words("x*x, x*y, y*x^-1"))
        assert isinstance(verdict, LgInvalid)

    def test_conjugate_pair_invalid(self):
        verdict = decide_valid_lg(words("x, y*x^-1*y^-1"))
        assert isinstance(verdict, LgInvalid)

    def test_identity_joins_are_valid(self):
        assert isinstance(decide_valid_lg({IDENTITY}), LgValid)
        assert isinstance(decide_valid_lg({IDENTITY, W("x")}), LgValid)

    def test_mutually_inverse_pair(self):
        verdict = decide_valid_lg(words("x, x^-1"))
        assert isinstance(verdict, LgValid)
        assert verdict.assignments_checked == 0

    def test_inverse_pair_decided_before_class_table(self, monkeypatch):
        rng = random.Random(23)
        pool = sorted(w for w in ball(2, 5) if len(w) == 5)
        join = frozenset(rng.sample(pool, 126))
        w = next(w for w in pool if w not in join and w.inverse() not in join)
        join |= {w, w.inverse()}
        assert len(join) == 128

        def no_table(_):
            raise AssertionError("class table built")

        monkeypatch.setattr(rightorder, "build_difference_system", no_table)
        for decide in (decide_valid_lg, decide_valid_lg_bruteforce):
            assert decide(join) == LgValid(assignments_checked=0)

    def test_empty_join_rejected(self):
        with pytest.raises(ValueError):
            decide_valid_lg(frozenset())

    def test_square_witness(self):
        verdict = decide_valid_lg({W("x*x")})
        assert isinstance(verdict, LgInvalid)
        assert verdict.order == (W("x*x"), W("x"), IDENTITY)

    def test_pruned_agrees_with_bruteforce(self):
        rng = random.Random(7)
        fam = small_family()
        for S in rng.sample(fam, 120):
            fast = decide_valid_lg(S)
            slow = decide_valid_lg_bruteforce(S)
            assert type(fast) is type(slow)
            assert fast.assignments_checked == slow.assignments_checked
            if isinstance(fast, LgInvalid):
                assert fast.signs == slow.signs
                assert fast.order == slow.order

    def test_superset_monotonicity(self):
        rng = random.Random(11)
        fam = small_family()
        valid = [S for S in fam if isinstance(decide_valid_lg(S), LgValid)]
        pool = sorted(w for w in ball(2, 2) if w != IDENTITY)
        for _ in range(100):
            S = rng.choice(valid)
            extra = frozenset(rng.sample(pool, rng.randint(1, 2)))
            assert isinstance(decide_valid_lg(S | extra), LgValid)

    def test_identity_rule(self):
        rng = random.Random(13)
        pool = sorted(ball(2, 2))
        for _ in range(25):
            S = frozenset(rng.sample(pool, rng.randint(0, 3))) | {IDENTITY}
            assert isinstance(decide_valid_lg(S), LgValid)

    def test_product_rule(self):
        # whenever T u {a} and T u {b} are valid, so is T u {ab}
        rng = random.Random(17)
        pool = sorted(w for w in ball(2, 2) if w != IDENTITY)
        tested = 0
        attempts = 0
        while tested < 100 and attempts < 20000:
            attempts += 1
            T = frozenset(rng.sample(pool, rng.randint(0, 2)))
            a, b = rng.choice(pool), rng.choice(pool)
            if not T and a != b.inverse():
                continue  # singleton premises are almost never valid
            if not isinstance(decide_valid_lg(T | {a}), LgValid):
                continue
            if not isinstance(decide_valid_lg(T | {b}), LgValid):
                continue
            tested += 1
            assert isinstance(decide_valid_lg(T | {a * b}), LgValid), (
                sorted(map(str, T)),
                str(a),
                str(b),
            )
        assert tested == 100


class TestProductClosure:
    def test_first_worked_closure(self):
        S = words("x*x, y*y, x^-1*y^-1")
        closed = product_closure_in_ball(S, 2)
        assert closed == words("x*x, y*y, x^-1*y^-1, x*y^-1, x^-1*y, x*y")

    def test_second_worked_closure(self):
        T = words("x*x, x*y, y*x^-1")
        assert product_closure_in_ball(T, 2) == words(
            "x*x, x*y, y*x^-1, y*x, y*y"
        )

    def test_powers(self):
        assert product_closure_in_ball({W("x")}, 3) == {
            W("x"),
            W("x*x"),
            W("x*x*x"),
        }


class TestKernelEquivalence:
    """The indexed ball kernel against the word-level oracles above."""

    def test_radius_two_family(self):
        for S in small_family():
            assert clay_smith(S, 2) == naive_clay_smith(S, 2), sorted(map(str, S))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_radius_three_samples(self, k):
        rng = random.Random(300 + k)
        pool = sorted(w for w in ball(k, 3) if w != IDENTITY)
        for _ in range(20):
            S = frozenset(rng.sample(pool, rng.randint(1, 3)))
            assert clay_smith(S, k) == naive_clay_smith(S, k), sorted(map(str, S))

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.integers(1, k).flatmap(lambda g: st.sampled_from((g, -g))),
                    max_size=5,
                ),
                max_size=4,
            )
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_product_closure_matches_oracle(self, letter_lists, l):
        # words longer than l are kept and multiply back into the ball
        S = frozenset(word(letters) for letters in letter_lists)
        assert product_closure_in_ball(S, l) == naive_closure(S, l)

    def test_long_words_multiply_back_into_ball(self):
        S = words("x*x*y, y^-1*x^-1")
        closed = product_closure_in_ball(S, 2)
        assert W("x*x*y") in closed and W("x") in closed
        assert closed == naive_closure(S, 2)

    def test_length_six_word_pinned(self):
        # recorded from the word-level implementation (57 s there)
        t = clay_smith({W("x*y*x*y*x*y")}, 2)
        assert (t.rank, t.l, len(t.positives)) == (2, 6, 714)
        listing = ",".join(render_word(w) for w in sorted(t.positives))
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "d0a6c9f983b34faf843e20103b6b701334283653ae554668d7db4c7a49878a37"
        )
        check_truncated_invariants(t)

    def test_letters_outside_rank_rejected(self):
        with pytest.raises(ValueError):
            clay_smith({W("z", 3)}, 2)
        with pytest.raises(ValueError):
            clay_smith(words("x, y"), 1)


def word_level_system(join):
    # forced signs read off Words, over the classes (checked against the
    # word-level construction in test_words.py)
    base = frozenset(join)
    classes = []
    for cls in difference_classes(base):
        forced = 1 if cls.rep in base else -1 if cls.rep.inverse() in base else None
        classes.append(replace(cls, forced_sign=forced))
    cyclic = any(w.inverse() in base for w in base)
    nodes = tuple(sorted(initial_subterms(base)))
    return DifferenceSystem(base, nodes, tuple(classes), cyclic)


def random_joins(seed, count):
    # 4-6 distinct reduced words of length 3-5 over F(2)
    rng = random.Random(seed)
    letters = (1, -1, 2, -2)
    out = []
    for _ in range(count):
        join = set()
        n = rng.randint(4, 6)
        while len(join) < n:
            w = []
            for _ in range(rng.randint(3, 5)):
                w.append(rng.choice([l for l in letters if not w or l != -w[-1]]))
            join.add(word(w))
        out.append(frozenset(join))
    return out


def plain_sign_search(join):
    # the sign search as a plain recursion over the word-level system, the
    # order kept as per-node reachability bitmasks and every node copying
    # them; returns (valid, signs, order, assignments, nodes)
    sys = build_difference_system(join)
    index = {w: i for i, w in enumerate(sys.nodes)}
    n = len(sys.nodes)
    nodes = checked = 0

    def add(reach, cls, sign):
        reach = list(reach)
        for a, b in cls.oriented_pairs:
            u, v = (index[a], index[b]) if sign == 1 else (index[b], index[a])
            if (reach[v] >> u) & 1:
                return None
            for w in range(n):
                if w == u or (reach[w] >> u) & 1:
                    reach[w] |= reach[v] | (1 << v)
        return reach

    reach = [0] * n
    for cls in sys.classes:
        if cls.forced_sign is not None:
            nodes += 1
            reach = add(reach, cls, cls.forced_sign)
            if reach is None:
                return True, None, None, None, nodes
    free = [i for i, cls in enumerate(sys.classes) if cls.forced_sign is None]
    signs = [cls.forced_sign or 0 for cls in sys.classes]

    def dfs(level, reach):
        nonlocal nodes, checked
        if level == len(free):
            checked += 1
            order = sorted(range(n), key=lambda i: -bin(reach[i]).count("1"))
            return tuple(signs), tuple(sys.nodes[i] for i in order)
        for sign in (1, -1):
            nodes += 1
            nxt = add(reach, sys.classes[free[level]], sign)
            if nxt is None:
                checked += 2 ** (len(free) - level - 1)
                continue
            signs[free[level]] = sign
            found = dfs(level + 1, nxt)
            if found is not None:
                return found
        return None

    found = dfs(0, reach)
    if found is None:
        return True, None, None, checked, nodes
    return (False, *found, checked, nodes)


def product_of_absolutes(factors):
    # the join of e <= |a|*|b|*|c|: every product a^±1 * b^±1 * c^±1
    out = set()
    for signs in itertools.product((1, -1), repeat=len(factors)):
        p = IDENTITY
        for f, s in zip(factors, signs):
            p = p * (f if s == 1 else f.inverse())
        out.add(p)
    return frozenset(out)


class TestSignKernel:
    """The sign search on the indexed difference table."""

    def test_search_matches_plain_recursion(self):
        # products of absolute values: valid, with long searches where most
        # levels have one sign ruled out; and random joins, mostly invalid
        rng = random.Random(63)
        short = sorted(w for w in ball(2, 2) if w != IDENTITY)
        family = [product_of_absolutes(rng.sample(short, 3)) for _ in range(12)]
        family += random_joins(64, 60)
        # a join holding some w and w^-1 is decided before any search
        family = [S for S in family if not any(w.inverse() in S for w in S)]
        long_searches = 0
        for S in family:
            valid, signs, order, assignments, nodes = plain_sign_search(S)
            verdict = decide_valid_lg(S)
            assert isinstance(verdict, LgValid) == valid, sorted(map(str, S))
            assert verdict.nodes_explored == nodes, sorted(map(str, S))
            if assignments is not None:
                assert verdict.assignments_checked == assignments
            if not valid:
                assert (verdict.signs, verdict.order) == (signs, order)
            long_searches += nodes > 1000
        assert long_searches >= 3

    def test_systems_match_word_level(self):
        rng = random.Random(61)
        family = small_family() + random_joins(62, 40)
        pools = {k: sorted(w for w in ball(k, 3) if w != IDENTITY) for k in (2, 3)}
        family += [frozenset(rng.sample(pools[k], 3)) for k in (2, 3) for _ in range(40)]
        for S in family:
            expected = word_level_system(S)
            assert build_difference_system(S) == expected, sorted(map(str, S))
            verdict = decide_valid_lg(S)
            if isinstance(verdict, LgInvalid):
                assert verdict.system == expected, sorted(map(str, S))

    def test_verdicts_pinned(self):
        # sha256 over repr of every verdict, recorded from the Word-level
        # difference system the indexed table replaced
        family = small_family() + random_joins(2024, 300)
        text = "\n".join(repr(decide_valid_lg(S)) for S in family)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bfb27acea7f6bfb4efae13d86edd63e3665f55a499c263f91a29c0f888c1bce2"
        )


class TestClaySmith:
    def test_not_extendable(self):
        assert clay_smith(words("x*x, y*y, x^-1*y^-1"), 2) is None

    def test_extendable_with_expected_witness(self):
        t = clay_smith(words("x*x, x*y, y*x^-1"), 2)
        assert t is not None
        assert t.l == 2
        assert t.positives == words("x*x, x*y, y*x^-1, y*x, y*y, x, y")

    def test_rank_one_singleton(self):
        t = clay_smith({W("x", 1)}, 1)
        assert t is not None
        assert t.positives == {W("x", 1)}

    def test_empty_set(self):
        t = clay_smith(frozenset(), 2)
        assert t is not None
        assert t.l == 1 and t.positives == frozenset()

    def test_identity_never_extends(self):
        assert clay_smith({IDENTITY}, 2) is None

    def test_witnesses_satisfy_invariants(self):
        for S in small_family(2):
            t = clay_smith(S, 2)
            if t is not None:
                check_truncated_invariants(t)

    def test_duality(self):
        for S in small_family():
            flipped = frozenset(w.inverse() for w in S)
            assert (clay_smith(S, 2) is None) == (clay_smith(flipped, 2) is None)


class TestDeciderAgreement:
    def test_exhaustive_family(self):
        for S in small_family():
            lg = decide_valid_lg(S)
            cs = clay_smith(S, 2)
            assert isinstance(lg, LgValid) == (cs is None), sorted(map(str, S))

    def test_random_longer_words_across_ranks(self):
        rng = random.Random(101)
        for _ in range(150):
            k = rng.choice([1, 2, 2, 3])
            pool = sorted(w for w in ball(k, 3) if w != IDENTITY)
            S = frozenset(rng.sample(pool, rng.randint(1, 3)))
            lg = decide_valid_lg(S)
            cs = clay_smith(S, k)
            assert isinstance(lg, LgValid) == (cs is None), (k, sorted(map(str, S)))


class TestPLAutomorphism:
    def test_identity_map(self):
        f = PLAutomorphism()
        assert f(Fraction(5, 3)) == Fraction(5, 3)

    def test_tails_and_interpolation(self):
        f = PLAutomorphism(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(5))))
        assert f(Fraction(-1)) == Fraction(0)
        assert f(Fraction(1)) == Fraction(3)
        assert f(Fraction(4)) == Fraction(7)
        g = f.inverse()
        for p in (Fraction(-3), Fraction(1, 2), Fraction(7, 3), Fraction(9)):
            assert g(f(p)) == p

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            PLAutomorphism(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))


class TestCounterexampleAutomorphisms:
    def test_inverse_generator(self):
        verdict = decide_valid_lg({W("x^-1")})
        assert verdict.order == (W("x^-1"), IDENTITY)
        autos = counterexample_automorphisms({W("x^-1")}, verdict.order, 2)
        assert autos[1].breakpoints == ((Fraction(0), Fraction(1)),)
        assert evaluate_pl(autos, W("x^-1"), Fraction(1)) == Fraction(0)

    def test_square(self):
        verdict = decide_valid_lg({W("x*x")})
        autos = counterexample_automorphisms({W("x*x")}, verdict.order, 2)
        assert autos[1].breakpoints == (
            (Fraction(1), Fraction(0)),
            (Fraction(2), Fraction(1)),
        )
        assert evaluate_pl(autos, W("x*x"), Fraction(2)) == Fraction(0)

    def test_identity_word_evaluates_trivially(self):
        autos = {1: PLAutomorphism(), 2: PLAutomorphism()}
        assert evaluate_pl(autos, IDENTITY, Fraction(7)) == Fraction(7)

    def test_rejects_broken_order(self):
        # (x, xx, e) makes the generator pairs (0, 1) and (2, 0): not monotone
        with pytest.raises(WitnessError):
            counterexample_automorphisms(
                {W("x*x")}, (W("x"), W("x*x"), IDENTITY), 2
            )
        # an order over the wrong node set is caught up front
        verdict = decide_valid_lg(words("x*x, x*y"))
        with pytest.raises(WitnessError):
            counterexample_automorphisms(words("x*x, x*y"), verdict.order[:-1], 2)

    def test_every_invalid_witness_moves_joins_down(self):
        for S in small_family(2):
            verdict = decide_valid_lg(S)
            if isinstance(verdict, LgInvalid):
                autos = counterexample_automorphisms(S, verdict.order, 2)
                rank = {w: Fraction(i) for i, w in enumerate(verdict.order)}
                for t in S:
                    value = evaluate_pl(autos, t, rank[IDENTITY])
                    assert value == rank[t]
                    assert value < rank[IDENTITY]


class TestFindBifurcation:
    def test_singleton(self):
        assert find_bifurcation({W("x")}, 2, 1) == W("y")

    def test_empty(self):
        assert find_bifurcation(frozenset(), 2, 1) == W("x")

    def test_worked_extendable_set(self):
        T = words("x*x, x*y, y*x^-1")
        s = find_bifurcation(T, 2, 3)
        assert s == W("x^-1*y")
        assert clay_smith(T | {s}, 2) is not None
        assert clay_smith(T | {s.inverse()}, 2) is not None

    def test_rejects_non_extendable_base(self):
        with pytest.raises(ValueError):
            find_bifurcation(words("x, x^-1"), 2, 2)
