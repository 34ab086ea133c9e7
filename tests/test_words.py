import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ellgroups.words import (
    IDENTITY,
    DifferenceClass,
    Word,
    _code,
    _prefix_codes,
    ball,
    concat_reduce,
    difference_classes,
    difference_table,
    initial_subterms,
    invert,
    render_word,
    word,
)
from ellgroups.terms import parse_group_word


def W(s, k=3):
    return parse_group_word(s, k)


def reduced_words(k=2, max_len=6):
    """Random reduced words built letter by letter, never cancelling."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_len))
        letters = []
        for _ in range(n):
            options = [l for g in range(1, k + 1) for l in (g, -g)]
            if letters:
                options = [l for l in options if l != -letters[-1]]
            letters.append(draw(st.sampled_from(options)))
        return Word(tuple(letters))

    return build()


def naive_concat(a: Word, b: Word) -> Word:
    # push-and-cancel oracle, one letter at a time
    out = []
    for l in a.letters + b.letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return Word(tuple(out))


class TestConcatReduce:
    def test_cancel_to_identity(self):
        assert W("x") * W("x^-1") == IDENTITY

    def test_partial_cancel(self):
        assert W("x*y") * W("y^-1*x") == W("x*x")

    def test_cross_checked_against_naive_oracle(self):
        a, b = W("y*x^-1"), W("x*y")
        expected = naive_concat(a, b)
        assert expected == W("y*y")
        assert a * b == expected

    @given(reduced_words(), reduced_words())
    def test_matches_naive_oracle(self, a, b):
        assert concat_reduce(a, b) == naive_concat(a, b)

    @given(reduced_words(), reduced_words())
    def test_length_and_parity(self, a, b):
        c = a * b
        assert len(c) <= len(a) + len(b)
        assert (len(a) + len(b)) % 2 == len(c) % 2

    @given(reduced_words(), reduced_words(), reduced_words())
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestInvert:
    def test_examples(self):
        assert invert(W("x*y")) == W("y^-1*x^-1")
        assert invert(IDENTITY) == IDENTITY
        assert invert(W("x^-1*y*x")) == W("x^-1*y^-1*x")

    @given(reduced_words())
    def test_involution_and_cancellation(self, a):
        assert invert(invert(a)) == a
        assert a * invert(a) == IDENTITY


class TestWordConstruction:
    def test_word_reduces(self):
        assert word([1, 2, -2, -1]) == IDENTITY
        assert word([1, 1, -1]) == Word((1,))

    def test_rejects_unreduced_literal(self):
        with pytest.raises(ValueError):
            Word((1, -1))
        with pytest.raises(ValueError):
            Word((0,))

    def test_rendering(self):
        assert render_word(IDENTITY) == "e"
        assert render_word(Word((1, -2, 4))) == "x*y^-1*x4"


class TestInitialSubterms:
    def test_examples(self):
        assert initial_subterms({W("x*x")}) == {IDENTITY, W("x"), W("x*x")}
        assert initial_subterms(set()) == {IDENTITY}
        assert initial_subterms({W("x^-1*y^-1")}) == {
            IDENTITY,
            W("x^-1"),
            W("x^-1*y^-1"),
        }

    @given(st.sets(reduced_words(), max_size=4))
    def test_contains_identity_and_inputs_and_prefix_closed(self, words):
        subs = initial_subterms(words)
        assert IDENTITY in subs
        assert words <= subs
        for w in subs:
            for i in range(len(w.letters)):
                assert Word(w.letters[:i]) in subs


class TestDifferenceClasses:
    def test_power_word(self):
        classes = difference_classes({W("x*x")})
        assert [c.rep for c in classes] == [W("x"), W("x*x")]
        by_rep = {c.rep: set(c.oriented_pairs) for c in classes}
        assert by_rep[W("x")] == {(W("x"), IDENTITY), (W("x*x"), W("x"))}
        assert by_rep[W("x*x")] == {(W("x*x"), IDENTITY)}

    def test_single_generator(self):
        classes = difference_classes({W("x")})
        assert len(classes) == 1
        assert classes[0].rep == W("x")
        assert classes[0].oriented_pairs == ((W("x"), IDENTITY),)

    def test_two_letter_word(self):
        # pairs of is({xy}) = {e, x, xy}; each quotient u*v^-1 oriented
        # toward the smaller of the two mutually inverse values
        classes = difference_classes({W("x*y")})
        by_rep = {c.rep: set(c.oriented_pairs) for c in classes}
        assert set(by_rep) == {W("x"), W("x*y"), W("x*y*x^-1")}
        assert by_rep[W("x*y*x^-1")] == {(W("x*y"), W("x"))}

    @given(st.sets(reduced_words(max_len=4), min_size=1, max_size=3))
    def test_pair_enumeration_oracle(self, words):
        # independent oracle: enumerate ordered pairs directly
        nodes = sorted(initial_subterms(words))
        classes = difference_classes(words)
        seen_pairs = set()
        for cls in classes:
            assert cls.rep != IDENTITY
            assert cls.rep < cls.rep.inverse()
            for u, v in cls.oriented_pairs:
                assert u * v.inverse() == cls.rep
                seen_pairs.add(frozenset((u, v)))
        expected = {
            frozenset((u, v))
            for u, v in itertools.combinations(nodes, 2)
        }
        assert seen_pairs == expected

    @given(st.sets(reduced_words(max_len=4), min_size=1, max_size=3))
    def test_reps_closed_under_choice(self, words):
        reps = {c.rep for c in difference_classes(words)}
        for rep in reps:
            assert rep.inverse() not in reps


def word_level_difference_classes(words):
    # the construction the indexed table replaced: the quotient of every
    # pair of sorted prefixes through concat_reduce, oriented toward the
    # smaller of d and d^-1, pairs sorted by word order
    nodes = sorted(initial_subterms(words))
    by_rep = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            d = concat_reduce(u, v.inverse())
            rep, pair = (d.inverse(), (v, u)) if d.inverse() < d else (d, (u, v))
            by_rep.setdefault(rep, []).append(pair)
    return [
        DifferenceClass(rep, tuple(sorted(by_rep[rep]))) for rep in sorted(by_rep)
    ]


def punctured_ball_subsets(k, radius, max_size):
    elems = sorted(w for w in ball(k, radius) if w != IDENTITY)
    return [
        frozenset(c)
        for r in range(1, max_size + 1)
        for c in itertools.combinations(elems, r)
    ]


class TestDifferenceTable:
    """The indexed table against the word-level construction above."""

    def test_layout(self):
        nodes, reps, pairs = difference_table([(1, 1)])
        assert nodes == [(), (1,), (1, 1)]
        assert reps == [(1,), (1, 1)]
        assert pairs == [[(1, 0), (2, 1)], [(2, 0)]]

    def test_words_never_built(self, monkeypatch):
        def no_words(self):
            raise AssertionError("Word built")

        monkeypatch.setattr(Word, "__post_init__", no_words)
        nodes, reps, pairs = difference_table([(1, -2, 1), (2, 2, -1)])
        assert len(nodes) == 7 and sum(map(len, pairs)) == 21

    def test_radius_two_family(self):
        for S in punctured_ball_subsets(2, 2, 3):
            assert difference_classes(S) == word_level_difference_classes(S), S

    @pytest.mark.parametrize("k", [2, 3])
    def test_radius_three_samples(self, k):
        rng = random.Random(40 + k)
        family = punctured_ball_subsets(k, 3, 2)
        for S in rng.sample(family, 300):
            assert difference_classes(S) == word_level_difference_classes(S), S

    @given(
        st.integers(2, 3).flatmap(
            lambda k: st.sets(reduced_words(k, max_len=5), min_size=1, max_size=6)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_joins(self, words):
        assert difference_classes(words) == word_level_difference_classes(words)


def letter_level_difference_table(words):
    # the table before integer codes: each pair's quotient p*q^-1 found by a
    # common-suffix scan and oriented by comparing per-letter code tuples
    prefixes = {()}
    for w in words:
        prefixes.update(w[:i] for i in range(1, len(w) + 1))
    keyed = sorted((len(t), tuple(map(_code, t)), t) for t in prefixes)
    nodes = [t for _, _, t in keyed]
    codes = [c for _, c, _ in keyed]
    inverse_codes = [tuple(_code(-l) for l in reversed(t)) for t in nodes]
    by_rep = {}
    rows = list(zip(range(len(nodes)), nodes, codes, inverse_codes))
    for i, u, u_code, u_inverse in rows:
        nu = len(u)
        for j, v, v_code, v_inverse in rows[i + 1 :]:
            c = 0
            while c < nu and u[nu - 1 - c] == v[-1 - c]:
                c += 1
            d = u_code[: nu - c] + v_inverse[c:]
            d_inverse = v_code[: len(v) - c] + u_inverse[c:]
            if d_inverse < d:
                by_rep.setdefault(d_inverse, []).append((j, i))
            else:
                by_rep.setdefault(d, []).append((i, j))
    reps = sorted(by_rep, key=lambda r: (len(r), r))
    letter = {_code(l): l for t in nodes for x in t for l in (x, -x)}.__getitem__
    return (
        nodes,
        [tuple(map(letter, r)) for r in reps],
        [sorted(by_rep[r]) for r in reps],
    )


def prefix_code(w, k):
    # the code difference_table gives the word over F(k), its inverse's
    # code and base**len
    steps = [((), 0, 0, 1), *_prefix_codes(w.letters, 2 * k + 2)]
    return steps[-1][1:]


class TestIntegerCodes:
    """Words as integers in difference_table, against the letter-level table."""

    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(
                st.just(k), st.lists(reduced_words(k, max_len=7), min_size=2, max_size=8)
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_codes_injective_and_ordered(self, case):
        k, ws = case
        coded = {w: prefix_code(w, k) for w in ws}
        for w, (code, inverse, power) in coded.items():
            assert inverse == prefix_code(w.inverse(), k)[0]
            assert power == (2 * k + 2) ** len(w)
        for a, b in itertools.combinations(coded, 2):
            assert (coded[a][0] == coded[b][0]) == (a == b)
            assert (coded[a][0] < coded[b][0]) == (a.key < b.key)

    def test_radius_two_family(self):
        for S in punctured_ball_subsets(2, 2, 3):
            letters = [w.letters for w in S]
            assert difference_table(letters) == letter_level_difference_table(letters), S

    def test_seeded_rank_three_joins(self):
        rng = random.Random(3)
        pool = sorted(w for w in ball(3, 5) if w != IDENTITY)
        for _ in range(300):
            letters = [w.letters for w in rng.sample(pool, rng.randint(1, 6))]
            assert difference_table(letters) == letter_level_difference_table(letters)


class TestBall:
    def test_radius_one(self):
        b = ball(2, 1)
        assert b == {IDENTITY, W("x"), W("x^-1"), W("y"), W("y^-1")}

    def test_radius_two_count(self):
        assert len(ball(2, 2)) == 17  # 1 + 4 + 4*3

    def test_rank_one(self):
        b = ball(1, 3)
        assert b == {
            IDENTITY,
            Word((1,)),
            Word((-1,)),
            Word((1, 1)),
            Word((-1, -1)),
            Word((1, 1, 1)),
            Word((-1, -1, -1)),
        }

    @given(st.integers(1, 3), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_count_formula(self, k, l):
        expected = 1 + sum(2 * k * (2 * k - 1) ** (i - 1) for i in range(1, l + 1))
        b = ball(k, l)
        assert len(b) == expected
        assert all(len(w) <= l for w in b)
