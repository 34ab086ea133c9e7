import random

import pytest
from hypothesis import given, settings, strategies as st

from ellgroups.terms import (
    Identity,
    Inv,
    Join,
    Meet,
    ParseError,
    Prod,
    Statement,
    Var,
    equation_to_joinsets,
    inequation_to_joinsets,
    parse_group_word,
    parse_statement,
    parse_term,
    parse_word_set,
    render,
    statement_to_joinsets,
    to_meet_of_joins,
    tokenize,
)
from ellgroups.words import IDENTITY, Word

import term_oracles as oracles


def W(s, k=2):
    return parse_group_word(s, k)


X, Y, Z = Var(1), Var(2), Var(3)


class TestParse:
    def test_inequation(self):
        stmt = parse_statement(r"e <= x \/ y*x^-1*y^-1", 2)
        assert stmt == Statement(
            "<=",
            Identity(),
            Join(X, Prod(Prod(Y, Inv(X)), Inv(Y))),
        )

    def test_meet(self):
        assert parse_term(r"x /\ y", 2) == Meet(X, Y)

    def test_double_star_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_term("x**y", 2)
        assert exc.value.position == 2

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_term("x * ", 2)
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse_term("x $ y", 2)

    def test_rank_checking(self):
        with pytest.raises(ParseError):
            parse_term("z", 2)
        with pytest.raises(ParseError):
            parse_term("x7", 3)
        assert parse_term("x7", 7) == Var(7)
        assert parse_term("x2", 2) == Y

    def test_meet_is_outermost(self):
        # per the grammar, join binds tighter than meet
        assert parse_term(r"x \/ y /\ z", 3) == Meet(Join(X, Y), Z)
        assert parse_term(r"x /\ y \/ z", 3) == Meet(X, Join(Y, Z))

    def test_inverse_binds_tightest(self):
        assert parse_term("x*y^-1", 2) == Prod(X, Inv(Y))
        assert parse_term("(x*y)^-1", 2) == Inv(Prod(X, Y))
        assert parse_term("x^-1^-1", 2) == Inv(Inv(X))

    def test_word_set_literal(self):
        assert parse_word_set("{x*x, x*y, y*x^-1}", 2) == {
            W("x*x"),
            W("x*y"),
            W("y*x^-1"),
        }
        assert parse_word_set("{}", 2) == frozenset()
        assert parse_word_set("{e}", 2) == {IDENTITY}

    def test_long_flat_product(self):
        # the left-nested chain of 3,000 factors is read in a loop
        text = "*".join(["x"] * 1500 + ["y^-1", "y"] * 750)
        assert parse_word_set("{" + text + "}", 2) == {Word((1,) * 1500)}
        assert parse_group_word(text, 2) == Word((1,) * 1500)

    def test_word_set_rejects_lattice_ops(self):
        with pytest.raises(ParseError):
            parse_word_set(r"{x \/ y}", 2)


def term_strategy(rank=2, max_leaves=10):
    leaves = st.one_of(
        st.just(Identity()),
        st.builds(Var, st.integers(1, rank)),
    )
    return st.recursive(
        leaves,
        lambda ch: st.one_of(
            st.builds(Inv, ch),
            st.builds(Prod, ch, ch),
            st.builds(Meet, ch, ch),
            st.builds(Join, ch, ch),
        ),
        max_leaves=max_leaves,
    )


class TestRenderRoundTrip:
    @given(term_strategy())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, t):
        assert parse_term(render(t), 2) == t


ZZ2 = tuple  # points of the lattice-ordered group Z^2


def eval_term(t, env: dict[int, tuple[int, int]]) -> tuple[int, int]:
    if isinstance(t, Identity):
        return (0, 0)
    if isinstance(t, Var):
        return env[t.index]
    if isinstance(t, Inv):
        a = eval_term(t.arg, env)
        return (-a[0], -a[1])
    a, b = eval_term(t.left, env), eval_term(t.right, env)
    if isinstance(t, Prod):
        return (a[0] + b[0], a[1] + b[1])
    if isinstance(t, Meet):
        return (min(a[0], b[0]), min(a[1], b[1]))
    return (max(a[0], b[0]), max(a[1], b[1]))


def eval_word(w: Word, env) -> tuple[int, int]:
    out = (0, 0)
    for l in w.letters:
        v = env[abs(l)]
        if l < 0:
            v = (-v[0], -v[1])
        out = (out[0] + v[0], out[1] + v[1])
    return out


def eval_moj(joins, env) -> tuple[int, int]:
    join_values = []
    for join in joins:
        vals = [eval_word(w, env) for w in join]
        join_values.append((max(v[0] for v in vals), max(v[1] for v in vals)))
    return (
        min(v[0] for v in join_values),
        min(v[1] for v in join_values),
    )


class TestMeetOfJoins:
    def test_inverse_of_join(self):
        moj = to_meet_of_joins(Inv(Join(X, Y)))
        assert moj == (frozenset({W("x^-1")}), frozenset({W("y^-1")}))

    def test_product_over_meet(self):
        moj = to_meet_of_joins(Prod(Z, Meet(X, Y)))
        assert moj == (frozenset({W("z*x", 3)}), frozenset({W("z*y", 3)}))

    def test_lattice_distribution(self):
        moj = to_meet_of_joins(Join(Meet(X, Y), Z))
        assert moj == (
            frozenset({W("x", 3), W("z", 3)}),
            frozenset({W("y", 3), W("z", 3)}),
        )
        # spot check on the concrete model
        rng_points = [
            {1: (1, -2), 2: (0, 3), 3: (-1, -1)},
            {1: (2, 2), 2: (-3, 1), 3: (0, 0)},
        ]
        for env in rng_points:
            assert eval_moj(moj, env) == eval_term(Join(Meet(X, Y), Z), env)

    @given(
        term_strategy(max_leaves=8),
        st.lists(
            st.tuples(
                st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            ),
            min_size=20,
            max_size=20,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equivalent_in_concrete_model(self, t, points):
        moj = to_meet_of_joins(t)
        for p1, p2 in points:
            env = {1: p1, 2: p2}
            assert eval_moj(moj, env) == eval_term(t, env)

    @given(term_strategy(max_leaves=8))
    @settings(max_examples=100, deadline=None)
    def test_all_words_reduced_and_joins_nonempty(self, t):
        moj = to_meet_of_joins(t)
        assert moj
        for join in moj:
            assert join
            for w in join:
                # Word construction validates reduction; re-check letters
                for a, b in zip(w.letters, w.letters[1:]):
                    assert a != -b


class TestReductionToJoinsets:
    def test_simple_inequation(self):
        assert inequation_to_joinsets(X, Y) == (frozenset({W("y*x^-1")}),)

    def test_identity_left(self):
        assert inequation_to_joinsets(Identity(), Join(X, Inv(X))) == (
            frozenset({W("x"), W("x^-1")}),
        )

    def test_meet_below_component(self):
        # x /\ y <= x: every join set must decide valid; here each
        # join set contains e after normalization
        joins = inequation_to_joinsets(Meet(X, Y), X)
        assert all(IDENTITY in j for j in joins)

    def test_equation_concat(self):
        joins = equation_to_joinsets(X, X)
        assert all(IDENTITY in j for j in joins)
        assert equation_to_joinsets(Join(X, Y), Join(Y, X)) == (
            equation_to_joinsets(Join(X, Y), Join(Y, X))
        )

    def test_distinct_generators_give_nontrivial_joinset(self):
        joins = inequation_to_joinsets(X, Y)
        assert frozenset({W("y*x^-1")}) in joins


class TestErrorMessages:
    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("e <= x0", "x0 is not a generator", 5),
            ("e <= x00", "x00 is not a generator", 5),
            ("e <= y*x000", "x000 is not a generator", 7),
            ("e <= x4", "variable x4 exceeds rank 3", 5),
            ("e <= x01*x04", "variable x04 exceeds rank 3", 9),
        ],
    )
    def test_generator_named_as_written(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse_statement(text, 3)
        assert str(exc.value) == f"{message} (at offset {position})"
        assert exc.value.position == position


def random_term(rng, rank, depth):
    if depth == 0 or rng.random() < 0.3:
        return Identity() if rng.random() < 0.15 else Var(rng.randint(1, rank))
    node = rng.choice((Inv, Prod, Prod, Meet, Join))
    if node is Inv:
        return Inv(random_term(rng, rank, depth - 1))
    return node(random_term(rng, rank, depth - 1), random_term(rng, rank, depth - 1))


# the spellings of a generator, and the whitespace, of a statement's variants
SPELLINGS = {"x": ("x", "x1", "x01"), "y": ("y", "x2"), "z": ("z", "x3", "x003")}
SPACES = ("", "", " ", "  ", "\t", "\n ")


def respelled(rng, text):
    """The statement written with other generator spellings and other
    whitespace between its tokens."""
    parts = []
    for kind, tok, _ in oracles.tokenize(text)[:-1]:
        parts.append(rng.choice(SPELLINGS[tok]) if kind == "var" else tok)
    return "".join(p + rng.choice(SPACES) for p in parts)


def random_statements(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 3)
        stmt = Statement(
            rng.choice(("<=", "=")),
            random_term(rng, rank, rng.randint(0, 2)),
            random_term(rng, rank, rng.randint(0, 6)),
        )
        yield rank, stmt, respelled(rng, f"{render(stmt.left)} {stmt.relation} {render(stmt.right)}")


class TestAgainstTheEarlierFrontEnd:
    # tests/term_oracles.py holds the regex-loop tokenizer and the Word-level
    # normalization that the one-pass tokenizer and the letter-tuple
    # normalization replaced

    def test_tokens_and_join_sets(self):
        for rank, stmt, text in random_statements(2018, 1000):
            assert tokenize(text) == oracles.tokenize(text)
            parsed = parse_statement(text, rank)
            assert parsed == stmt
            assert statement_to_joinsets(parsed) == oracles.statement_to_joinsets(stmt)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("e <=", "expected a term", 4),
            ("e <= (x", "expected ')'", 7),
            ("e <= x )", "trailing input", 7),
            ("e < x", "unexpected character '<'", 2),
            ("e <= x ^ -1", "unexpected character '^'", 7),
            ("e <= ｘ", "unexpected character 'ｘ'", 5),
            ("e <= x \\ y", "unexpected character '\\\\'", 7),
            ("e <= x*z", "variable z exceeds rank 2", 7),
            ("e = = x", "expected a term", 4),
        ],
    )
    def test_parse_errors(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse_statement(text, 2)
        assert str(exc.value) == f"{message} (at offset {position})"
        assert exc.value.position == position
        try:
            expected = oracles.tokenize(text)
        except ParseError as old:
            with pytest.raises(ParseError) as new:
                tokenize(text)
            assert (str(new.value), new.value.position) == (str(old), old.position)
        else:
            assert tokenize(text) == expected
