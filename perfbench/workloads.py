"""The four seeded workloads: inputs, the timed operation, and the checks.

Each workload makes its inputs from a ``random.Random`` seeded by the
caller, times one verdict per operation through the program's public
functions, and re-verifies every output afterwards with ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys

import checks

# A pool's size does not depend on the run's length, so that set-up time
# does not either. It holds about 1.5 times the verdicts a 20-s run makes
# on a 2-core x86 host, so that such a run seldom repeats an input.


def random_word(rng: random.Random, k: int, length: int) -> tuple:
    out: list[int] = []
    while len(out) < length:
        l = rng.randrange(1, k + 1) * rng.choice((1, -1))
        if not out or out[-1] != -l:
            out.append(l)
    return tuple(out)


class XvalR3:
    """Subsets of 1-3 words of the punctured radius-3 ball of F(2), each
    decided by both complete deciders.

    The pool is a systematic sample of the 23,478 subsets in canonical
    order (every k-th from a seeded offset), shuffled: each run sees every
    size and every leading word in proportion, which keeps the mix, and so
    the figures, steadier across seeds than a random draw.
    """

    name = "xval-r3"
    reference = "plain"  # the reference loop of run.py
    tail_percentile = 90
    pool_size = 3000

    def inputs(self, mods, rng, count):
        Word = mods["words"].Word
        elems = sorted(w for w in mods["words"].ball(2, 3) if w.letters)
        family = [c for r in (1, 2, 3) for c in itertools.combinations(range(len(elems)), r)]
        step = max(1, len(family) // count)
        pool = [frozenset(Word(elems[i].letters) for i in c)
                for c in family[rng.randrange(step)::step]]
        rng.shuffle(pool)
        return pool

    def operation(self, mods):
        ro = mods["rightorder"]
        return lambda subset: (ro.decide_valid_lg(subset), ro.clay_smith(subset, 2))

    def check(self, mods, subset, output, rng):
        sign, truncated = output
        words = [w.letters for w in subset]
        valid = isinstance(sign, mods["rightorder"].LgValid)
        if valid != (truncated is None):
            return ["the two complete deciders disagree"]
        if valid:
            return []
        return checks.check_sign_witness(
            words, [w.letters for w in sign.order]
        ) + checks.check_truncated_order(
            words, [w.letters for w in truncated.positives], truncated.l, 2
        )


class LgJoins:
    """Join sets of 4-6 random reduced words of length 3-5 in F(2), decided
    by the sign search alone."""

    name = "lg-joins"
    reference = "plain"  # the reference loop of run.py
    tail_percentile = 90
    assignments_per_valid = 4
    pool_size = 4000

    def inputs(self, mods, rng, count):
        Word = mods["words"].Word
        pool = []
        for _ in range(count):
            n = rng.choice((4, 5, 6))
            join: set = set()
            while len(join) < n:
                join.add(Word(random_word(rng, 2, rng.choice((3, 4, 5)))))
            pool.append(frozenset(join))
        return pool

    def operation(self, mods):
        ro = mods["rightorder"]
        return lambda join: ro.decide_valid_lg(join)

    def check(self, mods, join, output, rng):
        words = [w.letters for w in join]
        if isinstance(output, mods["rightorder"].LgValid):
            return checks.check_cyclic_assignments(
                words, rng, self.assignments_per_valid
            )
        return checks.check_sign_witness(words, [w.letters for w in output.order])


class AbelianZ2:
    """All 18,472 sets of 1-3 nonzero vectors of {-3..3}^2, in a seeded order,
    decided by the exact abelian dichotomy."""

    name = "abelian-z2"
    reference = "plain"  # the reference loop of run.py
    tail_percentile = 99
    pool_size = 18472

    def inputs(self, mods, rng, count):
        points = [p for p in itertools.product(range(-3, 4), repeat=2) if p != (0, 0)]
        family = [c for r in (1, 2, 3) for c in itertools.combinations(points, r)]
        rng.shuffle(family)
        return family[:count]

    def operation(self, mods):
        bo = mods["biorder"]
        return lambda vectors: bo.decide_abelian_order_extension(vectors, 2)

    def check(self, mods, vectors, output, rng):
        extends = isinstance(output, mods["biorder"].ExtendsToOrder)
        witness = output.functional if extends else output.combination
        return checks.check_abelian(vectors, extends, witness)


# ------------------------------------------------------------------ cli-mixed


def _inv(t):
    return ("inv", t)


def _mul(*ts):
    out = ts[0]
    for t in ts[1:]:
        out = ("mul", out, t)
    return out


def _join(a, b):
    return ("join", a, b)


def _meet(a, b):
    return ("meet", a, b)


E = ("e",)


def _abs(t):
    return _join(t, _inv(t))


# ℓ-group laws, valid in every variety, and non-laws; each takes the three
# substituted words a, b, c and returns (relation, left, right)
LAWS = {
    "meet-below-join": lambda a, b, c: ("<=", _meet(a, b), _join(a, b)),
    "abs-positive": lambda a, b, c: ("<=", E, _abs(a)),
    "left-distributive": lambda a, b, c: (
        "=", _mul(a, _join(b, c)), _join(_mul(a, b), _mul(a, c))),
    "inverse-duality": lambda a, b, c: (
        "=", _inv(_join(a, b)), _meet(_inv(a), _inv(b))),
    "lattice-distributive": lambda a, b, c: (
        "=", _join(a, _meet(b, c)), _meet(_join(a, b), _join(a, c))),
    "positive-negative-parts": lambda a, b, c: (
        "=", _mul(_join(a, E), _meet(a, E)), a),
    "abs-product-2": lambda a, b, c: ("<=", E, _mul(_abs(a), _abs(b))),
    "abs-product-3": lambda a, b, c: ("<=", E, _mul(_abs(a), _abs(b), _abs(c))),
}
NON_LAWS = {
    "join-positive": lambda a, b, c: ("<=", E, _join(a, b)),
    "commute": lambda a, b, c: ("<=", _mul(a, b), _mul(b, a)),
    "skew-join": lambda a, b, c: ("<=", E, _join(_mul(a, b), _mul(b, _inv(a)))),
    "join-absorbs": lambda a, b, c: ("=", _join(a, b), a),
    "squares": lambda a, b, c: (
        "<=", E, _join(_join(_mul(a, a), _mul(b, b)), _inv(_mul(a, b)))),
}

# (variety, group, templates). Pairings that take seconds under the
# default budgets are left out, so that every statement is decided well
# within a second; so is join-positive over zn:2 and klein, whose
# exhausted derivation search (20-40 ms, outliers over 150 ms) made 90%
# of the workload's cost variance and moved its throughput by 12% from
# run to run.
_ALL_BUT_ABS = [n for n in LAWS if not n.startswith("abs-product")]
_NON = list(NON_LAWS)
_PRESENTED = _ALL_BUT_ABS + ["abs-product-2", "commute", "join-absorbs", "squares"]
CASES = (
    ("lg", "free:2", list(LAWS) + _NON),
    ("lg", "free:3", _ALL_BUT_ABS + _NON),
    ("lg", "zn:2", _PRESENTED),
    ("lg", "klein", _PRESENTED),
    ("rg", "free:2", _ALL_BUT_ABS + _NON),
    ("abelian", "zn:2", list(LAWS) + _NON),
    ("abelian", "zn:3", list(LAWS) + _NON),
)


class CliMixed:
    """Statements through ``ellgroups.cli.main`` in process."""

    name = "cli-mixed"
    reference = "cli"  # the reference loop of run.py
    tail_percentile = 90
    assignments_per_valid = 4
    pool_size = 8000

    def __init__(self):
        # certificate text -> verdict of `certificate check`; the same
        # certificate recurs often and is re-checked once per run
        self._accepted: dict = {}

    def inputs(self, mods, rng, count):
        """Statements of every (variety, group) pair in turn, and of each
        pair's templates in turn, with seeded words, then shuffled: every
        seed has the same mix of cases, which steadies the figures."""
        pool = []
        for i in range(count):
            variety, group, names = CASES[i % len(CASES)]
            name = names[i // len(CASES) % len(names)]
            law = name in LAWS
            k = 2 if group == "klein" else int(group.split(":")[1])
            words = [random_word(rng, k, rng.choice((1, 2))) for _ in range(3)]
            template = LAWS[name] if law else NON_LAWS[name]
            stmt = template(*(checks.word_term(w) for w in words))
            argv = ["decide", "--variety", variety, "--group", group,
                    checks.render_statement(stmt)]
            pool.append((argv, stmt, group, law))
        rng.shuffle(pool)
        return pool

    def operation(self, mods):
        cli = mods["cli"]

        def decide(case):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(case[0])
            return code, out.getvalue()

        return decide

    def check(self, mods, case, output, rng):
        argv, stmt, group, law = case
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        verdict = doc["verdict"]
        if verdict == "invalid":
            if law:
                return ["a law instance came out invalid"]
            return self._check_invalid(argv[2], group, stmt, doc)
        if verdict != "valid":
            return [f"verdict {verdict}"]
        got = {frozenset(map(checks.parse_word, e["join"])) for e in doc["certificate"]}
        if got != checks.statement_joinsets(stmt):
            return ["the decided join sets differ from the statement's normal form"]
        problems = []
        for entry in doc["certificate"]:
            problems += self._check_valid_join(mods, group, entry, rng)
        return problems

    def _check_invalid(self, variety, group, stmt, doc):
        witness = doc["witness"]
        if variety == "rg":
            return checks.check_magnus_refutation(stmt, witness)
        if group == "klein":
            return checks.check_klein_refutation(stmt, witness)
        if group.startswith("zn:"):
            return checks.check_int_refutation(stmt, witness["functional"])
        join = [checks.parse_word(w) for w in doc["join"]]
        order = [checks.parse_word(w) for w in witness["order"]]
        return checks.check_sign_witness(join, order) + checks.check_pl_refutation(
            stmt, witness
        )

    def _check_valid_join(self, mods, group, entry, rng):
        join = [checks.parse_word(w) for w in entry["join"]]
        images = {checks.canonical(group, w) for w in join}
        cert = entry.get("certificate")
        if cert is not None and "system" in cert:
            conclusion = {
                checks.canonical(group, checks.parse_word(w))
                for w in cert["conclusion"]
            }
            if not conclusion <= images:
                return ["certificate concludes elements outside the join"]
            return self._recheck_certificate(mods, group, cert)
        if cert is not None:
            return checks.check_combination(
                images, [(tuple(c["vector"]), c["count"]) for c in cert["combination"]]
            )
        method = entry.get("method")
        if method == "identity":
            if not any(checks.is_identity(group, g) for g in images):
                return ["identity verdict without the identity in the join"]
            return []
        if method == "klein-orders":
            for eps in checks.KLEIN_CONES:
                if all(checks.klein_sign(g, eps) == 1 for g in images):
                    return ["a right order of the Klein group contains the join"]
            return []
        if method is None and group.startswith("free:"):
            return checks.check_cyclic_assignments(
                join, rng, self.assignments_per_valid
            )
        return [f"valid verdict without an artifact ({method})"]

    def _recheck_certificate(self, mods, group, cert):
        doc = json.dumps(cert, sort_keys=True)
        if (group, doc) not in self._accepted:
            out = io.StringIO()
            saved, sys.stdin = sys.stdin, io.StringIO(doc)
            try:
                with contextlib.redirect_stdout(out):
                    code = mods["cli"].main(["certificate", "check", "--group", group, "-"])
            finally:
                sys.stdin = saved
            self._accepted[group, doc] = code == 0 and json.loads(out.getvalue())["accepted"]
        if not self._accepted[group, doc]:
            return ["certificate rejected by `certificate check`"]
        return []


WORKLOADS = {w.name: w for w in (XvalR3(), LgJoins(), AbelianZ2(), CliMixed())}
