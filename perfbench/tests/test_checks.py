"""The benchmark's checkers accept the program's outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

MODS = {
    name: importlib.import_module("ellgroups." + name)
    for name in ("words", "terms", "rightorder", "derivation", "groups", "biorder", "cli")
}
W = checks.parse_word


def test_free_group_arithmetic():
    assert checks.mul(W("x*y"), W("y^-1*x")) == W("x*x")
    assert checks.inv(W("x*y^-1")) == W("y*x^-1")
    assert checks.prefixes([W("x*y")]) == {(), W("x"), W("x*y")}
    assert len(checks.ball(2, 3)) == 53


def test_sign_witness_accepts_decider_output_and_rejects_corruption():
    join = [MODS["words"].Word(W(t)) for t in ("x", "y")]
    verdict = MODS["rightorder"].decide_valid_lg(join)
    words = [w.letters for w in join]
    order = [w.letters for w in verdict.order]
    assert checks.check_sign_witness(words, order) == []
    # e moved to the bottom puts the join words above it
    assert checks.check_sign_witness(words, [()] + [w for w in order if w])
    assert checks.check_sign_witness(words, order[:-1])  # a node missing
    longer = [W("x*y"), W("y^-1")]
    order = [w.letters for w in MODS["rightorder"].decide_valid_lg(
        [MODS["words"].Word(w) for w in longer]).order]
    assert checks.check_sign_witness(longer, order) == []
    # join words below e, but right multiplication by y reverses x < e
    reversed_y = [W("x*y"), W("y^-1"), W("x"), ()]
    problems = checks.check_sign_witness(longer, reversed_y)
    assert problems == ["sign witness: generator 2 does not act increasingly"]


def test_truncated_order_checker():
    words = [W("x*x"), W("x*y")]
    order = MODS["rightorder"].clay_smith([MODS["words"].Word(w) for w in words], 2)
    positives = [w.letters for w in order.positives]
    assert checks.check_truncated_order(words, positives, order.l, 2) == []
    assert checks.check_truncated_order(words, positives + [()], order.l, 2)
    assert checks.check_truncated_order(words, positives + [W("x^-1")], order.l, 2)
    dropped = [w for w in positives if w not in (W("x"), W("x^-1"))]
    assert checks.check_truncated_order(words, dropped, order.l, 2)
    closed_break = [w for w in positives if len(w) < 2 or w in words]
    assert checks.check_truncated_order(words, closed_break, order.l, 2)


def test_cyclic_assignments_reject_an_invalid_join():
    rng = random.Random(0)
    assert checks.check_cyclic_assignments([W("x"), W("x^-1")], rng, 8) == []
    assert checks.check_cyclic_assignments(
        [W("x*x"), W("y*y"), W("x^-1*y^-1")], rng, 8) == []
    assert checks.check_cyclic_assignments([W("x"), W("y")], rng, 20)


def test_abelian_checks():
    assert checks.in_open_half_plane([(1, 0), (0, 1)])
    assert checks.in_open_half_plane([(1, 0), (2, 0)])
    assert not checks.in_open_half_plane([(1, 0), (-1, 0)])
    assert not checks.in_open_half_plane([(1, 0), (-1, 1), (-1, -1)])
    assert not checks.in_open_half_plane([(1, 1), (-1, 0), (0, -1)])
    vs = [(1, 2), (-1, 1)]
    assert checks.check_abelian(vs, True, (0, 1)) == []
    assert checks.check_abelian(vs, True, (1, 0))  # -1 is not positive
    vs = [(1, 0), (-2, 0)]
    assert checks.check_abelian(vs, False, [((1, 0), 2), ((-2, 0), 1)]) == []
    assert checks.check_abelian(vs, False, [((1, 0), 1), ((-2, 0), 1)])
    assert checks.check_abelian(vs, False, [((1, 0), 2), ((2, 0), -1)])
    assert checks.check_abelian([(1, 0)], False, [((1, 0), 0)])


@pytest.mark.parametrize("seed", range(3))
def test_abelian_verdicts_match_half_plane_test(seed):
    workload = workloads.AbelianZ2()
    inputs = workload.inputs(MODS, random.Random(seed), 300)
    op = workload.operation(MODS)
    for vectors in inputs:
        assert workload.check(MODS, vectors, op(vectors), None) == []


def test_lg_joins_valid_verdicts_agree_with_truncated_orders():
    """On short words the truncated-order decider is fast enough to confirm
    the sign search, valid and invalid alike."""
    rng = random.Random(7)
    Word = MODS["words"].Word
    valid = 0
    for _ in range(40):
        join = set()
        while len(join) < rng.choice((4, 5, 6)):
            join.add(Word(workloads.random_word(rng, 2, 3)))
        verdict = MODS["rightorder"].decide_valid_lg(join)
        is_valid = isinstance(verdict, MODS["rightorder"].LgValid)
        assert is_valid == (MODS["rightorder"].clay_smith(join, 2) is None)
        valid += is_valid
    assert 0 < valid < 40


def decide(argv):
    code, text = workloads.CliMixed().operation(MODS)((argv, None, None, None))
    assert code == 0
    return json.loads(text)


X, Y = ("x", 1), ("x", 2)


def test_pl_refutation_rejects_a_broken_witness():
    stmt = ("<=", ("e",), ("join", X, Y))
    doc = decide(["decide", checks.render_statement(stmt)])
    assert checks.check_pl_refutation(stmt, doc["witness"]) == []
    identity = dict(doc["witness"])
    identity["automorphisms"] = [
        {"gen": a["gen"], "breakpoints": []} for a in doc["witness"]["automorphisms"]
    ]
    assert checks.check_pl_refutation(stmt, identity)


def test_int_klein_magnus_refutations_reject_broken_witnesses():
    stmt = ("<=", ("e",), ("join", X, Y))
    text = checks.render_statement(stmt)
    doc = decide(["decide", "--group", "zn:2", text])
    assert checks.check_int_refutation(stmt, doc["witness"]["functional"]) == []
    assert checks.check_int_refutation(
        stmt, [-c for c in doc["witness"]["functional"]])
    doc = decide(["decide", "--group", "klein", text])
    assert checks.check_klein_refutation(stmt, doc["witness"]) == []
    assert checks.check_klein_refutation(stmt, {"epsilon": [-1, -1]})
    doc = decide(["decide", "--variety", "rg", text])
    assert checks.check_magnus_refutation(stmt, doc["witness"]) == []
    flipped = dict(doc["witness"], sign="neg")
    assert checks.check_magnus_refutation(stmt, flipped)


def test_magnus_sign_of_a_commutator_is_resolved():
    commutator = W("x*y*x^-1*y^-1")
    assert checks.magnus_sign(commutator, (1, 1), (1, 2)) in (1, -1)
    assert checks.magnus_sign((), (1, 1), (1, 2)) == 0


def test_normal_form_matches_the_program():
    workload = workloads.CliMixed()
    for case in workload.inputs(MODS, random.Random(3), 200):
        argv, stmt = case[0], case[1]
        parsed = MODS["terms"].parse_statement(argv[-1], 3)
        program = {
            frozenset(w.letters for w in j)
            for j in MODS["terms"].statement_to_joinsets(parsed)
        }
        assert program == checks.statement_joinsets(stmt)


def test_cli_checker_rejects_corrupted_outputs():
    workload = workloads.CliMixed()
    rng = random.Random(0)
    law = workloads.LAWS["abs-positive"](X, Y, Y)
    case = (["decide", "--variety", "rg", "--group", "free:2",
             checks.render_statement(law)], law, "free:2", True)
    code, text = workload.operation(MODS)(case)
    assert workload.check(MODS, case, (code, text), rng) == []
    doc = json.loads(text)
    cert = doc["certificate"][0]["certificate"]
    cert["data"]["element"] = "y"
    assert workload.check(MODS, case, (code, json.dumps(doc)), rng)
    doc = json.loads(text)
    doc["certificate"] = []
    assert workload.check(MODS, case, (code, json.dumps(doc)), rng)
    doc = json.loads(text)
    doc["verdict"] = "invalid"
    assert workload.check(MODS, case, (code, json.dumps(doc)), rng)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_checks_clean(name):
    workload = workloads.WORKLOADS[name]
    rng = random.Random(1)
    inputs = workload.inputs(MODS, random.Random(1), 40)
    op = workload.operation(MODS)
    for x in inputs:
        assert workload.check(MODS, x, op(x), rng) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lg-joins",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
