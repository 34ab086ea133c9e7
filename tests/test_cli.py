import hashlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ellgroups.cli import (
    EXIT_BAD_COMBINATION,
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    METHODS,
    main,
)
from ellgroups import terms
from ellgroups.groups import IntLatticeOracle
from ellgroups.terms import tokenize
from ellgroups.words import render_word, word

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "worked_examples.corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def strip_millis(doc):
    doc = json.loads(json.dumps(doc))
    if "stats" in doc:
        doc["stats"].pop("millis", None)
    return doc


PINNED_CASES = (
    ("lg", "free:2"),
    ("lg", "free:3"),
    ("lg", "zn:2"),
    ("lg", "klein"),
    ("rg", "free:2"),
    ("abelian", "zn:2"),
    ("abelian", "zn:3"),
)
PINNED_TEMPLATES = (
    r"e <= {a} \/ {b}",
    r"{a} /\ {b} <= {a} \/ {b}",
    r"e <= {a} \/ {a}^-1",
    r"{a}*{b} <= {b}*{a}",
    r"e <= {a}*{b} \/ {b}*{a}^-1",
    r"({a} \/ e)*({a} /\ e) = {a}",
    r"e <= ({a} \/ {a}^-1)*({b} \/ {b}^-1)",
)


def pinned_statements():
    """Three seeded instances of each template for each (variety, group)
    pair, with seeded words of at most two letters."""
    rng = random.Random(5)
    for variety, group in PINNED_CASES:
        k = 2 if group == "klein" else int(group[-1])
        letters = [l for g in range(1, k + 1) for l in (g, -g)]
        for template in PINNED_TEMPLATES:
            for _ in range(3):
                a, b = (
                    "(" + render_word(word(rng.choices(letters, k=rng.randint(1, 2)))) + ")"
                    for _ in range(2)
                )
                yield ("decide", "--variety", variety, "--group", group,
                       template.format(a=a, b=b))


def more_pinned_runs():
    """The runs the default-method pin does not reach: the truncated and
    derivation methods over free:2, rg with no derivation search,
    extend-right over each kind of group, and the bundled corpus."""
    free2 = [argv[-1] for argv in pinned_statements() if argv[2:5] == ("lg", "--group", "free:2")]
    for statement in free2:
        for method in ("truncated", "derivation"):
            yield ("decide", "--group", "free:2", "--method", method, statement)
    for statement in free2:
        yield ("decide", "--variety", "rg", "--group", "free:2", "--max-depth", "0", statement)
    rng = random.Random(11)
    for group in ("free:2", "zn:2", "klein"):
        for _ in range(12):
            words = (
                render_word(word(rng.choices((1, -1, 2, -2), k=rng.randint(1, 3))))
                for _ in range(rng.randint(1, 3))
            )
            yield ("extend-right", "--group", group, "{" + ", ".join(words) + "}")
    yield ("corpus", str(CORPUS))


class TestDecide:
    def test_valid_lg_statement(self, capsys):
        code, doc = run_json(
            capsys, "decide", "--variety", "lg", r"e <= x*x \/ y*y \/ x^-1*y^-1"
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "valid"
        assert doc["group"] == "free:2"

    def test_invalid_lg_statement_with_witness(self, capsys):
        code, doc = run_json(
            capsys, "decide", "--variety", "lg", r"e <= x*x \/ x*y \/ y*x^-1"
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "invalid"
        assert "order" in doc["witness"]
        assert "classes" in doc["witness"]
        assert "automorphisms" in doc["witness"]

    def test_rg_valid_with_certificate(self, capsys):
        code, doc = run_json(
            capsys, "decide", "--variety", "rg", r"e <= x \/ y*x^-1*y^-1"
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "valid"
        certs = doc["certificate"]
        assert any("certificate" in c for c in certs)

    def test_truncated_method(self, capsys):
        code, doc = run_json(
            capsys,
            "decide",
            "--variety",
            "lg",
            "--method",
            "truncated",
            r"e <= x*x \/ x*y \/ y*x^-1",
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "invalid"
        assert doc["witness"]["l"] == 2
        assert doc["witness"]["positives"] == [
            "x",
            "y",
            "x*x",
            "x*y",
            "y*x",
            "y*x^-1",
            "y*y",
        ]

    def test_klein_statement(self, capsys):
        code, doc = run_json(
            capsys,
            "decide",
            "--variety",
            "lg",
            "--group",
            "klein",
            r"e <= y^-1*x^-1 \/ x",
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "valid"

    def test_parse_error_exit_code(self, capsys):
        code = main(["decide", "e <= x**y"])
        assert code == EXIT_PARSE

    def test_bad_method_group_combination(self, capsys):
        code = main(
            ["decide", "--group", "klein", "--method", "cis", "e <= x"]
        )
        assert code == EXIT_BAD_COMBINATION
        code = main(["decide", "--variety", "rg", "--group", "klein", "e <= x"])
        assert code == EXIT_BAD_COMBINATION
        code = main(
            ["decide", "--variety", "abelian", "--group", "free:2", "e <= x"]
        )
        assert code == EXIT_BAD_COMBINATION

    @pytest.mark.parametrize(
        "argv",
        [
            ("--budget-ms", "0", "--strict", "--group", "klein", "--method", "cis",
             "e <= x"),
            ("--variety", "rg", "--method", "truncated", "--budget-ms", "0", "e <= x"),
            ("--group", "klein", "--method", "cis", "e <= x**"),
        ],
    )
    def test_bad_combination_comes_first(self, capsys, argv):
        # before the budget is looked at, and before the statement is parsed
        assert main(["decide", *argv]) == EXIT_BAD_COMBINATION
        assert capsys.readouterr().out == ""

    def test_derivation_method(self, capsys):
        code, doc = run_json(
            capsys,
            "decide",
            "--method",
            "derivation",
            r"e <= x*x \/ y*y \/ x^-1*y^-1",
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "valid"
        assert any("certificate" in c for c in doc["certificate"])
        code, doc = run_json(
            capsys,
            "decide",
            "--method",
            "derivation",
            "--max-depth",
            "0",
            "--strict",
            r"e <= x*x \/ x*y \/ y*x^-1",
        )
        assert code == EXIT_BUDGET
        assert doc["verdict"] == "unknown"

    def test_term_node_limit(self, capsys):
        code = main(["decide", "--max-term-nodes", "3", r"e <= x*x \/ y*y"])
        assert code == EXIT_PARSE

    def test_strict_budget_exit(self, capsys):
        code, doc = run_json(
            capsys,
            "decide",
            "--variety",
            "rg",
            "--max-depth",
            "0",
            "--strict",
            r"e <= x*x \/ y*y \/ x^-1*y^-1",
        )
        assert code == EXIT_BUDGET
        assert doc["verdict"] == "unknown"

    def test_abelian_defaults_to_lattice_group(self, capsys):
        code, doc = run_json(
            capsys, "decide", "--variety", "abelian", r"e <= x \/ y"
        )
        assert code == EXIT_OK
        assert doc["group"] == "zn:2"
        assert doc["verdict"] == "invalid"

    def test_deterministic_output(self, capsys):
        argv = ("decide", "--variety", "lg", r"e <= x*x \/ x*y \/ y*x^-1")
        _, doc1 = run_json(capsys, *argv)
        _, doc2 = run_json(capsys, *argv)
        assert strip_millis(doc1) == strip_millis(doc2)

    def test_cli_output_pinned(self, capsys):
        # recorded when valid lg joins over klein got split certificates,
        # with every other line unchanged since the presented-group decider
        # refuted first; the hash covers every (variety, group) pair,
        # certificates and witnesses included
        lines = []
        for argv in pinned_statements():
            code, doc = run_json(capsys, *argv)
            lines.append(f"{code} {json.dumps(strip_millis(doc), sort_keys=True)}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert len(lines) == 147
        assert digest == (
            "2f6bbc3ed0fada7414cb100720012bab8aead999789b43d58937633e9e8146d5"
        )

    def test_more_outputs_pinned(self, capsys):
        # recorded when extend-right went through the decide deciders, so
        # that a not-extendable run over klein or zn:2 prints the decider's
        # certificate; the other 91 runs are unchanged since `decide` and
        # `corpus` shared one decide path. The corpus prints text, every
        # other run one JSON document
        lines = []
        for argv in more_pinned_runs():
            code, out = run(capsys, *argv)
            if argv[0] != "corpus":
                out = json.dumps(strip_millis(json.loads(out)), sort_keys=True)
            lines.append(f"{code} {out}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert len(lines) == 100
        assert digest == (
            "d13a2329be681c5062abb00a3b90c36de54c7b086b8d51ddff41734e34931ea8"
        )

    def test_count_past_decimal_limit(self):
        # 2**m sign assignments over m ~ 3,600 free classes, past the
        # interpreter's lowest integer-to-string limit of 640 digits (the
        # default 4,300 digits is passed with eight such factors)
        statement = "e <= " + "*".join([r"(x\/x^-1)", r"(y\/y^-1)"] * 3)
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
        docs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "ellgroups", "decide", statement],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            docs.append(strip_millis(json.loads(proc.stdout)))
        assert docs[0] == docs[1]
        assert docs[0]["verdict"] == "valid"
        count = int(docs[0]["stats"]["assignments"], 16)
        assert count.bit_length() > 2200 and count & (count - 1) == 0


def run_limited(*argv, stdin="", seconds=60):
    # a fresh process, with a timeout and a 1 GiB address-space limit, for
    # inputs that once hung or ran out of memory
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "ellgroups", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=limit,
    )


class TestRefusedInput:
    # the 6-word join over F(3) whose sign search runs for minutes
    SLOW = (
        r"e <= x*x*x*z^-1*y \/ x*x*y*z^-1 \/ x^-1*y^-1*x^-1*z^-1*z^-1"
        r" \/ y*x^-1*y*z^-1*y^-1 \/ y*z*x^-1*z*z \/ y^-1*x^-1*y*z*z"
    )

    @pytest.mark.parametrize("strict", [False, True])
    def test_budget_binds_inside_the_sign_search(self, strict):
        flags = ["--strict"] if strict else []
        proc = run_limited(
            "decide", "--group", "free:3", "--budget-ms", "300", *flags, self.SLOW
        )
        assert proc.returncode == (EXIT_BUDGET if strict else EXIT_OK), proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "unknown"
        assert [c["budgets"] for c in doc["certificate"]] == [{"budget_ms": 300}]
        assert doc["stats"]["millis"] < 5000

    def test_budget_binds_inside_the_truncated_search(self):
        proc = run_limited(
            "decide", "--method", "truncated", "--budget-ms", "100",
            "e <= x*y*x*y*x*y*x*y", seconds=30,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "unknown"
        assert [c["budgets"] for c in doc["certificate"]] == [{"budget_ms": 100}]
        assert doc["stats"]["millis"] < 3000

    def test_budget_binds_inside_the_derivation_search(self):
        started = time.monotonic()
        proc = run_limited(
            "decide", "--method", "derivation", "--max-depth", "4",
            "--universe-cap", "100", "--budget-ms", "500",
            r"e <= x*y \/ y*x^-1 \/ x^-1*y^-1*x", seconds=30,
        )
        elapsed = time.monotonic() - started
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "unknown"
        assert [c["budgets"] for c in doc["certificate"]] == [{"budget_ms": 500}]
        assert elapsed < 2

    def test_budget_binds_inside_the_presented_closure(self):
        # with 30 x's the closure certificate of this join runs for about
        # 3 s of oracle products before the first one equal to e
        started = time.monotonic()
        proc = run_limited(
            "decide", "--group", "zn:3", "--budget-ms", "200",
            "e <= " + "x*" * 30 + r"y*z \/ x^-1 \/ y^-1 \/ z^-1", seconds=30,
        )
        elapsed = time.monotonic() - started
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "unknown"
        assert [c["budgets"] for c in doc["certificate"]] == [{"budget_ms": 200}]
        assert elapsed < 2

    def test_presented_closure_ends_at_the_first_identity(self):
        # with 20 x's the closure certificate ends at its first product
        # equal to e, in a fraction of a second; the rest of that round
        # would take seconds more
        started = time.monotonic()
        proc = run_limited(
            "decide", "--group", "zn:3",
            "e <= " + "x*" * 20 + r"y*z \/ x^-1 \/ y^-1 \/ z^-1", seconds=30,
        )
        elapsed = time.monotonic() - started
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "valid"
        assert [c["method"] for c in doc["certificate"]] == ["closure"]
        assert elapsed < 2

    def test_budget_binds_inside_the_combination_search(self):
        # no functional is positive on the four vectors, and the vanishing
        # combination of 103 of them takes millions of candidates
        started = time.monotonic()
        proc = run_limited(
            "decide", "--variety", "abelian", "--budget-ms", "200",
            "e <= " + "x*" * 100 + r"y*z \/ x^-1 \/ y^-1 \/ z^-1", seconds=30,
        )
        elapsed = time.monotonic() - started
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "unknown"
        assert [c["budgets"] for c in doc["certificate"]] == [{"budget_ms": 200}]
        assert elapsed < 2

    def test_budget_binds_inside_rg(self):
        # the bi-order derivation search of this join runs for minutes
        started = time.monotonic()
        proc = run_limited(
            "decide", "--variety", "rg", "--budget-ms", "300",
            r"e <= y \/ x*y \/ x^-1*y^-1*x^-1", seconds=30,
        )
        elapsed = time.monotonic() - started
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "unknown"
        assert [c["budgets"] for c in doc["certificate"]] == [{"budget_ms": 300}]
        assert elapsed < 2

    def test_closed_pipe_ends_quietly(self):
        # a 262 KB document, one entry for each of 4,096 join sets that
        # hold e, of which the reader takes 100 bytes
        proc = subprocess.Popen(
            [sys.executable, "-m", "ellgroups", "decide",
             "e <= " + "*".join([r"(x/\y)"] * 12) + r" \/ e"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stderr.close()
        assert "Traceback" not in err
        assert code == EXIT_FAIL

    def test_spent_budget_prints_one_entry(self, capsys):
        # 4,096 join sets, each a single word, none reached in time
        statement = "e <= " + "*".join([r"(x/\y)"] * 12)
        code, out = run(capsys, "decide", "--budget-ms", "0", statement)
        assert code == EXIT_OK
        assert len(out) < 1000
        (entry,) = json.loads(out)["certificate"]
        assert entry == {
            "verdict": "unknown", "budgets": {"budget_ms": 0}, "undecided": 4096,
            "join": ["x*x*x*x*x*x*x*x*x*x*x*x"],
        }

    def test_own_unknown_goes_on(self, capsys):
        # rg with no derivation search leaves the first join set unknown,
        # and the second, which a Magnus order refutes, is still decided
        code, doc = run_json(
            capsys, "decide", "--variety", "rg", "--max-depth", "0",
            r"e <= (x*x \/ y*y \/ x^-1*y^-1) /\ (x \/ y)",
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "invalid"
        assert doc["join"] == ["x", "y"]

    @pytest.mark.parametrize("depth", [100, 200, 3000])
    def test_nesting_depth(self, depth):
        statement = "e <= " + "(" * depth + "x" + ")" * depth
        proc = run_limited("decide", statement)
        if depth == 100:
            assert proc.returncode == EXIT_OK, proc.stderr
            assert json.loads(proc.stdout)["verdict"] == "invalid"
        else:
            assert proc.returncode == EXIT_PARSE
            assert proc.stdout == ""
            assert "statement nested too deeply" in proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "statement",
        [
            "e <= " + "*".join(["x"] * 1500),
            "e <= x" + "^-1" * 1500,
            "e <= " + "x*(" * 400 + "x" + ")" * 400,
        ],
    )
    def test_deep_terms(self, statement):
        proc = run_limited("decide", statement)
        assert proc.returncode == EXIT_PARSE
        assert "statement nested too deeply" in proc.stderr

    def test_deep_corpus_line(self, tmp_path):
        path = tmp_path / "deep.corpus"
        path.write_text(
            "lg;e <= x \\/ x^-1;valid\n"
            f"lg;e <= {'(' * 3000}x{')' * 3000};invalid\n"
        )
        proc = run_limited("corpus", str(path))
        assert proc.returncode == EXIT_PARSE
        assert "line 2: statement nested too deeply" in proc.stdout
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "group",
        ["", "free:0", "zn:0", "klein:2", "free:x", "free:", "free:-1", "free: 2",
         "free:101", "free:1000000", "free:99999999999999999999"],
    )
    @pytest.mark.parametrize(
        "argv",
        [("decide", "e <= x"), ("extend-right", "{x}"), ("certificate", "check", "-")],
    )
    def test_bad_group_selector(self, group, argv):
        proc = run_limited(*argv[:-1], "--group", group, argv[-1], seconds=30)
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("decide", "e <= x101"),
            ("decide", "e <= x100000"),
            ("decide", "--variety", "abelian", "e <= x100000"),
            ("decide", "e <= x" + "9" * 5000),
            ("extend-right", "{x100000}"),
        ],
    )
    def test_inferred_rank_over_the_cap(self, argv):
        proc = run_limited(*argv, seconds=30)
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert proc.stdout == ""
        assert "index over 100" in proc.stderr

    def test_rank_at_the_cap(self, capsys):
        code, doc = run_json(capsys, "decide", "e <= x100")
        assert code == EXIT_OK
        assert doc["group"] == "free:100"
        assert len(doc["witness"]["automorphisms"]) == 100

    def test_corpus_rank_over_the_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.corpus"
        path.write_text("lg;e <= x101;invalid\n")
        code, out = run(capsys, "corpus", str(path))
        assert code == EXIT_PARSE
        assert "line 1: the input names a generator" in out


class TestExtendRight:
    def test_extendable(self, capsys):
        code, doc = run_json(
            capsys, "extend-right", "--group", "free:2", "{x*x, x*y, y*x^-1}"
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "extendable"
        assert doc["witness"]["l"] == 2
        assert set(doc["witness"]["positives"]) == {
            "x*x", "x*y", "y*x^-1", "y*x", "y*y", "x", "y",
        }

    def test_not_extendable(self, capsys):
        code, doc = run_json(
            capsys, "extend-right", "--group", "free:2", "{x*x, y*y, x^-1*y^-1}"
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "not-extendable"

    def test_klein(self, capsys):
        code, doc = run_json(capsys, "extend-right", "--group", "klein", "{x}")
        assert code == EXIT_OK
        assert doc["verdict"] == "extendable"
        assert doc["witness"] == {"variant": 1, "epsilon": [1, 1]}
        code, doc = run_json(
            capsys, "extend-right", "--group", "klein", "{y^-1*x^-1, x}"
        )
        assert doc["verdict"] == "not-extendable"
        assert "witness" not in doc
        assert doc["certificate"]["system"] == "S"
        assert doc["certificate"]["rule"] == "split"
        assert doc["certificate"]["conclusion"] == ["x", "x^-1*y"]

    def test_lattice_group(self, capsys):
        code, doc = run_json(
            capsys, "extend-right", "--group", "zn:2", "{x*x*y^-1, x^-1*y}"
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "extendable"
        assert doc["witness"] == {"functional": [2, 3]}
        code, doc = run_json(
            capsys, "extend-right", "--group", "zn:2", "{x, y, x^-1*y^-1}"
        )
        assert doc["verdict"] == "not-extendable"
        assert "witness" not in doc
        assert doc["certificate"] == {
            "combination": [
                {"vector": [-1, -1], "count": 1},
                {"vector": [0, 1], "count": 1},
                {"vector": [1, 0], "count": 1},
            ]
        }

    def test_parse_error(self, capsys):
        assert main(["extend-right", "{x*x"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv, verdict",
        [
            (("--group", "zn:2", "{}"), "extendable"),
            # 1,501 factors whose product is y
            (("{" + "*".join(["x", "x^-1"] * 750 + ["y"]) + "}",), "extendable"),
            (("{" + "*".join(["x"] * 750 + ["x^-1"] * 750) + "}",), "not-extendable"),
        ],
    )
    def test_edge_sets_are_decided(self, argv, verdict):
        proc = run_limited("extend-right", *argv, seconds=30)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == verdict

    def test_nesting_depth(self):
        proc = run_limited("extend-right", "{" + "(" * 1200 + "x" + ")" * 1200 + "}")
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr == "error: word set nested too deeply\n"


def extend_right_cases():
    """Seeded sets of 1-3 words of the radius-2 ball of F(2): over free:2
    without e, over klein and zn:2 with e among the words drawn from."""
    rng = random.Random(29)
    ball = sorted(
        {word(p) for n in (0, 1, 2) for p in itertools.product((1, -1, 2, -2), repeat=n)}
    )
    punctured = [w for w in ball if w != word(())]
    for group in ("free:2", "klein", "zn:2"):
        for _ in range(40):
            words = punctured if group == "free:2" else ball
            yield group, rng.sample(words, rng.randint(1, 3))


class TestExtendRightIsDecideNegated:
    # a word set S extends to a right order's positive cone exactly when
    # e <= \/S is invalid; extend-right decides it in one variety and by
    # one method over each kind of group
    DECIDE = {
        "free:2": ("lg", "truncated"),
        "klein": ("lg", "auto"),
        "zn:2": ("abelian", "auto"),
    }

    def test_verdicts_and_artifacts_agree(self, capsys, monkeypatch):
        seen = set()
        for group, words in extend_right_cases():
            variety, method = self.DECIDE[group]
            texts = [render_word(w) for w in words]
            _, ext = run_json(
                capsys, "extend-right", "--group", group, "{" + ", ".join(texts) + "}"
            )
            _, dec = run_json(
                capsys, "decide", "--variety", variety, "--group", group,
                "--method", method, "e <= " + r" \/ ".join(f"({t})" for t in texts),
            )
            certificate = ext.get("certificate")
            # a tree names its rule; a zn:2 certificate is a combination
            kind = certificate and certificate.get("rule", "combination")
            seen.add((group, ext["verdict"], kind))
            assert (ext["verdict"] == "extendable") == (dec["verdict"] == "invalid")
            if dec["verdict"] == "invalid":
                assert ext["witness"] == dec["witness"], texts
                continue
            (entry,) = dec["certificate"]
            assert certificate == entry.get("certificate"), texts
            if group == "klein":
                monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(certificate)))
                checked = run_json(capsys, "certificate", "check", "--group", "klein", "-")
                assert checked == (EXIT_OK, {"accepted": True, "system": "S"}), texts
            elif group == "zn:2" and certificate is not None:
                combination = certificate["combination"]
                images = {IntLatticeOracle(2).canonicalize(w) for w in words}
                assert all(c["count"] > 0 for c in combination)
                assert {tuple(c["vector"]) for c in combination} <= images
                for i in range(2):
                    assert sum(c["vector"][i] * c["count"] for c in combination) == 0
        # e among the words makes the join valid by the identity rule
        assert seen == {
            ("free:2", "extendable", None),
            ("free:2", "not-extendable", None),
            ("klein", "extendable", None),
            ("klein", "not-extendable", "leaf"),
            ("klein", "not-extendable", "split"),
            ("zn:2", "extendable", None),
            ("zn:2", "not-extendable", None),
            ("zn:2", "not-extendable", "combination"),
        }

    @pytest.mark.parametrize(
        "group, witness",
        [
            ("free:2", {"l": 1, "positives": []}),
            ("klein", {"variant": 1, "epsilon": [1, 1]}),
            ("zn:2", {"functional": [1, 0]}),
        ],
    )
    def test_empty_set(self, capsys, group, witness):
        code, doc = run_json(capsys, "extend-right", "--group", group, "{}")
        assert code == EXIT_OK
        assert strip_millis(doc) == {
            "group": group, "verdict": "extendable", "witness": witness, "stats": {}
        }


class TestCertificateCheck:
    def test_round_trip_from_decide(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "decide", "--variety", "rg", r"e <= x \/ y*x^-1*y^-1"
        )
        cert = next(c["certificate"] for c in doc["certificate"] if "certificate" in c)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, out = run_json(
            capsys, "certificate", "check", "--group", "free:2", str(path)
        )
        assert code == EXIT_OK
        assert out["accepted"] is True

    def test_rejects_tampered_certificate(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "decide", "--variety", "rg", r"e <= x \/ y*x^-1*y^-1"
        )
        cert = next(c["certificate"] for c in doc["certificate"] if "certificate" in c)
        cert["system"] = "S"  # exchange is not admitted there
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, out = run_json(
            capsys, "certificate", "check", "--group", "free:2", str(path)
        )
        assert code == EXIT_FAIL
        assert out["accepted"] is False

    def test_rejects_tampered_split(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "decide", "--group", "klein", r"e <= x*x*y \/ x^-1*x^-1"
        )
        (entry,) = doc["certificate"]
        cert = entry["certificate"]
        assert (entry["method"], cert["rule"]) == ("klein-orders", "split")
        path = tmp_path / "cert.json"
        argv = ("certificate", "check", "--group", "klein", str(path))
        path.write_text(json.dumps(cert))
        assert run_json(capsys, *argv) == (EXIT_OK, {"accepted": True, "system": "S"})
        cert["children"].reverse()
        path.write_text(json.dumps(cert))
        code, out = run_json(capsys, *argv)
        assert code == EXIT_FAIL
        assert out["accepted"] is False
        assert out["reason"] == "root: premises do not adjoin g and g^-1"

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert (
            main(["certificate", "check", "--group", "free:2", str(path)])
            == EXIT_PARSE
        )

    def test_deep_certificate(self, capsys, tmp_path):
        # a valid certificate whose every product node keeps the conclusion
        # {x, x^-1, x^-2}, splitting x^-1 as x^-2 * x over a leaf premise
        conclusion = '"conclusion": ["x", "x^-1", "x^-1*x^-1"]'
        leaf = (
            "{" + conclusion + ', "rule": "leaf", "data": {"element": "x"},'
            ' "children": []}'
        )
        head = (
            "{" + conclusion + ', "rule": "product", "data": {"element": "x^-1",'
            ' "left": "x^-1*x^-1", "right": "x"}, "children": ['
        )
        path = tmp_path / "deep.json"
        for depth, expected in ((50, EXIT_OK), (600, EXIT_PARSE)):
            body = head * depth + leaf + (", " + leaf + "]}") * depth
            path.write_text('{"system": "S", ' + body[1:])
            code = main(["certificate", "check", "--group", "free:2", str(path)])
            captured = capsys.readouterr()
            assert code == expected, captured.err
            if expected == EXIT_PARSE:
                assert captured.out == ""
                assert "nested too deeply" in captured.err
            else:
                assert json.loads(captured.out)["accepted"] is True

    @pytest.mark.parametrize(
        "conclusion, premise, reason",
        [
            (["x"], ["x"], "product element not in conclusion"),
            (["x*x"], ["x", "x^-1"], "premise sets do not match the product"),
        ],
    )
    def test_product_rule_errors_name_the_rule(
        self, capsys, monkeypatch, conclusion, premise, reason
    ):
        # a product node splitting x*x as x * x
        leaf = {"conclusion": premise, "rule": "leaf", "data": {"element": "x"},
                "children": []}
        cert = {"system": "S", "conclusion": conclusion, "rule": "product",
                "data": {"element": "x*x", "left": "x", "right": "x"},
                "children": [leaf, leaf]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert)))
        code, out = run_json(capsys, "certificate", "check", "--group", "free:1", "-")
        assert code == EXIT_FAIL
        assert out == {"accepted": False, "reason": "root: " + reason}

    @pytest.mark.parametrize("text", ["[]", "null", '{"system": 3}'])
    def test_malformed_document(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out = run(
            capsys, "certificate", "check", "--group", "free:2", str(path)
        )
        assert code == EXIT_PARSE
        assert out == ""


class TestFileInput:
    # a file that cannot be read as UTF-8 text is refused, exit 2
    @pytest.mark.parametrize(
        "argv",
        [
            ("certificate", "check", "--group", "free:2"),
            ("corpus",),
        ],
    )
    @pytest.mark.parametrize(
        "name, reason",
        [
            ("missing", "No such file or directory"),
            ("directory", "Is a directory"),
            ("latin1.txt", "not UTF-8 text, byte 8"),
        ],
    )
    def test_unreadable_file(self, capsys, tmp_path, argv, name, reason):
        (tmp_path / "directory").mkdir()
        (tmp_path / "latin1.txt").write_bytes(b"lg;e <= \xe9;valid\n")
        path = tmp_path / name
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert reason in captured.err


class TestCorpus:
    def test_bundled_corpus_passes(self, capsys):
        code, out = run(capsys, "corpus", str(CORPUS))
        assert code == EXIT_OK, out
        assert "FAIL" not in out

    def test_failing_line_detected(self, capsys, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_text("lg;e <= x;valid\n")
        code, out = run(capsys, "corpus", str(path))
        assert code == EXIT_FAIL
        assert "FAIL" in out

    def test_empty_corpus_passes(self, capsys, tmp_path):
        path = tmp_path / "empty.corpus"
        path.write_text("# nothing here\n")
        code, out = run(capsys, "corpus", str(path))
        assert code == EXIT_OK
        assert "0/0" in out

    def test_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "broken.corpus"
        path.write_text("lg;e <= x\n")
        code, out = run(capsys, "corpus", str(path))
        assert code == EXIT_PARSE
        assert "line 1" in out


class TestRepeatedCalls:
    # the flags of one call must not carry over into the next
    ARGVS = [
        ("decide", "--budget-ms", "0", "--strict", r"e <= x*x \/ y*y \/ x^-1*y^-1"),
        ("decide", "--budget-ms", "0", r"e <= x*x \/ y*y \/ x^-1*y^-1"),
        ("decide", r"e <= x*x \/ y*y \/ x^-1*y^-1"),
        ("decide", "--method", "truncated", r"e <= x*x \/ x*y \/ y*x^-1"),
        ("decide", "--variety", "rg", "--max-depth", "3", r"e <= x \/ y*x^-1*y^-1"),
        ("extend-right", "--group", "zn:2", "{x, y}"),
        ("extend-right", "{x*x, x*y, y*x^-1}"),
    ]

    def test_successive_calls_match_fresh_processes(self, capsys):
        in_process = [run(capsys, *argv) for argv in self.ARGVS]
        assert [code for code, _ in in_process[:3]] == [EXIT_BUDGET, EXIT_OK, EXIT_OK]
        for argv, (code, out) in zip(self.ARGVS, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "ellgroups", *argv],
                capture_output=True,
                text=True,
            )
            assert code == proc.returncode, argv
            assert strip_millis(json.loads(out)) == strip_millis(
                json.loads(proc.stdout)
            ), argv


class TestTokenizedOnce:
    # with no --group the rank comes from the tokens, which the parser
    # then reads, so each input is tokenized once
    @pytest.mark.parametrize(
        "argv", [("decide", r"e <= x \/ y"), ("extend-right", "{x, y}")]
    )
    def test_one_tokenize_call(self, capsys, monkeypatch, argv):
        calls = []

        def counted(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(terms, "tokenize", counted)
        code, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert calls == [argv[-1]]

    @pytest.mark.parametrize(
        "argv",
        [("decide", "e <= x101 $"), ("extend-right", "{x101, $}"),
         ("decide", "--variety", "abelian", "--method", "cis", "e <= x101 $")],
    )
    def test_bad_character_wins(self, capsys, argv):
        # a bad character is reported ahead of a rank over the cap and of
        # a bad method
        code = main(list(argv))
        assert code == EXIT_PARSE
        assert "parse error: unexpected character '$'" in capsys.readouterr().err


class TestOptions:
    # a subcommand takes only the options it reads
    @pytest.mark.parametrize(
        "argv",
        [
            ("decide", "--json", "e <= x"),
            ("decide", "--radius", "3", "e <= x"),
            ("extend-right", "--max-depth", "3", "{x}"),
            ("extend-right", "--strict", "{x}"),
            ("corpus", "--group", "free:2", str(CORPUS)),
            ("corpus", "--radius", "3", str(CORPUS)),
            ("corpus", "--budget-ms", "10", str(CORPUS)),
            ("corpus", "--strict", str(CORPUS)),
        ],
    )
    def test_unread_options_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("decide", "--max-depth", "-1", "e <= x"),
            ("decide", "--universe-cap", "-3", "e <= x"),
            ("decide", "--budget-ms", "-5", "e <= x"),
            ("decide", "--max-term-nodes", "-1", "e <= x"),
            ("corpus", "--max-depth", "-1", str(CORPUS)),
            ("corpus", "--universe-cap", "-3", str(CORPUS)),
            ("corpus", "--max-term-nodes", "-1", str(CORPUS)),
        ],
    )
    def test_negative_counts_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not an integer of at least 0" in captured.err

    def test_readme_lists_the_method_table(self):
        # README's `variety | group | methods` table is cli.METHODS
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if line.startswith("|") and cells[0] in ("lg", "rg", "abelian"):
                variety, group, methods = cells
                rows[variety, group.split(":")[0]] = tuple(methods.split(", "))
        assert rows == {key: tuple(methods) for key, methods in METHODS.items()}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellgroups", "decide", r"e <= x \/ x^-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["verdict"] == "valid"
