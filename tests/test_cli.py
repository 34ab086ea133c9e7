import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellgroups.cli import (
    EXIT_BAD_COMBINATION,
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    main,
)

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
        assert doc["witness"]["variant"] == 1
        code, doc = run_json(
            capsys, "extend-right", "--group", "klein", "{y^-1*x^-1, x}"
        )
        assert doc["verdict"] == "not-extendable"

    def test_lattice_group(self, capsys):
        code, doc = run_json(
            capsys, "extend-right", "--group", "zn:2", "{x*x*y^-1, x^-1*y}"
        )
        assert code == EXIT_OK
        assert doc["verdict"] == "extendable"

    def test_parse_error(self, capsys):
        assert main(["extend-right", "{x*x"]) == EXIT_PARSE


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

    @pytest.mark.parametrize("text", ["[]", "null", '{"system": 3}'])
    def test_malformed_document(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out = run(
            capsys, "certificate", "check", "--group", "free:2", str(path)
        )
        assert code == EXIT_PARSE
        assert out == ""


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellgroups", "decide", r"e <= x \/ x^-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["verdict"] == "valid"
