"""Command-line surface: decide statements, extend word sets to right
orders, re-check certificates, and run regression corpora.

Every verb decides a join set through one table, METHODS. A word set S
extends to a right order's positive cone exactly when e is not below the
join of S, so extend-right runs a fixed decider of that table on S as
one join and reports its witness (extendable) or certificate
(not-extendable).

Exit codes: 0 for any decided or unknown result, 1 for a failed corpus
line or rejected certificate, or for output whose reader closed the pipe
before it was written, 2 for parse errors and refused input (a bad group
selector or rank, a negative bound or budget, a statement too large or
nested too deeply, a word set nested too deeply, a certificate or corpus
file that cannot be read as UTF-8 text), 3 for
budget-exceeded under --strict, 4 for an invalid method/group combination,
which is reported before the statement is parsed.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import biorder, derivation, groups, rightorder, terms
from .rightorder import LgInvalid, LgValid
from .words import Word, render_word

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_BAD_COMBINATION = 4


class BadCombination(Exception):
    pass


class Refused(Exception):
    """Input refused before any decider runs, with the reason; exit 2."""


def _emit(doc: dict) -> None:
    try:
        text = json.dumps(doc, sort_keys=True)
    except ValueError:
        # an integer too long for the interpreter's decimal conversion
        # limit, such as a count of 2**m sign assignments
        text = json.dumps(_hex_long_ints(doc), sort_keys=True)
    print(text)


def _hex_long_ints(x):
    """The document with every integer that has no decimal string under
    the interpreter's limit written as a hexadecimal string instead."""
    if isinstance(x, dict):
        return {k: _hex_long_ints(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex_long_ints(v) for v in x]
    if isinstance(x, int):
        try:
            str(x)
        except ValueError:
            return hex(x)
    return x


def _word_list(words) -> list[str]:
    # each word's key computed once, not once per comparison
    return [render_word(w) for w in sorted(words, key=operator.attrgetter("key"))]


def _rational_json(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


def _sign_witness_json(verdict: LgInvalid, k: int) -> dict:
    autos = rightorder.counterexample_automorphisms(verdict.join, verdict.order, k)
    return {
        "classes": [
            {"rep": render_word(Word(rep)), "sign": sign}
            for rep, sign in zip(verdict.reps, verdict.signs)
        ],
        "order": [render_word(w) for w in verdict.order],
        "automorphisms": [
            {
                "gen": render_word(Word((g,))),
                "breakpoints": [
                    [_rational_json(p), _rational_json(q)]
                    for p, q in autos[g].breakpoints
                ],
            }
            for g in sorted(autos)
        ],
    }


def _cis(join, oracle, args, deadline) -> dict:
    verdict = rightorder.decide_valid_lg(join, deadline)
    out = {
        "verdict": "valid" if isinstance(verdict, LgValid) else "invalid",
        "assignments": verdict.assignments_checked,
        "nodes": verdict.nodes_explored,
    }
    if isinstance(verdict, LgInvalid):
        # written as JSON by run_decide, the only caller that prints it
        out["witness"] = verdict
    return out


def _truncated(join, oracle, args, deadline) -> dict:
    order = rightorder.clay_smith(join, oracle.k, deadline)
    if order is None:
        return {"verdict": "valid"}
    witness = {"l": order.l, "positives": _word_list(order.positives)}
    return {"verdict": "invalid", "witness": witness}


def _derivation(join, oracle, args, deadline) -> dict:
    system = derivation.RuleSystem.RIGHT_ORDER
    tree = derivation.search(
        frozenset(oracle.canonicalize(w) for w in join), system, oracle,
        max_depth=args.max_depth, universe_cap=args.universe_cap, deadline=deadline,
    )
    if tree is None:
        return {
            "verdict": "unknown",
            "budgets": {"max_depth": args.max_depth, "universe_cap": args.universe_cap},
        }
    certificate = derivation.tree_to_json(tree, system, oracle)
    return {"verdict": "valid", "certificate": certificate}


def _presented(join, oracle, args, deadline) -> dict:
    verdict = groups.decide_presented_lg(join, oracle, deadline)
    return _verdict_json(verdict, oracle, derivation.RuleSystem.RIGHT_ORDER)


def _rg(join, oracle, args, deadline) -> dict:
    verdict = biorder.decide_valid_rg(
        join, oracle.k,
        max_depth=args.max_depth, universe_cap=args.universe_cap, deadline=deadline,
    )
    return _verdict_json(verdict, oracle, derivation.RuleSystem.BI_ORDER)


def _abelian(join, oracle, args, deadline) -> dict:
    points = frozenset(oracle.canonicalize(w) for w in join)
    if oracle.identity in points:
        return {"verdict": "valid", "method": "identity"}
    if not points:
        # every order holds the empty set; this one has x1 positive
        outcome = biorder.ExtendsToOrder((1,) + (0,) * (oracle.k - 1))
    else:
        outcome = biorder.decide_abelian_order_extension(points, oracle.k, deadline)
    if isinstance(outcome, biorder.ExtendsToOrder):
        witness = {"functional": list(outcome.functional)}
        return {"verdict": "invalid", "method": "abelian-duality", "witness": witness}
    combination = [{"vector": list(v), "count": c} for v, c in outcome.combination]
    return {
        "verdict": "valid",
        "method": "abelian-duality",
        "certificate": {"combination": combination},
    }


def _verdict_json(verdict, oracle, system: derivation.RuleSystem) -> dict:
    """A derivation.Valid, Invalid or Unknown as JSON, with its certificate
    written in the rule system it was derived in."""
    if isinstance(verdict, derivation.Valid):
        return {
            "verdict": "valid",
            "method": verdict.method,
            "certificate": derivation.tree_to_json(verdict.certificate, system, oracle),
        }
    if isinstance(verdict, derivation.Invalid):
        witness = verdict.witness
        return {"verdict": "invalid", "method": verdict.method, "witness": witness}
    return {"verdict": "unknown", "budgets": dict(verdict.budgets)}


def _oracle(selector: str):
    try:
        return groups.oracle_from_selector(selector)
    except ValueError as exc:
        raise Refused(str(exc)) from None


def _inferred_rank(tokens: list[terms.Token]) -> int:
    k = max(1, terms.max_var_index(tokens))
    if k > groups.MAX_RANK:
        raise Refused(
            f"the input names a generator of index over {groups.MAX_RANK},"
            " the largest rank of a group"
        )
    return k


def _statement_joinsets(text: str, tokens, k: int, max_term_nodes: int):
    """Parse a statement over rank k, from its tokens when they are not
    None, into its meet of joins; raises terms.ParseError, or Refused for
    a statement over the node limit or nested too deeply."""
    try:
        stmt = terms.parse_statement(text, k, tokens)
        nodes = terms.term_node_count(stmt.left) + terms.term_node_count(stmt.right)
        if nodes > max_term_nodes:
            raise Refused(
                f"statement has {nodes} term nodes,"
                f" over the --max-term-nodes limit of {max_term_nodes}"
            )
        return terms.statement_to_joinsets(stmt)
    except RecursionError:
        # the parser and the normalization recurse once per level
        raise Refused("statement nested too deeply") from None


# the deciders of each variety over each kind of group, the kind being
# the group's name up to any ":", by method. A decider takes (join,
# oracle, args, deadline), returns the join set's entry but for its
# "join", and raises derivation.PastDeadline past the deadline.
METHODS = {
    ("lg", "free"): {
        "auto": _cis, "cis": _cis, "truncated": _truncated, "derivation": _derivation
    },
    ("lg", "zn"): {"auto": _presented, "derivation": _derivation},
    ("lg", "klein"): {"auto": _presented, "derivation": _derivation},
    ("rg", "free"): {"auto": _rg, "derivation": _rg},
    ("abelian", "zn"): {"auto": _abelian},
}


# the variety and method whose decider answers extend-right over each kind
# of group: a word set S extends to a right order's positive cone exactly
# when e <= \/S is invalid, so an invalid entry's witness is the cone and
# a valid entry's certificate shows that no right order holds S
EXTEND_RIGHT = {
    "free": ("lg", "truncated"),
    "klein": ("lg", "auto"),
    "zn": ("abelian", "auto"),
}


def _check_method(variety: str, oracle, method: str):
    """The decider of the method for the variety over the oracle's group;
    raises BadCombination if there is none."""
    methods = METHODS.get((variety, oracle.name.split(":")[0]))
    if methods is None:
        raise BadCombination(f"variety {variety} is not decided over {oracle.name}")
    if method not in methods:
        raise BadCombination(
            f"method {method} does not apply to variety {variety} over {oracle.name}"
        )
    return methods[method]


def _decide_statement(args, deadline) -> tuple:
    """The oracle and the entries of args.statement's join sets, decided
    up to the first invalid one. Past the deadline, the join set reached
    or still undecided ends the list as unknown, counting itself and the
    join sets after it as undecided. Raises BadCombination before the
    statement is parsed, then terms.ParseError or Refused."""
    selector, tokens = args.group, None
    if selector is None:
        # the rank comes from the tokens, which the parser then reads
        tokens = terms.tokenize(args.statement)
        k = _inferred_rank(tokens)
        selector = f"zn:{k}" if args.variety == "abelian" else f"free:{k}"
    oracle = _oracle(selector)
    decide = _check_method(args.variety, oracle, args.method)
    joins = _statement_joinsets(args.statement, tokens, oracle.k, args.max_term_nodes)
    results = []
    for i, join in enumerate(joins):
        try:
            if deadline is not None and time.monotonic() > deadline:
                raise derivation.PastDeadline
            entry = decide(join, oracle, args, deadline)
        except derivation.PastDeadline:
            entry = {
                "verdict": "unknown",
                "budgets": {"budget_ms": args.budget_ms},
                "undecided": len(joins) - i,
            }
        entry["join"] = _word_list(join)
        results.append(entry)
        if entry["verdict"] == "invalid" or "undecided" in entry:
            break
    return oracle, results


def _aggregate(results: list[dict]) -> str:
    verdicts = [r["verdict"] for r in results]
    if "invalid" in verdicts:
        return "invalid"
    if "unknown" in verdicts:
        return "unknown"
    return "valid"


def _refused(exc: Refused) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_PARSE


def run_decide(args) -> int:
    started = time.monotonic()
    deadline = None if args.budget_ms is None else started + args.budget_ms / 1000
    try:
        oracle, results = _decide_statement(args, deadline)
    except BadCombination as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_COMBINATION
    except terms.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Refused as exc:
        return _refused(exc)

    verdict = _aggregate(results)
    doc: dict = {
        "verdict": verdict,
        "variety": args.variety,
        "group": oracle.name,
        "stats": {
            "assignments": sum(r.get("assignments", 0) for r in results),
            "nodes": sum(r.get("nodes", 0) for r in results),
            "millis": int((time.monotonic() - started) * 1000),
        },
    }
    if verdict == "invalid":
        witness = results[-1].get("witness")
        if isinstance(witness, LgInvalid):
            witness = _sign_witness_json(witness, oracle.k)
        doc["witness"] = witness
        doc["join"] = results[-1]["join"]
    else:
        doc["certificate"] = [
            {k: v for k, v in r.items() if k not in ("assignments", "nodes")}
            for r in results
        ]
    _emit(doc)
    if verdict == "unknown" and args.strict:
        return EXIT_BUDGET
    return EXIT_OK


def run_extend_right(args) -> int:
    started = time.monotonic()
    try:
        selector, tokens = args.group, None
        if selector is None:
            tokens = terms.tokenize(args.words)
            selector = f"free:{_inferred_rank(tokens)}"
        oracle = _oracle(selector)
        word_set = terms.parse_word_set(args.words, oracle.k, tokens)
    except RecursionError:
        # the parser recurses once per level of parentheses
        return _refused(Refused("word set nested too deeply"))
    except terms.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Refused as exc:
        return _refused(exc)

    variety, method = EXTEND_RIGHT[oracle.name.split(":")[0]]
    entry = _check_method(variety, oracle, method)(word_set, oracle, args, None)
    doc: dict = {"group": oracle.name}
    if entry["verdict"] == "invalid":
        doc["verdict"] = "extendable"
        doc["witness"] = entry["witness"]
    else:
        doc["verdict"] = "not-extendable"
        if "certificate" in entry:
            doc["certificate"] = entry["certificate"]
    doc["stats"] = {"millis": int((time.monotonic() - started) * 1000)}
    _emit(doc)
    return EXIT_OK


def _too_deep() -> int:
    # the parser and the checker recurse once per level of the document
    print("parse error: certificate nested too deeply", file=sys.stderr)
    return EXIT_PARSE


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; raises Refused for a file that cannot be
    read or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise Refused(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise Refused(f"{path}: not UTF-8 text, byte {exc.start}") from None


def run_certificate_check(args) -> int:
    try:
        oracle = _oracle(args.group)
        text = sys.stdin.read() if args.path == "-" else _read_text(args.path)
    except Refused as exc:
        return _refused(exc)
    try:
        doc = json.loads(text)
        tree, system = derivation.tree_from_json(doc, oracle)
    except RecursionError:
        return _too_deep()
    except (
        json.JSONDecodeError,
        terms.ParseError,
        KeyError,
        ValueError,
        TypeError,  # a value of the wrong JSON type, such as a list for a node
        AttributeError,
    ) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        derivation.check(tree, system, oracle)
    except RecursionError:
        return _too_deep()
    except derivation.CertificateError as exc:
        _emit({"accepted": False, "reason": str(exc)})
        return EXIT_FAIL
    _emit({"accepted": True, "system": system.value})
    return EXIT_OK


def _corpus_expected_ok(expected: str, verdict: str) -> bool:
    if expected == "unknown-ok":
        return verdict in ("valid", "invalid", "unknown")
    return verdict == expected


def run_corpus(args) -> int:
    try:
        lines = _read_text(args.path).split("\n")
    except Refused as exc:
        return _refused(exc)

    failures = 0
    total = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3 or parts[0] not in ("lg", "rg", "abelian"):
            print(f"line {lineno}: malformed corpus line: {line}")
            return EXIT_PARSE
        variety, statement, expected = parts
        if expected not in ("valid", "invalid", "unknown-ok"):
            print(f"line {lineno}: bad expected verdict {expected!r}")
            return EXIT_PARSE
        total += 1
        # decided as `decide` decides it with no --group, --method or
        # --budget-ms
        line_args = argparse.Namespace(
            **vars(args), variety=variety, statement=statement,
            group=None, method="auto", budget_ms=None,
        )
        try:
            verdict = _aggregate(_decide_statement(line_args, None)[1])
        except terms.ParseError:
            verdict = "parse-error"
        except Refused as exc:
            print(f"line {lineno}: {exc}")
            return EXIT_PARSE
        ok = _corpus_expected_ok(expected, verdict)
        status = "pass" if ok else "FAIL"
        print(f"line {lineno}: {status}  [{variety}] {statement}  ->  {verdict}")
        if not ok:
            failures += 1
    print(f"{total - failures}/{total} lines passed")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _count(text: str) -> int:
    # a bound or budget: an integer of at least 0, or exit 2
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"not an integer of at least 0: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellgroups",
        description="Decision procedures for lattice-ordered group validity "
        "and right-order extension over free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups_help = f"free:K, zn:K, or klein, with 1 <= K <= {groups.MAX_RANK}"

    search_read_by = (
        "; read only by --variety rg and --method derivation, ignored elsewhere"
    )

    def search_options(p):
        p.add_argument(
            "--max-depth", type=_count, default=5,
            help="depth of the derivation search" + search_read_by,
        )
        p.add_argument(
            "--universe-cap", type=_count, default=32,
            help="size cap on the derivation search's factor universe"
            + search_read_by,
        )
        p.add_argument(
            "--max-term-nodes", type=_count, default=10_000,
            help="reject statements whose syntax tree is larger than this "
            "(normalization can be exponential in it)",
        )

    p_decide = sub.add_parser("decide", help="decide a statement")
    p_decide.add_argument("statement")
    p_decide.add_argument(
        "--variety", choices=("lg", "rg", "abelian"), default="lg"
    )
    p_decide.add_argument(
        "--method",
        choices=("cis", "truncated", "derivation", "auto"),
        default="auto",
    )
    p_decide.add_argument(
        "--group", default=None,
        help=groups_help + "; without it, free:K (zn:K for --variety abelian)"
        " with K the highest generator index in the input",
    )
    search_options(p_decide)
    p_decide.add_argument(
        "--budget-ms", type=_count, default=None,
        help="checked between join sets and in the cis, truncated,"
        " derivation and rg searches, the presented-group closure and the"
        " abelian combination search",
    )
    p_decide.add_argument("--strict", action="store_true")
    p_decide.set_defaults(func=run_decide)

    p_extend = sub.add_parser(
        "extend-right", help="extend a word set to a right order"
    )
    p_extend.add_argument("words", help="word-set literal such as '{x*x, y}'")
    p_extend.add_argument(
        "--group", default=None,
        help=groups_help + "; without it, free:K with K the highest"
        " generator index in the input",
    )
    p_extend.set_defaults(func=run_extend_right)

    p_cert = sub.add_parser("certificate", help="certificate utilities")
    cert_sub = p_cert.add_subparsers(dest="certificate_command", required=True)
    p_check = cert_sub.add_parser("check", help="re-verify a certificate JSON")
    p_check.add_argument("path", help="certificate file, or - for stdin")
    p_check.add_argument("--group", default="free:2", help=groups_help)
    p_check.set_defaults(func=run_certificate_check)

    p_corpus = sub.add_parser("corpus", help="run a regression corpus")
    p_corpus.add_argument("path")
    search_options(p_corpus)
    p_corpus.set_defaults(func=run_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building costs far more than parsing
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # a short document is written only here, not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; the interpreter flushes stdout again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
