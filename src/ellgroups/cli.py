"""Command-line surface: decide statements, extend word sets to truncated
right orders, re-check certificates, and run regression corpora.

Exit codes: 0 for any decided or unknown result, 1 for a failed corpus
line or rejected certificate, 2 for parse errors, 3 for budget-exceeded
under --strict, 4 for an invalid method/group combination.
"""

from __future__ import annotations

import argparse
import functools
import json
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
    return [render_word(w) for w in sorted(words)]


def _rational_json(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


def _sign_witness_json(verdict: LgInvalid, k: int) -> dict:
    autos = rightorder.counterexample_automorphisms(
        verdict.system.base, verdict.order, k
    )
    return {
        "classes": [
            {"rep": render_word(cls.rep), "sign": sign}
            for cls, sign in zip(verdict.system.classes, verdict.signs)
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


def _truncated_json(order: rightorder.TruncatedRightOrder) -> dict:
    return {"l": order.l, "positives": _word_list(order.positives)}


def _decide_joinset_lg(join, oracle, method: str, args) -> dict:
    is_free = isinstance(oracle, groups.FreeGroupOracle)
    if method == "auto":
        method = "cis" if is_free else "presented"
    if method in ("cis", "truncated") and not is_free:
        raise BadCombination(f"method {method} requires a free group")
    out: dict = {"join": _word_list(join)}
    if method == "cis":
        verdict = rightorder.decide_valid_lg(join)
        out["assignments"] = verdict.assignments_checked
        out["nodes"] = verdict.nodes_explored
        if isinstance(verdict, LgValid):
            out["verdict"] = "valid"
        else:
            out["verdict"] = "invalid"
            out["witness"] = _sign_witness_json(verdict, oracle.k)
    elif method == "truncated":
        witness = rightorder.clay_smith(join, oracle.k)
        if witness is None:
            out["verdict"] = "valid"
        else:
            out["verdict"] = "invalid"
            out["witness"] = _truncated_json(witness)
    elif method == "derivation":
        tree = derivation.search(
            frozenset(oracle.canonicalize(w) for w in join),
            derivation.RuleSystem.RIGHT_ORDER,
            oracle,
            max_depth=args.max_depth,
            universe_cap=args.universe_cap,
        )
        if tree is None:
            out["verdict"] = "unknown"
            out["budgets"] = {
                "max_depth": args.max_depth,
                "universe_cap": args.universe_cap,
            }
        else:
            out["verdict"] = "valid"
            out["certificate"] = derivation.tree_to_json(
                tree, derivation.RuleSystem.RIGHT_ORDER, oracle
            )
    else:  # presented
        verdict = groups.decide_presented_lg(
            join, oracle, radius=args.radius, depth=args.max_depth
        )
        out.update(_verdict_json(verdict, oracle))
    return out


def _verdict_json(verdict, oracle) -> dict:
    if isinstance(verdict, derivation.Valid):
        out = {"verdict": "valid", "method": verdict.method}
        if verdict.certificate is not None:
            system = (
                derivation.RuleSystem.BI_ORDER
                if any(n.rule == "exchange" for n in _walk(verdict.certificate))
                else derivation.RuleSystem.RIGHT_ORDER
            )
            out["certificate"] = derivation.tree_to_json(
                verdict.certificate, system, oracle
            )
        if verdict.details:
            out["details"] = dict(verdict.details)
        return out
    if isinstance(verdict, derivation.Invalid):
        witness = verdict.witness
        if isinstance(witness, LgInvalid):
            witness = _sign_witness_json(witness, oracle.k)
        return {"verdict": "invalid", "method": verdict.method, "witness": witness}
    return {"verdict": "unknown", "budgets": dict(verdict.budgets)}


def _walk(tree):
    yield tree
    for c in tree.children:
        yield from _walk(c)


def _decide_joinset_rg(join, k: int, args) -> dict:
    budgets = biorder.RgBudgets(
        search_depth=args.max_depth, universe_cap=args.universe_cap
    )
    verdict = biorder.decide_valid_rg(join, k, budgets)
    out: dict = {"join": _word_list(join)}
    if isinstance(verdict, derivation.Valid):
        out["verdict"] = "valid"
        out["method"] = verdict.method
        if verdict.certificate is not None:
            out["certificate"] = derivation.tree_to_json(
                verdict.certificate,
                derivation.RuleSystem.BI_ORDER,
                groups.FreeGroupOracle(k),
            )
    elif isinstance(verdict, derivation.Invalid):
        out["verdict"] = "invalid"
        out["witness"] = {
            "epsilon": list(verdict.witness["epsilon"]),
            "perm": list(verdict.witness["perm"]),
            "sign": verdict.witness["sign"],
        }
    else:
        out["verdict"] = "unknown"
        out["budgets"] = dict(verdict.budgets)
    return out


def _decide_joinset_abelian(join, oracle, args) -> dict:
    out: dict = {"join": _word_list(join)}
    points = frozenset(oracle.canonicalize(w) for w in join)
    if oracle.identity in points:
        out["verdict"] = "valid"
        out["method"] = "identity"
        return out
    outcome = biorder.decide_abelian_order_extension(points, oracle.k)
    if isinstance(outcome, biorder.DoesNotExtend):
        out["verdict"] = "valid"
        out["method"] = "abelian-duality"
        out["certificate"] = {
            "combination": [
                {"vector": list(v), "count": c} for v, c in outcome.combination
            ]
        }
    else:
        out["verdict"] = "invalid"
        out["method"] = "abelian-duality"
        out["witness"] = {"functional": list(outcome.functional)}
    return out


def _pick_oracle(args, statement_text: str):
    selector = args.group
    if selector is None:
        k = max(1, terms.max_var_index(statement_text))
        selector = f"zn:{k}" if args.variety == "abelian" else f"free:{k}"
    oracle = groups.oracle_from_selector(selector)
    if args.variety == "rg" and not isinstance(oracle, groups.FreeGroupOracle):
        raise BadCombination("variety rg is decided over free groups only")
    if args.variety == "abelian" and not isinstance(
        oracle, groups.IntLatticeOracle
    ):
        raise BadCombination("variety abelian requires a zn:K group")
    return oracle


def _aggregate(results: list[dict]) -> str:
    verdicts = [r["verdict"] for r in results]
    if "invalid" in verdicts:
        return "invalid"
    if "unknown" in verdicts:
        return "unknown"
    return "valid"


def run_decide(args) -> int:
    started = time.monotonic()
    try:
        oracle = _pick_oracle(args, args.statement)
        stmt = terms.parse_statement(args.statement, oracle.k)
    except BadCombination as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_COMBINATION
    except terms.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    nodes = terms.term_node_count(stmt.left) + terms.term_node_count(stmt.right)
    if nodes > args.max_term_nodes:
        print(
            f"error: statement has {nodes} term nodes,"
            f" over the --max-term-nodes limit of {args.max_term_nodes}",
            file=sys.stderr,
        )
        return EXIT_PARSE

    joinsets = terms.statement_to_joinsets(stmt)
    results = []
    try:
        for join in joinsets:
            if args.budget_ms is not None and (
                (time.monotonic() - started) * 1000 > args.budget_ms
            ):
                results.append(
                    {
                        "join": _word_list(join),
                        "verdict": "unknown",
                        "budgets": {"budget_ms": args.budget_ms},
                    }
                )
                continue
            if args.variety == "lg":
                results.append(
                    _decide_joinset_lg(join, oracle, args.method, args)
                )
            elif args.variety == "rg":
                if args.method not in ("auto", "derivation"):
                    raise BadCombination(
                        f"method {args.method} does not apply to variety rg"
                    )
                results.append(_decide_joinset_rg(join, oracle.k, args))
            else:
                if args.method != "auto":
                    raise BadCombination(
                        f"method {args.method} does not apply to variety abelian"
                    )
                results.append(_decide_joinset_abelian(join, oracle, args))
            if results[-1]["verdict"] == "invalid":
                break
    except BadCombination as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_COMBINATION

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
        doc["witness"] = results[-1].get("witness")
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
    selector = args.group or f"free:{max(1, terms.max_var_index(args.words))}"
    try:
        oracle = groups.oracle_from_selector(selector)
        word_set = terms.parse_word_set(args.words, oracle.k)
    except terms.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    doc: dict = {"group": oracle.name}
    if isinstance(oracle, groups.FreeGroupOracle):
        witness = rightorder.clay_smith(word_set, oracle.k)
        if witness is None:
            doc["verdict"] = "not-extendable"
        else:
            doc["verdict"] = "extendable"
            doc["witness"] = _truncated_json(witness)
    elif isinstance(oracle, groups.KleinBottleOracle):
        canonical = frozenset(oracle.canonicalize(w) for w in word_set)
        variant = groups._klein_cone_containing(canonical)
        if variant is None:
            doc["verdict"] = "not-extendable"
        else:
            doc["verdict"] = "extendable"
            doc["witness"] = {
                "variant": variant,
                "epsilon": list(groups.KLEIN_ORDER_VARIANTS[variant - 1]),
            }
    else:
        points = frozenset(oracle.canonicalize(w) for w in word_set)
        if oracle.identity in points:
            doc["verdict"] = "not-extendable"
        else:
            outcome = biorder.decide_abelian_order_extension(points, oracle.k)
            if isinstance(outcome, biorder.ExtendsToOrder):
                doc["verdict"] = "extendable"
                doc["witness"] = {"functional": list(outcome.functional)}
            else:
                doc["verdict"] = "not-extendable"
                doc["witness"] = {
                    "combination": [
                        {"vector": list(v), "count": c}
                        for v, c in outcome.combination
                    ]
                }
    doc["stats"] = {"millis": int((time.monotonic() - started) * 1000)}
    _emit(doc)
    return EXIT_OK


def _too_deep() -> int:
    # the parser and the checker recurse once per level of the document
    print("parse error: certificate nested too deeply", file=sys.stderr)
    return EXIT_PARSE


def run_certificate_check(args) -> int:
    oracle = groups.oracle_from_selector(args.group)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
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
        with open(args.path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

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
        verdict = _corpus_decide(variety, statement, args)
        ok = _corpus_expected_ok(expected, verdict)
        status = "pass" if ok else "FAIL"
        print(f"line {lineno}: {status}  [{variety}] {statement}  ->  {verdict}")
        if not ok:
            failures += 1
    print(f"{total - failures}/{total} lines passed")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _corpus_decide(variety: str, statement: str, args) -> str:
    k = max(1, terms.max_var_index(statement))
    try:
        stmt = terms.parse_statement(statement, k)
    except terms.ParseError:
        return "parse-error"
    joinsets = terms.statement_to_joinsets(stmt)
    verdicts = []
    for join in joinsets:
        if variety == "lg":
            v = rightorder.decide_valid_lg(join)
            verdicts.append("valid" if isinstance(v, LgValid) else "invalid")
        elif variety == "rg":
            budgets = biorder.RgBudgets(
                search_depth=args.max_depth, universe_cap=args.universe_cap
            )
            v = biorder.decide_valid_rg(join, k, budgets)
            if isinstance(v, derivation.Valid):
                verdicts.append("valid")
            elif isinstance(v, derivation.Invalid):
                verdicts.append("invalid")
            else:
                verdicts.append("unknown")
        else:
            oracle = groups.IntLatticeOracle(k)
            points = frozenset(oracle.canonicalize(w) for w in join)
            if oracle.identity in points:
                verdicts.append("valid")
            else:
                outcome = biorder.decide_abelian_order_extension(points, k)
                verdicts.append(
                    "valid"
                    if isinstance(outcome, biorder.DoesNotExtend)
                    else "invalid"
                )
        if verdicts[-1] == "invalid":
            return "invalid"
    if "unknown" in verdicts:
        return "unknown"
    return "valid"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellgroups",
        description="Decision procedures for lattice-ordered group validity "
        "and right-order extension over free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", default=None, help="free:K, zn:K, or klein")
        p.add_argument("--max-depth", type=int, default=5)
        p.add_argument("--universe-cap", type=int, default=32)
        p.add_argument("--radius", type=int, default=None)
        p.add_argument("--budget-ms", type=int, default=None)
        p.add_argument(
            "--max-term-nodes", type=int, default=10_000,
            help="reject statements whose syntax tree is larger than this "
            "(normalization can be exponential in it)",
        )
        p.add_argument("--json", action="store_true", default=True,
                       help="JSON output (the default)")
        p.add_argument("--strict", action="store_true")

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
    common(p_decide)
    p_decide.set_defaults(func=run_decide)

    p_extend = sub.add_parser(
        "extend-right", help="extend a word set to a right order"
    )
    p_extend.add_argument("words", help="word-set literal such as '{x*x, y}'")
    common(p_extend)
    p_extend.set_defaults(func=run_extend_right)

    p_cert = sub.add_parser("certificate", help="certificate utilities")
    cert_sub = p_cert.add_subparsers(dest="certificate_command", required=True)
    p_check = cert_sub.add_parser("check", help="re-verify a certificate JSON")
    p_check.add_argument("path", help="certificate file, or - for stdin")
    p_check.add_argument("--group", default="free:2")
    p_check.set_defaults(func=run_certificate_check)

    p_corpus = sub.add_parser("corpus", help="run a regression corpus")
    p_corpus.add_argument("path")
    common(p_corpus)
    p_corpus.set_defaults(func=run_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building costs far more than parsing
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
