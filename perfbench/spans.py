"""Spans and counters around the public functions of the program's layers.

The tracer replaces a function on its module and under every name another
``ellgroups`` module imported it by, records one span per call in memory,
and puts the originals back on ``uninstall``. A layer's self time is its
span minus the spans of the traced calls it made, scaled like every
benchmark time by the host-speed correction of its chunk (see run.py).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); "biorder.abelian" is split by its result
SPANS = (
    ("rightorder", "clay_smith", "rightorder.truncated"),
    ("rightorder", "product_closure_in_ball", "rightorder.closure"),
    ("rightorder", "decide_valid_lg", "rightorder.cis"),
    ("rightorder", "build_difference_system", "rightorder.system"),
    ("rightorder", "counterexample_automorphisms", "rightorder.witness"),
    ("words", "difference_classes", "words.difference_classes"),
    ("terms", "parse_statement", "terms.parse"),
    ("terms", "statement_to_joinsets", "terms.normalize"),
    ("derivation", "search", "derivation.search"),
    ("derivation", "bounded_closure_with_parents", "derivation.closure"),
    ("derivation", "check", "derivation.check"),
    ("derivation", "tree_to_json", "derivation.json"),
    ("derivation", "tree_from_json", "derivation.json"),
    ("groups", "decide_presented_lg", "groups.presented"),
    ("biorder", "decide_valid_rg", "biorder.rg"),
    ("biorder", "magnus_expand", "biorder.magnus"),
    ("biorder", "decide_abelian_order_extension", "biorder.abelian"),
    ("cli", "main", "cli.self"),
)

# per-layer metrics: self-time spans in ms per verdict, then counters
TIME_METRICS = (
    "rightorder.truncated", "rightorder.closure", "rightorder.cis",
    "rightorder.system", "words.difference_classes", "rightorder.witness",
    "cli.self", "biorder.abelian_refutes", "biorder.abelian_extends",
    "derivation.search", "derivation.closure", "derivation.check",
    "derivation.json", "biorder.rg", "biorder.magnus", "groups.presented",
    "terms.parse", "terms.normalize",
)
COUNT_METRICS = (
    "rightorder.closures", "words.products", "rightorder.cis_nodes",
    "derivation.searches", "biorder.magnus_calls", "terms.joinsets",
    "terms.join_words",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.combination_sizes: list[int] = []
        self.patched: list[tuple[object, str, object]] = []
        self.paused = False  # set while the benchmark checks an output
        self.marks: list[tuple[int, float]] = []  # (spans so far, chunk's scale)

    def _observe(self, name: str, result) -> str:
        if name == "rightorder.cis":
            self.counts["rightorder.cis_nodes"] += result.nodes_explored
        elif name == "rightorder.closure":
            self.counts["rightorder.closures"] += 1
        elif name == "derivation.search":
            self.counts["derivation.searches"] += 1
        elif name == "biorder.magnus":
            self.counts["biorder.magnus_calls"] += 1
        elif name == "terms.normalize":
            self.counts["terms.joinsets"] += len(result)
            self.counts["terms.join_words"] += sum(len(j) for j in result)
        elif name == "biorder.abelian":
            combination = getattr(result, "combination", None)
            if combination is None:
                return "biorder.abelian_extends"
            self.combination_sizes.append(sum(c for _, c in combination))
            return "biorder.abelian_refutes"
        return name

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)  # reserve the id so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            label = name
            try:
                result = fn(*args, **kwargs)
                label = self._observe(name, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (label, start, end, parent)

        return traced

    def _counter(self, fn):
        counts = self.counts

        def counted(*args):
            if not self.paused:
                counts["words.products"] += 1
            return fn(*args)

        return counted

    def _replace(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "ellgroups" and not name.startswith("ellgroups."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self.patched.append((module, attr, original))

    def install(self, modules: dict) -> None:
        for module, function, name in SPANS:
            original = getattr(modules[module], function)
            self._replace(original, self._span(name, original))

    def install_counter(self, modules: dict) -> None:
        """Count calls to ``concat_reduce``. It is called thousands of times
        per verdict, so the counter runs in a pass of its own, without
        spans, and its cost shows in no layer's self time."""
        original = modules["words"].concat_reduce
        self._replace(original, self._counter(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def mark(self, scale: float) -> None:
        """The spans since the last mark belong to a chunk with this scale."""
        self.marks.append((len(self.spans), scale))

    def scales(self) -> list[float]:
        out: list[float] = []
        for end, scale in self.marks:
            out += [scale] * (end - len(out))
        return out + [1.0] * (len(self.spans) - len(out))

    def self_seconds(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, ((name, start, end, parent), scale) in enumerate(
            zip(self.spans, self.scales())
        ):
            out[name] += (end - start - child[sid]) * scale
        return out

    def metrics(self, verdicts: int) -> dict[str, dict]:
        selfs = self.self_seconds()
        out = {}
        for name in TIME_METRICS:
            out[name + "_ms"] = {
                "value": selfs.get(name, 0.0) * 1e3 / verdicts,
                "unit": "ms/verdict",
            }
        for name in COUNT_METRICS:
            out[name] = {"value": self.counts[name] / verdicts, "unit": "count/verdict"}
        sizes = self.combination_sizes
        out["biorder.combination_size"] = {
            "value": sum(sizes) / len(sizes) if sizes else 0.0,
            "unit": "count",
        }
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tscale\n")
            for sid, ((name, start, end, parent), scale) in enumerate(
                zip(self.spans, self.scales())
            ):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{scale:.6f}\n")
