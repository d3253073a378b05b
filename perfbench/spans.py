"""Spans around tritree's public functions, recorded from outside the package.

`install` replaces each listed function wherever a tritree module binds it,
as a module global or a class attribute, by a wrapper that opens a span or
bumps a counter.  Spans are kept in memory; each has a name, start, end,
parent and job id, and counts made while it is the innermost open span.
`records` writes them in the schema {n, stage, seconds, counters} so that
runtime stats can reuse it: the span's own ids and start time travel as
integer counters.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Iterator

# Stage name -> (module, attribute, size counter taken from the result).
SPANS = {
    "cli.main": ("cli", "main", None),
    "core.from_table_text": ("core", "TernaryMap.from_table_text", None),
    "core.build_ternary": ("core", "build_ternary", None),
    "core.to_table_text": ("core", "TernaryMap.to_table_text", None),
    "tree.parse_newick": ("tree", "parse_newick", None),
    "tree.encode": ("tree", "ColoredTree.encode", None),
    "tree.write_newick": ("tree", "write_newick", None),
    "checks.verify_metric": ("checks", "verify_metric", None),
    "checks.check_condition3": ("checks", "check_condition3", "violations"),
    "checks.check_condition4": ("checks", "check_condition4", "violations"),
    "checks.check_star": ("checks", "check_star", "violations"),
    "quartets.generate_quartets": ("quartets", "generate_quartets", "emitted"),
    "reconstruct.reconstruct_tree": ("reconstruct", "reconstruct_tree", None),
    "reconstruct.equivalence_classes": ("reconstruct", "equivalence_classes", None),
    "reconstruct.contract_class": ("reconstruct", "contract_class", None),
}
# Hot functions get a call counter (and a hit counter: result is not None)
# on the enclosing span instead of a span of their own.
COUNTERS = {
    "checks.partition_profile": ("checks", "partition_profile"),
    "quartets.resolved_quartet": ("quartets", "resolved_quartet"),
    "reconstruct.merge_symbol": ("reconstruct", "merge_symbol"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int
    job: int
    n: int
    start: int = 0
    end: int = 0
    counters: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Spans of the current process, kept in memory until `records` is called."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.job = -1
        self.n = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), name, parent, self.job, self.n)
        self.spans.append(span)
        self._open.append(span)
        span.start = perf_counter_ns()
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            self._open.pop()

    def count(self, name: str, hit: bool) -> None:
        counters = self._open[-1].counters
        counters[name] = counters.get(name, 0) + 1
        if hit:
            counters[name + ".hits"] = counters.get(name + ".hits", 0) + 1

    def records(self) -> Iterator[dict]:
        origin = self.spans[0].start if self.spans else 0
        for s in self.spans:
            ids = {"job": s.job, "span": s.id, "parent": s.parent, "start_ns": s.start - origin}
            yield {"n": s.n, "stage": s.name, "seconds": (s.end - s.start) / 1e9, "counters": {**ids, **s.counters}}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records():
                out.write(json.dumps(record) + "\n")


def _spanned(rec: Recorder, stage: str, fn: Callable, size: str | None) -> Callable:
    def wrapper(*args, **kwargs):
        with rec.span(stage) as span:
            result = fn(*args, **kwargs)
            if size is not None:
                span.counters[size] = len(result)
        return result

    return wrapper


def _counted(rec: Recorder, stage: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.count(stage, result is not None)
        return result

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every listed function in every tritree module that binds it.

    Returns a function that puts the originals back.
    """
    modules = [m for name, m in sys.modules.items() if name == "tritree" or name.startswith("tritree.")]
    undo: list[tuple[object, str, object]] = []

    def replace(mod: str, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        owner = sys.modules[f"tritree.{mod}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[method]
            undo.append((cls, method, raw))
            setattr(cls, method, classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw))
            return
        original = getattr(owner, attr)
        wrapped = wrap(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)

    for stage, (mod, attr, size) in SPANS.items():
        replace(mod, attr, lambda fn: _spanned(rec, stage, fn, size))
    for stage, (mod, attr) in COUNTERS.items():
        replace(mod, attr, lambda fn: _counted(rec, stage, fn))

    def uninstall() -> None:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)

    return uninstall


def stage_table(rec: Recorder) -> dict[tuple[str, str], tuple[int, float]]:
    """(stage, parent stage) -> (calls, self seconds) for every pair seen."""
    spans = rec.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    rows: dict[tuple[str, str], tuple[int, float]] = {}
    for s in spans:
        key = (s.name, spans[s.parent].name if s.parent >= 0 else "-")
        calls, seconds = rows.get(key, (0, 0.0))
        rows[key] = (calls + 1, seconds + (s.end - s.start - child_ns[s.id]) / 1e9)
    return dict(sorted(rows.items()))


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer figures: self times, calls and counts, by stage and parent."""
    rows = stage_table(rec)

    def self_s(stage: str, parent: str | None = None) -> float:
        return sum(t for (name, p), (_, t) in rows.items() if name == stage and parent in (None, p))

    def calls(stage: str) -> int:
        return sum(c for (name, _), (c, _) in rows.items() if name == stage)

    def count(name: str, stage: str | None = None) -> int:
        return sum(s.counters.get(name, 0) for s in rec.spans if stage in (None, s.name))

    def hit_ratio(name: str) -> float:
        total = count(name)
        return count(name + ".hits") / total if total else 0.0

    checks = ("checks.check_condition3", "checks.check_condition4", "checks.check_star")
    return {
        "cli.self_s": self_s("cli.main"),
        "core.parse_s": self_s("core.from_table_text"),
        "core.build_s": self_s("core.build_ternary"),
        "core.build_calls": calls("core.build_ternary"),
        "core.write_s": self_s("core.to_table_text"),
        "tree.parse_newick_s": self_s("tree.parse_newick"),
        "tree.encode_s": self_s("tree.encode", "cli.main"),
        "tree.write_newick_s": self_s("tree.write_newick"),
        "checks.cond3_s": self_s(checks[0]),
        "checks.cond4_s": self_s(checks[1]),
        "checks.star_s": self_s(checks[2]),
        "checks.profiles": count("checks.partition_profile"),
        "checks.violations": sum(count("violations", stage) for stage in checks),
        "quartets.generate_s": self_s("quartets.generate_quartets"),
        "quartets.resolver_calls_checks": count("quartets.resolved_quartet", checks[2]),
        "quartets.resolver_calls_quartets": count(
            "quartets.resolved_quartet", "quartets.generate_quartets"
        ),
        "quartets.emitted": count("emitted"),
        "quartets.resolver_hit_ratio": hit_ratio("quartets.resolved_quartet"),
        "reconstruct.total_s": sum(
            (s.end - s.start) / 1e9 for s in rec.spans if s.name == "reconstruct.reconstruct_tree"
        ),
        "reconstruct.classes_s": self_s("reconstruct.equivalence_classes"),
        "reconstruct.merge_calls": count("reconstruct.merge_symbol"),
        "reconstruct.merge_hit_ratio": hit_ratio("reconstruct.merge_symbol"),
        "reconstruct.contract_s": self_s("reconstruct.contract_class"),
        "reconstruct.contractions": calls("reconstruct.contract_class"),
        "reconstruct.certify_s": self_s("tree.encode", "reconstruct.reconstruct_tree"),
    }
