"""Spans around maxram's public functions, recorded from the benchmark's side.

Each wrapped function is rebound in every loaded maxram module that holds
it by name (for example `maxram.chromatic.find_copies` and
`maxram.validate.copy_hypergraph`), so calls between modules pass through
the wrapper. Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    command: int  # one id per CLI command; the root span is cli.main
    name: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.command = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.command, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in order"

    def wrap(self, fn, name, count=None):
        """fn inside a span; name may be a function of the result, and
        count(counts, result, args) adds counters at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else "?")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if not isinstance(name, str):
                span.name = name(result)
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def install(self, layers) -> None:
        """Rebind each (module, function, span name, counter) in every
        maxram module that imported the function."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "maxram"]
        for module_name, attr, name, count in layers:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def unbalanced_commands(spans: list[Span], selfs: dict[int, float]) -> list[int]:
    """Commands whose spans' self times do not add up to their root span."""
    total: dict[int, float] = defaultdict(float)
    root: dict[int, float] = {}
    for s in spans:
        total[s.command] += selfs[s.id]
        if s.parent is None:
            root[s.command] = s.end - s.start
    return [c for c in total if abs(total[c] - root.get(c, 0.0)) > 1e-9 * (1 + root.get(c, 0.0))]


# -- maxram's layers ------------------------------------------------------


def _add(key, of=len):
    def count(counts, result, args):
        counts[key] += of(result)

    return count


def _proved(layer):
    def count(counts, result, args):
        counts[f"{layer}.calls"] += 1
        counts[f"{layer}.proved"] += bool(result.optimal)

    return count


def _coloring(counts, result, args):
    counts["colorings.classes"] += result.class_count
    counts["colorings.boxes"] += sum(len(c) for c in result.classes)


def _written(counts, result, args):
    counts["io.bytes"] += os.path.getsize(args[0])


CERTIFICATES = (
    "copy_embedding_certificate",
    "copy_list_certificate",
    "anchor_sequence_certificate",
    "periodic_coloring_certificate",
    "chromatic_certificate",
    "torus_cover_certificate",
)

LAYERS = [
    ("maxram.metric", "find_copies", "metric.find_copies", _add("metric.copies")),
    ("maxram.chromatic", "copy_hypergraph", "chromatic.copy_hypergraph",
     _add("chromatic.edges", lambda h: len(h.edges))),
    ("maxram.chromatic", "exact_chromatic", "chromatic.exact_chromatic", _proved("chromatic")),
    ("maxram.cover", "exact_cover", "cover.exact_cover", _proved("cover")),
    ("maxram.cover", "greedy_cover", "cover.greedy_cover", None),
    ("maxram.cover", "is_cover", "cover.is_cover", None),
    ("maxram.cover", "random_cover_within_expectation", "cover.random_cover", None),
    ("maxram.colorings", "avoidance_coloring", "colorings.avoidance_coloring", _coloring),
    ("maxram.anchors", "build_anchor_sequence", "anchors.build", None),
    ("maxram.anchors", "verify_anchor_sequence", "anchors.verify", None),
    ("maxram.extraction", "extract_unit_baton", "extraction.extract", None),
    ("maxram.extraction", "extract_general_baton", "extraction.extract", None),
    *[("maxram.io", name, "io.certificate", None) for name in CERTIFICATES],
    ("maxram.io", "write_json", "io.write", _written),
    ("maxram.io", "read_json", "io.read", None),
    # validate spans are named after the kind the validator reports.
    ("maxram.validate", "validate_certificate", lambda report: f"validate.{report.kind}", None),
]

TIMED = [
    "metric.find_copies", "chromatic.copy_hypergraph", "chromatic.exact_chromatic",
    "cover.exact_cover", "cover.greedy_cover", "cover.is_cover", "cover.random_cover",
    "colorings.avoidance_coloring", "anchors.build", "anchors.verify",
    "extraction.extract", "io.certificate", "io.write", "io.read",
    "validate.chromatic", "validate.torus_cover", "validate.periodic_coloring",
    "validate.anchor_sequence", "validate.copy_embedding", "cli.main",
]
COUNTED = ["metric.copies", "chromatic.edges", "colorings.boxes", "colorings.classes", "io.bytes"]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self seconds per span name, counters, and proved fractions."""
    selfs = self_times(tracer.spans)
    seconds: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        seconds[s.name] += selfs[s.id]
    out = {f"{name}_s": seconds[name] for name in TIMED}
    out["cli.self_s"] = out.pop("cli.main_s")
    out.update({key: tracer.counts[key] for key in COUNTED})
    for layer in ("chromatic", "cover"):
        calls = tracer.counts[f"{layer}.calls"]
        out[f"{layer}.proved_frac"] = tracer.counts[f"{layer}.proved"] / calls if calls else 0.0
    return out
