"""Spans and counters around pdial's layer boundaries, installed from outside.

:class:`Tracer` replaces pdial functions at the names their callers look
them up (``pdial.cli.train``, ``pdial.pca.jacobi_eigh``,
``pdial._http.post_json``, ...) with wrappers that record a span or bump
a counter, and puts the originals back on :meth:`Tracer.uninstall`. Spans
are kept in memory; :func:`write_spans` saves them when the run ends.

A span whose thread has no open span (an HTTP call on an executor
thread, say) is parented to the command span that is open at the time.
A span's self time is its duration minus the union of its children's
intervals, so concurrent children are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

SPAN = "span"
COUNT = "count"

# (defining module, function, recorded name, kind, only these caller modules)
TARGETS: tuple[tuple[str, str, str, str, tuple[str, ...] | None], ...] = (
    ("pdial.embedding", "embed_batch", "embedding.embed_batch", SPAN, None),
    ("pdial._http", "post_json", "http.post_json", SPAN, None),
    ("pdial.llm_client", "complete", "llm_client.complete", SPAN, None),
    ("pdial.metric", "train", "metric.train", SPAN, None),
    ("pdial.pca", "fit_pca", "pca.fit_pca", SPAN, None),
    ("pdial.pca", "jacobi_eigh", "pca.jacobi_eigh", SPAN, None),
    ("pdial.evaluation", "cluster_similarity_report", "evaluation.cluster_similarity_report", SPAN, None),
    ("pdial.optimizer", "brute_force_search", "optimizer.search", SPAN, None),
    ("pdial.optimizer", "gcd_search", "optimizer.search", SPAN, None),
    ("pdial.optimizer", "cluster_centroid", "optimizer.cluster_centroid", SPAN, None),
    ("pdial.metric", "cosine_similarity", "evaluation.cosine_calls", COUNT, ("pdial.evaluation",)),
    ("pdial.optimizer", "render_prompt", "optimizer.visits", COUNT, None),
    ("pdial.optimizer", "perspective_of_output", "optimizer.perspective_of_output.calls", COUNT, None),
)
PERSISTENCE_PREFIXES = ("save_", "load_")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None
    n: int = 0  # size of the work item: texts embedded, matrix order
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._command: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, n: int = 0) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._command.id if self._command else None
        with self._lock:
            span_id = next(self._ids)
        command = self._command.id if self._command else None
        span = Span(span_id, name, time.perf_counter(), 0.0, parent, command, n)
        stack.append(span)
        return span

    def _close(self, span: Span, failed: bool) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def command(self, name: str, fn: Callable[[], int]) -> int:
        """Run one CLI command as the root span that its spans belong to."""
        span = self._open(name)
        span.command = span.id
        self._command = span
        failed = True
        try:
            result = fn()
            failed = result != 0
            return result
        finally:
            self._command = None
            self._close(span, failed)

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, _work_size(name, args))
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(span, failed)

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target at every pdial module attribute bound to it.

        Targets a refactor has removed are skipped, so their metrics read 0.
        """
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("pdial") and mod}
        wrappers: dict[int, Callable] = {}
        for defining, func_name, name, kind, callers in TARGETS:
            original = getattr(modules.get(defining), func_name, None)
            if original is None:
                continue
            wrap = self._span_wrapper if kind == SPAN else self._count_wrapper
            for mod_name, mod in modules.items():
                if callers is not None and mod_name not in callers:
                    continue
                self._patch_identical(mod, original, wrappers, lambda: wrap(original, name))
        persistence = modules.get("pdial.persistence")
        for attr in dir(persistence) if persistence else ():
            original = getattr(persistence, attr)
            if attr.startswith(PERSISTENCE_PREFIXES) and callable(original):
                for mod in modules.values():
                    self._patch_identical(
                        mod, original, wrappers,
                        lambda o=original, a=attr: self._span_wrapper(o, f"persistence.{a}"),
                    )

    def _patch_identical(self, mod, original, wrappers: dict, make: Callable[[], Callable]) -> None:
        for attr, value in list(vars(mod).items()):
            if value is original:
                if id(original) not in wrappers:
                    wrappers[id(original)] = make()
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _work_size(name: str, args: tuple) -> int:
    if name == "embedding.embed_batch" and args:
        return len(args[0])
    if name == "pca.jacobi_eigh" and args:
        return len(args[0])
    return 0


# -- aggregation -----------------------------------------------------------


def span_problems(spans: list[Span]) -> list[str]:
    """Spans whose self time is negative or exceeds their duration."""
    selfs = self_times(spans)
    return [
        f"span {s.name} (id {s.id}) has self time {selfs[s.id]:.6f} s of {s.duration:.6f} s"
        for s in spans
        if not -1e-9 <= selfs[s.id] <= s.duration + 1e-9
    ]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children's intervals cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - union_length(children[s.id]) for s in spans}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer(name: str) -> str:
    """The layer a span belongs to: its name, with every ``persistence.*``
    function folded into ``persistence`` and every command into ``cli``."""
    for prefix in ("persistence", "cli"):
        if name.startswith(prefix + "."):
            return prefix
    return name


LAYERS = sorted({layer(t[2]) for t in TARGETS if t[3] == SPAN} | {"persistence", "cli"})


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer figures of one pass: busy time (the union of the layer's
    span intervals), self time, and counts.

    Figures that need the written artifacts or the stub (SGD steps,
    evaluations, retries) are added by the caller.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in LAYERS:
        mine = [s for s in spans if layer(s.name) == name]
        out[f"{name}.busy_s"] = union_length([(s.start, s.end) for s in mine])
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in mine)
    posts = [s for s in spans if s.name == "http.post_json"]
    embeds = [s for s in spans if s.name == "embedding.embed_batch"]
    out.update({
        "pca.jacobi_eigh.n": max((s.n for s in spans if s.name == "pca.jacobi_eigh"), default=0),
        "evaluation.cosine_calls": counts["evaluation.cosine_calls"],
        "embedding.embed_batch.calls": len(embeds),
        "embedding.embed_batch.texts": sum(s.n for s in embeds),
        "http.post_json.calls": len(posts),
        "http.post_json.p50_ms": percentile([s.duration * 1e3 for s in posts], 50),
        "http.post_json.p90_ms": percentile([s.duration * 1e3 for s in posts], 90),
        "http.failures": sum(s.failed for s in posts),
        "llm_client.complete.calls": sum(s.name == "llm_client.complete" for s in spans),
        "optimizer.visits": counts["optimizer.visits"],
        "optimizer.perspective_of_output.calls": counts["optimizer.perspective_of_output.calls"],
    })
    return out


def write_spans(path: Path, spans: list[Span]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps(asdict(span)) + "\n")
