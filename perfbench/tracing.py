"""Span recording from outside the program, for the traced run.

The traced run wraps the public methods of the layer objects a service
holds — at class level, so the suggesters a live-update install builds
later are covered too — and records one span per call:

    (request id, span id, parent span id, layer, op, start, end, extra)

Spans of one request share its id; the parent is the span that was
open on the calling thread (or, for a service call arriving from the
HTTP tier, the client's round-trip span of the same request id).
Spans stay in memory and are written out as JSON lines when the run
ends.  A layer's self time is its span's duration minus the durations
of its child spans.

Nothing here runs in the untraced runs that produce the end-to-end
metrics; the wrappers are installed only by :meth:`Tracer.install`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

from common import percentile, ratio

#: Per-layer metric (by name prefix) → the end-to-end metric and
#: workload it should move.  Printed beside every traced number, so a
#: change claiming a layer gain can be held to the end-to-end number it
#: predicted.
#: Zipf-driven numbers (see ``workloads.ZIPF_EXPONENT``) say so: their
#: exponent is not fitted to a query log.
UNVERIFIED_ZIPF = " (Zipf exponent unverified: do not judge changes by it)"
MOVES = {
    "net.": "suggest_p50_ms, success_rate, max_rate_rps on zipf-http; "
            "nothing on cold-tail" + UNVERIFIED_ZIPF,
    "server.result_cache.": "suggest_p50_ms on zipf-http"
                            + UNVERIFIED_ZIPF,
    "server.": "suggest_p50_ms on zipf-http; update_ack_p50_ms on "
               "live-mix",
    "shards.": "throughput_qps on sharded-cold",
    "cleaner.": "throughput_qps on cold-tail and sharded-cold; "
                "suggest_p99_ms on zipf-http",
    "fastss.": "throughput_qps on cold-tail; nothing on zipf-http p50",
    "index.": "throughput_qps on cold-tail",
    "result_type.": "throughput_qps on cold-tail",
    "tokenizer.": "nothing (reconciliation only)",
    "live.read_after_write": "suggest_p50_ms on live-mix"
                             + UNVERIFIED_ZIPF,
    "live.": "update_ack_p50_ms, suggest_p50_ms, suggest_p99_ms, "
             "compact_s on live-mix",
    "wal.": "update_ack_p50_ms on live-mix",
    "compaction.read_p99": "suggest_p99_ms on live-mix" + UNVERIFIED_ZIPF,
    "compaction.": "compact_s on live-mix",
    "snapshot.": "setup_s on every workload",
    "trace.": "nothing (measures the tracer itself)",
    "loadgen.": "nothing (checks the open loop of zipf-http)",
    # Workload-specific end-to-end numbers, reported here because the
    # end-to-end list holds only metrics every workload has.
    "max_rate_rps": "itself, on zipf-http" + UNVERIFIED_ZIPF,
    "update_ack_": "itself, on live-mix",
    "compact_s": "itself, on live-mix",
}


def moves(metric: str) -> str:
    """The end-to-end metric and workload ``metric`` should move."""
    for prefix, target in MOVES.items():
        if metric.startswith(prefix):
            return target
    raise KeyError(metric)


class Tracer:
    """In-memory span store plus the class-level method wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots: dict[str, int] = {}
        self._restore: list[tuple] = []
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, op, fn, args, kwargs, rid=None, root=False,
             extra=None):
        """Run ``fn`` inside a span.

        ``extra`` is an optional ``(before(args), after(args, result,
        before))`` pair whose ``after`` value is stored with the span.
        """
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1]
            rid = rid if rid is not None else inherited
        else:
            parent = self._roots.get(rid, 0) if rid is not None else 0
        span_id = next(self._ids)
        if root and rid is not None:
            with self._lock:
                self._roots[rid] = span_id
        before = extra[0](args) if extra else None
        stack.append((span_id, rid))
        began = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            ended = perf_counter()
            stack.pop()
            note = extra[1](args, result, before) if extra else None
            self.spans.append(
                (rid, span_id, parent, layer, op, began, ended, note)
            )

    def reserve_root(self, rid) -> int:
        """Allocate the id of a root span recorded later by the caller
        (the HTTP client's round trip), so server spans can parent it."""
        span_id = next(self._ids)
        with self._lock:
            self._roots[rid] = span_id
        return span_id

    def root(self, layer, rid, fn, *args, **kwargs):
        """A request's top-level span, opened by the benchmark."""
        return self.call(layer, "request", fn, args, kwargs, rid=rid,
                         root=True)

    # -- wrapping -----------------------------------------------------

    def wrap(self, cls, name, layer, rid_kwarg=None, extra=None):
        original = cls.__dict__[name]
        tracer = self

        def wrapper(*args, **kwargs):
            rid = kwargs.get(rid_kwarg) if rid_kwarg else None
            return tracer.call(layer, name, original, args, kwargs,
                               rid=rid, extra=extra)

        wrapper.__wrapped__ = original
        setattr(cls, name, wrapper)
        self._restore.append((cls, name, original))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        from repro.core.cleaner import XCleanSuggester
        from repro.core.result_type import ResultTypeFinder
        from repro.core.server import SuggestionService
        from repro.core.shards import ShardedSuggestionService
        from repro.fastss.generator import VariantGenerator
        from repro.index.compaction import LiveIndexManager
        from repro.index.corpus import QueryEngineMixin
        from repro.index.delta import OverlayVariantGenerator
        from repro.index.tokenizer import Tokenizer

        def counter(attr):
            return lambda args: getattr(args[0], attr, 0)

        variants_note = (
            counter("cache_misses"),
            lambda args, result, before: (
                getattr(args[0], "cache_misses", 0) - before,
                len(result or ()),
            ),
        )
        merged_note = (
            counter("merged_cache_misses"),
            lambda args, result, before: (
                args[0].merged_cache_misses - before,
                result.columns.length if result is not None else 0,
            ),
        )
        stats_note = (
            lambda args: None,
            lambda args, result, before: (
                dataclasses.asdict(result[1]) if result is not None
                else None
            ),
        )
        rows_note = (
            lambda args: None,
            lambda args, result, before: (
                len(result[0]) if result is not None else 0
            ),
        )
        for cls in (SuggestionService, ShardedSuggestionService):
            layer = "server" if cls is SuggestionService else "shards"
            self.wrap(cls, "suggest_detailed", layer, rid_kwarg="trace_id",
                      extra=stats_note)
            self.wrap(cls, "apply_updates", layer)
            self.wrap(cls, "compact", layer)
        self.wrap(SuggestionService, "swap_snapshot", "server")
        self.wrap(XCleanSuggester, "suggest", "cleaner")
        self.wrap(XCleanSuggester, "partial_rows", "cleaner",
                  extra=rows_note)
        self.wrap(VariantGenerator, "variants", "fastss",
                  extra=variants_note)
        self.wrap(OverlayVariantGenerator, "variants", "fastss",
                  extra=variants_note)
        self.wrap(QueryEngineMixin, "merged_list_packed", "index",
                  extra=merged_note)
        self.wrap(ResultTypeFinder, "find", "result_type")
        self.wrap(Tokenizer, "tokenize", "tokenizer")
        self.wrap(LiveIndexManager, "apply", "live")
        self.wrap(LiveIndexManager, "compact", "live")

    def uninstall(self) -> None:
        while self._restore:
            cls, name, original = self._restore.pop()
            setattr(cls, name, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rid, sid, parent, layer, op, began, ended, note in (
                self.spans
            ):
                handle.write(json.dumps({
                    "request": rid, "span": sid, "parent": parent,
                    "layer": layer, "op": op, "start": began,
                    "end": ended, "extra": note,
                }) + "\n")

    # -- analysis -----------------------------------------------------

    def analyse(self) -> "Analysis":
        return Analysis(self.spans)


class Analysis:
    """Self times and per-layer counts from a finished span list.

    Only spans of requests — rooted in a benchmark ``request`` span or
    an HTTP client's ``net`` round trip — count as request time: a
    compaction running beside the reads tokenizes and indexes too.
    """

    def __init__(self, spans):
        roots = [s for s in spans if s[2] == 0 and s[3] in ("request", "net")]
        rids = {s[0] for s in roots if s[0] is not None}
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[2]:
                child_time[span[2]] += span[6] - span[5]
        self.self_time = {
            s[1]: (s[6] - s[5]) - child_time.get(s[1], 0.0) for s in spans
        }
        self.all_spans = spans
        self.spans = [s for s in spans if s[0] in rids]
        layer_of = {s[1]: s[3] for s in spans}
        #: Per-request CleaningStats (as dicts) of the outermost service
        #: call of each request.
        self.stats = [
            s[7] for s in self.spans
            if s[3] in ("server", "shards") and s[4] == "suggest_detailed"
            and layer_of.get(s[2]) not in ("server", "shards")
            and s[7] is not None
        ]
        self.roots = roots
        self.wall = sum(s[6] - s[5] for s in roots)

    def of(self, layer, op=None):
        return [
            s for s in self.spans
            if s[3] == layer and (op is None or s[4] == op)
        ]

    def self_ms(self, layer, op=None, spans=None) -> list[float]:
        """Per-request self time of ``layer`` (summed over its spans)."""
        per_request: dict[str, float] = defaultdict(float)
        for span in spans if spans is not None else self.of(layer, op):
            per_request[span[0]] += self.self_time[span[1]]
        return [1e3 * v for v in per_request.values()]

    def share(self, layer) -> float:
        busy = sum(self.self_time[s[1]] for s in self.of(layer))
        return ratio(busy, self.wall)

    def unattributed_share(self) -> float:
        """Self time of benchmark-owned roots over request wall time."""
        idle = sum(
            self.self_time[s[1]] for s in self.roots if s[3] == "request"
        )
        return ratio(idle, self.wall)


def p(values, q) -> float:
    """Percentile that reads 0 for a layer a workload never enters."""
    return percentile(values, q) if values else 0.0
