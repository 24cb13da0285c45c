"""The four workloads of the serving-stack benchmark.

Each workload builds its corpus and service (timed as set-up), drives
load for the requested number of seconds, checks the answers, and
returns a :class:`Run`.  With ``trace=True`` it instead runs the same
inputs twice on fresh services — once untraced, once with the layer
wrappers of ``tracing.py`` installed — and reports per-layer numbers
and the tracing overhead.  End-to-end metrics come only from untraced
runs.

All load comes from this one process: one closed-loop caller for the
in-process workloads, at most ``nproc`` keep-alive connections for the
HTTP one.

Set-up time, and the latencies and throughput of the cold workloads,
are at reference speed (see ``speed.py``), their wall-clock values
reported beside them; the latencies of zipf-http and live-mix are
wall-clock, since their service runs in another process or beside a
second thread that the per-query probe cannot follow.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import common
import speed
from checks import ValidityOracle, answer_bytes
from common import K, beyond, median, percentile, ratio
from tracing import Tracer, p

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The labelled subset behind ``mrr``: fixed, independent of the run
#: seed, so the metric only moves when answers change.
MRR_SEED = 20110411
MRR_CLEAN_QUERIES = 60

#: cold-tail and sharded-cold: unmeasured distinct queries asked first,
#: and the measured queries after which the service's peak RSS is read.
#: The service's memory grows with the distinct queries it has served
#: (its result cache fills), so it is read at a fixed count, below what
#: a run usually serves, and not at the end of a run whose length in
#: queries would make a faster service look bigger.
WARMUP_QUERIES = 400
RSS_QUERIES = 2500

#: Clean queries drawn per measured second for the cold workloads; each
#: yields two typos, so the pool outlasts a service several times
#: faster than the ~100-300 q/s measured so far.
POOL_RATE = 400

#: HTTP answers compared byte for byte with in-process ones per run,
#: and the stride of the closed-loop answers sharded-cold compares
#: with a single-index reference.
IDENTITY_SAMPLE = 40
IDENTITY_STRIDE = 80

#: The Zipf exponent s of the read traffic of zipf-http and live-mix
#: (query at rank r drawn with probability ∝ 1/r^s).  It is
#: ``ZipfSampler``'s default, classic Zipf's law, and is NOT fitted to
#: any query log: until a measured exponent with its source is in the
#: repository, the per-layer numbers it drives (result-cache hit ratio,
#: ``net.*``, ``live.read_after_write_ms``, compaction read p99) must
#: not be used to judge result-cache or front-end changes.
ZIPF_EXPONENT = 1.0

#: zipf-http: distinct typos drawn Zipf-distributed, the open-loop
#: rate the latency is measured at, the ladder probed for the highest
#: sustainable rate, and the latency limit on p99 (ms).
ZIPF_CLEAN_QUERIES = 1500
ZIPF_RATE = 80.0
ZIPF_LADDER = (40.0, 60.0, 90.0, 135.0, 200.0, 300.0, 450.0)
LADDER_STEP_S = 2.0
LATENCY_LIMIT_MS = 250.0

#: live-mix: one write every WRITE_EVERY operations.
WRITE_EVERY = 20
LIVE_CLEAN_QUERIES = 1000


#: Why the workloads that BENCHMARK.json does not list exist.  They
#: run by name, with their checks.  BENCHMARK.json leaves them out:
#: on a shared 2-vCPU host, zipf-http's open-loop latencies spread by
#: 0.2-0.55 of their median over ten seeds (at Zipf exponents 1.1-1.5,
#: rates 40-160 rps), and a third listed
#: workload only fits the run-time budget at runs too short to keep
#: the others' spreads inside the bounds.  The traced cold-tail run
#: takes their layers' numbers from short traced passes of each.
UNLISTED_WHY = {
    "zipf-http": "Zipf-drawn DBLP typos over keep-alive HTTP at a fixed "
                 "rate: hits make p50 net-bound, misses put the engine "
                 "in the tail (Zipf exponent unverified)",
    "live-mix": "Zipf reads beside fsync-acked subtree adds, then a "
                "compaction: each ack resets the caches the reads rely on "
                "(Zipf exponent unverified)",
}


@dataclass
class Run:
    metrics: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Measurement-quality notes (too few samples for a percentile);
    #: printed and recorded, but they do not fail the run.
    warnings: list = field(default_factory=list)
    #: Numbers printed and recorded but not gated: name -> (value,
    #: unit, samples).
    reported: dict = field(default_factory=dict)
    #: Traced metrics measured on another workload: name -> workload.
    sources: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    def put(self, name, value, unit, samples=None):
        self.metrics[name] = value
        self.units[name] = unit
        if samples is not None:
            self.samples[name] = samples

    def report(self, name, value, unit, samples=None):
        self.reported[name] = (value, unit, samples)


def _latency_metrics(run: Run, latencies_ms, failures: int,
                     run_ms: float) -> None:
    """p50/p95/p99 where a failed request counts as missing every limit."""
    sample = list(latencies_ms) + [float("inf")] * failures
    n = len(sample)
    if n == 0:
        raise RuntimeError("no request completed")
    if beyond(n, 99) < 10:
        run.warnings.append(
            f"only {n} latency samples: p99 needs 10 beyond it"
        )

    def at(q):
        value = percentile(sample, q)
        return value if value != float("inf") else run_ms

    run.put("suggest_p50_ms", at(50), "ms", n)
    run.put("suggest_p95_ms", at(95), "ms", n)
    # p99 is printed but not gated: its ten-seed spread stays
    # above a third of the largest bound a gate may use.
    run.report("suggest_p99_ms", at(99), "ms", n)


def _timed_setups(build, run: Run):
    """Run ``build`` SETUP_REPEATS times; keep the last result.

    ``build(last)`` returns ``(state, timings)`` where timings has
    ``wall``, ``scaled`` (wall at reference speed), ``build`` and
    ``load`` seconds; ``last`` is true on the set-up that is kept.
    Earlier states are closed.
    """
    walls, totals, builds, loads = [], [], [], []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            state.close()
            state = None
            gc.unfreeze()
            gc.collect()
        state, timings = build(i == SETUP_REPEATS - 1)
        walls.append(timings["wall"])
        totals.append(timings["scaled"])
        builds.append(timings["build"])
        loads.append(timings["load"])
    run.put("setup_s", median(totals), "s", len(totals))
    run.report("wall_setup_s", median(walls), "s", len(walls))
    run.record["setup_runs_s"] = totals
    run.record["setup_runs_wall_s"] = walls
    return state, median(builds), median(loads)


def _freeze_bench_objects() -> None:
    """Exempt the benchmark's own corpus and document from the cyclic GC.

    The benchmark keeps an in-memory corpus and XML document for input
    generation and the answer checks; a served process would not have
    them, and scanning them made full collections stall requests by
    tens of milliseconds.  Objects the service allocates afterwards
    stay collectable.  Set-up time leaves this call out.
    """
    gc.collect()
    gc.freeze()


def _release(state, workdir) -> None:
    """Stop the service, delete its files, and let the GC see the
    benchmark's objects again."""
    if state is not None:
        state.close()
    shutil.rmtree(workdir, ignore_errors=True)
    gc.unfreeze()


def _provenance(run: Run, workload, corpus_id, corpus_sha, queries):
    run.record.update({
        "workload": workload,
        "corpus_id": corpus_id,
        "corpus_sha256": corpus_sha,
        "query_pool_sha256": common.sha256_text(queries),
        "query_pool_size": len(queries),
        **common.machine(),
    })


def _labelled_mrr(ask, corpus, document):
    from repro.eval.metrics import reciprocal_rank

    records = common.typo_pool(
        corpus, document, MRR_CLEAN_QUERIES, MRR_SEED
    )
    ranks = [reciprocal_rank(ask(r.dirty_text), r) for r in records]
    return sum(ranks) / len(ranks), len(ranks)


# ======================================================================
# Single-index and sharded cold workloads (closed loop, one caller)
# ======================================================================

class _Local:
    """An in-process service plus the files, corpus and queries behind it.

    ``baseline_rss_mb`` is this process's RSS just before the service
    was opened: the benchmark's own share, subtracted from the peak.
    """

    def __init__(self, service, document, corpus, path, queries,
                 baseline_rss_mb):
        self.service = service
        self.document = document
        self.corpus = corpus
        self.path = path
        self.queries = queries
        self.baseline_rss_mb = baseline_rss_mb

    def close(self):
        self.service.close()


def _build_local(kind: str, workdir, live: bool = False, pool=None):
    """Build, write, load and warm one service; ``pool`` is the
    ``(clean queries, seed)`` of a typo pool to draw first, outside
    set-up time, so the pool's memory counts as the benchmark's."""
    from repro.index.corpus import build_corpus_index
    from repro.index.sharding import build_sharded_snapshot
    from repro.index.snapshot import build_snapshot

    clock = speed.SetupClock()
    with clock:
        document = common.generate_document("dblp-default")
        corpus = build_corpus_index(document)
    _freeze_bench_objects()
    with clock:
        built = perf_counter()
        if kind == "sharded":
            path = str(workdir / "shards")
            shutil.rmtree(path, ignore_errors=True)
            build_sharded_snapshot(corpus, path, shards=2)
        else:
            path = str(workdir / "dblp.xcs3")
            for leftover in workdir.glob("dblp.xcs3*"):
                leftover.unlink()
            build_snapshot(corpus, path)
        written = perf_counter()
    queries = common.typo_texts(corpus, document, *pool) if pool else None
    baseline_rss = common.baseline_rss_mb()
    with clock:
        opened = perf_counter()
        service, loaded = _open_service(kind, path)
        if live:
            service.enable_live_updates(document)
        # One clean query ends set-up, so lazily mapped shards and
        # packed views are loaded before the measured loop starts.
        service.suggest(_warm_query(corpus), K)
    state = _Local(service, document, corpus, path, queries, baseline_rss)
    return state, {
        "wall": clock.wall,
        "scaled": clock.scaled,
        "build": written - built,
        "load": loaded - opened,
    }


def _warm_query(corpus) -> str:
    """A fixed clean query: the two most frequent vocabulary tokens."""
    rows = sorted(
        corpus.vocabulary.export_rows(), key=lambda row: (-row[1], row[0])
    )
    return " ".join(row[0] for row in rows[:2])


def _corpus_sha(state) -> str:
    """sha256 of the snapshot, or of the manifest naming every shard's."""
    if os.path.isdir(state.path):
        return common.sha256_file(os.path.join(state.path, "manifest.json"))
    return common.sha256_file(state.path)


def _open_service(kind, path):
    """Load the snapshot (or shard manifest) and start a service on it.

    Returns the service and the time the load finished.
    """
    from repro.core.server import SuggestionService
    from repro.core.shards import ShardedSuggestionService
    from repro.index.sharding import load_manifest
    from repro.index.snapshot import load_snapshot

    if kind == "sharded":
        # The loaded manifest, not its directory: the constructor
        # reads a str argument as a manifest file path.
        manifest = load_manifest(os.path.join(path, "manifest.json"))
        loaded = perf_counter()
        return ShardedSuggestionService(
            manifest, config=common.serve_config(), replicas=0
        ), loaded
    snapshot = load_snapshot(path)
    loaded = perf_counter()
    return SuggestionService(snapshot, config=common.serve_config()), loaded


def _service_rss(run: Run, state, peak_mb, samples=None) -> None:
    """Gate the in-process service's peak RSS, not the benchmark's."""
    run.put("peak_rss_mb", peak_mb - state.baseline_rss_mb, "MB", samples)
    run.report("bench_baseline_rss_mb", state.baseline_rss_mb, "MB")


def _fresh_service(state, kind):
    """A second service over the same files, with cold caches."""
    service, _loaded = _open_service(kind, state.path)
    service.suggest(_warm_query(state.corpus), K)
    return service


class _Loop:
    """What a closed loop leaves for the metrics and the checks.

    Answers are not kept whole, so the benchmark's own memory barely
    grows while the service's peak RSS is measured: the checks need
    only the distinct ``(tokens, result_type)`` pairs served and every
    IDENTITY_STRIDE-th answer in full.
    """

    def __init__(self):
        self.asked = 0
        self.failures = 0
        self.latencies: list[float] = []
        self.distinct: set = set()
        self.sampled: list = []  # (query, suggestions)
        #: Wall seconds of the loop, probes excluded.
        self.elapsed = 0.0
        #: ``latencies`` at reference speed, when the loop probed.
        self.scaled: list[float] = []
        #: This process's peak RSS (MB) once ``rss_at`` queries were
        #: asked, if that many were.
        self.peak_rss_mb = None

    def _mark(self, rss_at):
        if self.asked == rss_at:
            self.peak_rss_mb = common.pid_peak_rss_mb()


def _closed_loop(service, queries, seconds, tracer=None,
                 rss_at=None, probe=False) -> _Loop:
    """Ask ``queries`` in order until ``seconds`` pass (or they run out).

    With ``probe`` the speed probe runs before each query and after the
    last, outside the query's time, and ``scaled`` is filled.  Probe
    times go to arrays, not lists of objects that would pin allocator
    arenas among the service's own allocations.
    """
    loop = _Loop()
    probes = array("d")
    before = array("q")
    began = perf_counter()
    deadline = began + seconds
    for i, query in enumerate(queries):
        if perf_counter() >= deadline:
            break
        loop._mark(rss_at)
        loop.asked += 1
        if probe:
            probes.append(speed.probe())
        t0 = perf_counter()
        try:
            if tracer is None:
                got = service.suggest(query, K)
            else:
                got, _stats = tracer.root(
                    "request", f"q{i}", service.suggest_detailed, query, K
                )
        except Exception:  # noqa: BLE001 - counted as failed
            loop.failures += 1
            continue
        loop.latencies.append(perf_counter() - t0)
        before.append(len(probes) - 1)
        loop.distinct.update((s.tokens, s.result_type) for s in got)
        if i % IDENTITY_STRIDE == 0:
            loop.sampled.append((query, got))
    loop.elapsed = perf_counter() - began - sum(probes)
    loop._mark(rss_at)
    if probe:
        probes.append(speed.probe())
        loop.scaled = speed.scale(loop.latencies, probes, before)
    return loop


def _reference_speed_metrics(run: Run, loop: _Loop, seconds: float) -> None:
    """The cold workloads' time metrics at reference speed (``speed``).

    Latencies and throughput use each query's own scaled time.  The
    wall-clock figures are reported beside them, ungated.
    """
    n = len(loop.latencies)
    _latency_metrics(run, [1e3 * x for x in loop.scaled], loop.failures,
                     1e3 * seconds)
    run.put("throughput_qps", n / sum(loop.scaled), "1/s", n)
    run.report("host_slowdown", speed.slowdown(loop.latencies, loop.scaled),
               "ratio", n)
    for q in (50, 95, 99):
        run.report(f"wall_suggest_p{q}_ms",
                   1e3 * percentile(loop.latencies, q), "ms", n)
    run.report("wall_throughput_qps", n / loop.elapsed, "1/s", n)


def cold(kind: str, seed: int, seconds: float, trace: bool) -> Run:
    """``cold-tail`` (kind="single") and ``sharded-cold`` (kind="sharded")."""
    from repro.core.cleaner import XCleanSuggester

    workload = "cold-tail" if kind == "single" else "sharded-cold"
    run = Run()
    workdir = common.scratch_dir(workload)
    state = None
    try:
        pool = (int(POOL_RATE * seconds) + WARMUP_QUERIES, seed)
        state, build_s, load_s = _timed_setups(
            lambda last: _build_local(kind, workdir,
                                      pool=pool if last else None), run
        )
        queries = state.queries
        random.Random(seed).shuffle(queries)
        _provenance(run, workload, "dblp-default", _corpus_sha(state),
                    queries)
        if trace:
            _cold_traced(run, state, kind, queries, seconds, build_s,
                         load_s)
            return run
        # Distinct queries of their own bring the service to its steady
        # state (caches filled, every shard's mapped columns touched)
        # before the clock starts.
        warm, measured = queries[:WARMUP_QUERIES], queries[WARMUP_QUERIES:]
        warmed = _closed_loop(state.service, warm, float("inf"))
        hits_before = state.service.stats.result_cache_hits
        loop = _closed_loop(state.service, measured, seconds,
                            rss_at=RSS_QUERIES, probe=True)
        if loop.asked == len(measured):
            run.warnings.append(
                f"the query pool ran out after {loop.elapsed:.1f} s; the "
                "measured window is that long"
            )
        if loop.peak_rss_mb is None:
            # A slow run: ask the rest of the RSS_QUERIES untimed.
            extra = _closed_loop(
                state.service, measured[loop.asked:RSS_QUERIES],
                float("inf"), rss_at=RSS_QUERIES - loop.asked)
            loop.distinct |= extra.distinct
            loop.peak_rss_mb = extra.peak_rss_mb
        _service_rss(run, state, loop.peak_rss_mb,
                     WARMUP_QUERIES + RSS_QUERIES)
        run.attempted = loop.asked
        run.failed = loop.failures
        _reference_speed_metrics(run, loop, seconds)
        run.put("success_rate", 1.0 - ratio(loop.failures, loop.asked),
                "ratio", loop.asked)
        hits = state.service.stats.result_cache_hits - hits_before
        if hits:
            run.problems.append(
                f"the result cache answered {hits} queries of a stream "
                "of distinct queries"
            )
        mrr, labelled = _labelled_mrr(
            lambda q: state.service.suggest(q, K), state.corpus,
            state.document,
        )
        run.put("mrr", mrr, "ratio", labelled)

        if warmed.failures:
            run.problems.append(f"{warmed.failures} warm-up queries failed")
        served = loop.distinct | warmed.distinct
        run.problems += ValidityOracle(state.corpus).violations(served)
        run.record["distinct_suggestions_checked"] = len(served)
        if kind == "sharded":
            reference = XCleanSuggester(
                state.corpus, config=common.serve_config()
            )
            run.record["identity_checked"] = len(loop.sampled)
            for query, answer in loop.sampled:
                if answer_bytes(answer) != answer_bytes(
                    reference.suggest(query, K)
                ):
                    run.problems.append(
                        f"sharded top-k differs from single index for "
                        f"{query!r}"
                    )
        return run
    finally:
        _release(state, workdir)


def _cold_traced(run, state, kind, queries, seconds, build_s, load_s):
    """Untraced then traced pass over the same prefix of the stream."""
    service = _fresh_service(state, kind)
    try:
        untraced = _closed_loop(service, queries, seconds / 4.0)
    finally:
        service.close()
    prefix = queries[:untraced.asked]
    tracer = Tracer()
    service = _fresh_service(state, kind)
    tracer.install()
    try:
        traced = _closed_loop(service, prefix, float("inf"), tracer=tracer)
    finally:
        tracer.uninstall()
        service.close()
    run.attempted = traced.asked
    run.failed = traced.failures
    run.record["spans"] = len(tracer.spans)
    tracer.dump(common.OUT / f"spans-{run.record['workload']}.jsonl")
    layers = LayerReport(tracer.analyse())
    layers.snapshot(build_s, load_s)
    layers.put("trace.overhead_ratio",
               ratio(traced.elapsed, untraced.elapsed))
    layers.fill(run)


# ======================================================================
# Per-layer report (traced runs)
# ======================================================================

class LayerReport:
    """Per-layer metrics computed from one traced pass.

    Metrics of layers the workload never enters are left out here and
    read 0 in the output (see ``run.py``).
    """

    def __init__(self, analysis):
        self.values: dict[str, float] = {}
        a = analysis
        self.put("trace.unattributed_share", a.unattributed_share())
        self.put("net.self_ms.p50", p(a.self_ms("net"), 50))
        self.put("net.self_ms.p99", p(a.self_ms("net"), 99))
        self.put("server.self_ms.p50", p(a.self_ms("server",
                                                   "suggest_detailed"), 50))
        self.put("server.self_ms.p99", p(a.self_ms("server",
                                                   "suggest_detailed"), 99))
        installs = [s for s in a.all_spans
                    if s[3] == "server" and s[4] == "apply_updates"]
        self.put("server.install_ms.p50",
                 p(a.self_ms("server", spans=installs), 50))
        self.put("shards.self_ms.p50", p(a.self_ms("shards",
                                                   "suggest_detailed"), 50))
        requests = max(1, len(a.roots))
        rows = [s[7] for s in a.of("cleaner", "partial_rows")]
        self.put("shards.rows_per_query", sum(rows) / requests)
        cleaner = a.self_ms("cleaner")
        self.put("cleaner.self_ms.p50", p(cleaner, 50))
        self.put("cleaner.self_ms.p99", p(cleaner, 99))
        self.put("tokenizer.self_ms.p50", p(a.self_ms("tokenizer"), 50))

        layer_of = {s[1]: s[3] for s in a.spans}
        lookups = [s for s in a.of("fastss")
                   if layer_of.get(s[2]) != "fastss"]
        misses = [s for s in lookups if s[7][0] > 0]
        self.put("fastss.variants_ms.p50",
                 p([1e3 * (s[6] - s[5]) for s in misses], 50))
        self.put("fastss.share", a.share("fastss"))
        self.put("fastss.lookups", len(lookups) / requests)
        self.put("fastss.variants_per_lookup",
                 ratio(sum(s[7][1] for s in lookups), len(lookups)))
        self.put("fastss.cache.hit_ratio",
                 1.0 - ratio(len(misses), len(lookups)) if lookups else 0.0)
        merged = a.of("index")
        built = [s for s in merged if s[7][0] > 0]
        self.put("index.merged_build_ms.p50",
                 p([1e3 * (s[6] - s[5]) for s in built], 50))
        self.put("index.merged_build.share", a.share("index"))
        self.put("index.merged_cache.hit_ratio",
                 1.0 - ratio(len(built), len(merged)) if merged else 0.0)
        self.put("index.merged_postings_per_list",
                 ratio(sum(s[7][1] for s in merged), len(merged)))
        self.put("result_type.share", a.share("result_type"))
        self.put("live.apply_ms.p50", p([
            1e3 * (s[6] - s[5]) for s in a.all_spans
            if s[3] == "live" and s[4] == "apply"
        ], 50))

        stats = a.stats
        computed = [s for s in stats if not s["result_cache_hits"]]
        n = max(1, len(computed))
        for name, attr in (
            ("cleaner.postings_read", "postings_read"),
            ("cleaner.postings_skipped", "postings_skipped"),
            ("cleaner.groups", "groups_processed"),
            ("cleaner.candidates", "candidates_evaluated"),
            ("cleaner.entities_scored", "entities_scored"),
            ("cleaner.kernel_pruned", "kernel_pruned"),
        ):
            self.put(name, sum(s[attr] for s in computed) / n)

        def hit_ratio(hits, misses):
            h = sum(s[hits] for s in computed)
            m = sum(s[misses] for s in computed)
            return ratio(h, h + m)

        self.put("cleaner.plan_cache.hit_ratio",
                 hit_ratio("intersection_cache_hits",
                           "intersection_cache_misses"))
        self.put("result_type.cache.hit_ratio",
                 hit_ratio("result_type_cache_hits",
                           "result_type_cache_misses"))
        self.put("server.result_cache.hit_ratio",
                 ratio(sum(s["result_cache_hits"] for s in stats), len(stats)))

    def put(self, name, value):
        self.values[name] = float(value)

    def snapshot(self, build_s, load_s):
        self.put("snapshot.build_s", build_s)
        self.put("snapshot.load_s", load_s)

    def fill(self, run: Run):
        for name, value in self.values.items():
            run.put(name, value, None)


# ======================================================================
# live-mix
# ======================================================================

def _new_token(rng, vocabulary) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    while True:
        token = "".join(rng.choice(letters) for _ in range(10))
        if token not in vocabulary:
            return token


def _misspell(token: str, rng) -> str:
    i = rng.randrange(len(token))
    swap = "q" if token[i] != "q" else "x"
    return token[:i] + swap + token[i + 1:]


def _add_record(token: str):
    from repro.index.delta import node_to_json
    from repro.index.wal import WalRecord
    from repro.xmltree.node import XMLNode

    node = XMLNode("book")
    node.add_child(XMLNode("title", text=f"{token} consistency"))
    node.add_child(XMLNode("author", text="spanner"))
    return WalRecord(op="add", dewey=(1,), subtree=node_to_json(node))


class _LiveMix:
    """One caller mixing Zipf reads with subtree-add writes.

    :meth:`run` measures the mix for the given seconds, then runs one
    compaction (which installs the folded generation — the swap) on a
    second thread while the same mix continues, so reads beside a
    compaction are measured apart from the rest.
    """

    def __init__(self, service, reads, seed, tracer=None):
        from repro.datasets.sampling import ZipfSampler

        self.service = service
        self.sampler = ZipfSampler(reads, exponent=ZIPF_EXPONENT)
        self.rng = random.Random(seed)
        self.vocabulary = service.corpus.vocabulary
        self.tracer = tracer
        self.read_ms: list[float] = []
        self.during_ms: list[float] = []
        self.raw_ms: list[float] = []
        self.ack_ms: list[float] = []
        self.compact_s = 0.0
        self.user_bytes = 0
        self.wal_bytes_per_record = 0.0
        self.compaction_bytes = 0.0
        self.failures = 0
        self.invisible: list[str] = []
        self.ops = 0
        self.compact_error = None

    def run(self, seconds) -> float:
        began = perf_counter()
        deadline = began + seconds
        while perf_counter() < deadline:
            self._op(self.read_ms)
        elapsed = perf_counter() - began
        done = threading.Event()
        compactor = threading.Thread(
            target=self._compact, args=(done,), name="compactor"
        )
        compactor.start()
        try:
            while not done.is_set():
                self._op(self.during_ms)
        finally:
            compactor.join()
        return elapsed

    def _read(self, query, rid, sink):
        t0 = perf_counter()
        try:
            if self.tracer is None:
                got = self.service.suggest(query, K)
            else:
                got, _stats = self.tracer.root(
                    "request", rid, self.service.suggest_detailed, query, K
                )
        except Exception:  # noqa: BLE001 - counted as failed
            self.failures += 1
            sink.append(float("inf"))
            return None
        ms = 1e3 * (perf_counter() - t0)
        sink.append(ms)
        return got, ms

    def _op(self, sink):
        self.ops += 1
        if self.ops % WRITE_EVERY:
            self._read(self.sampler.sample(self.rng), f"r{self.ops}", sink)
            return
        token = _new_token(self.rng, self.vocabulary)
        record = _add_record(token)
        self.user_bytes += len(json.dumps(record.as_dict(), sort_keys=True))
        t0 = perf_counter()
        try:
            if self.tracer is None:
                self.service.apply_updates([record])
            else:
                self.tracer.root("write", f"a{self.ops}",
                                 self.service.apply_updates, [record])
        except Exception:  # noqa: BLE001 - counted as failed
            self.failures += 1
            self.ack_ms.append(float("inf"))
            return
        self.ack_ms.append(1e3 * (perf_counter() - t0))
        answer = self._read(_misspell(token, self.rng), f"w{self.ops}", sink)
        if answer is None:
            self.invisible.append(token)
            return
        got, ms = answer
        self.raw_ms.append(ms)
        if not got or got[0].tokens != (token,):
            self.invisible.append(token)

    def _compact(self, done):
        try:
            live = self.service.live
            if live.wal_records:
                self.wal_bytes_per_record = (
                    live.wal_bytes() / live.wal_records
                )
            user_bytes = self.user_bytes
            t0 = perf_counter()
            self.service.compact()
            self.compact_s = perf_counter() - t0
            written = (os.path.getsize(live.index_path)
                       + os.path.getsize(live.live_path))
            self.compaction_bytes = ratio(written, user_bytes)
        except Exception as error:  # noqa: BLE001 - fails the run
            self.compact_error = repr(error)
        finally:
            done.set()


def _live_end_to_end(mix) -> dict:
    """The write-side numbers of one live-mix pass."""
    acks = mix.ack_ms
    return {
        "update_ack_p50_ms": p(acks, 50),
        "update_ack_p95_ms": p(acks, 95),
        "acks": len(acks),
        "compact_s": mix.compact_s,
        "reads_during_compaction": len(mix.during_ms),
        "read_p99_during_compaction_ms": p(mix.during_ms, 99),
    }


def _live_problems(run: Run, mix) -> None:
    if mix.compact_error:
        run.problems.append(f"compaction failed: {mix.compact_error}")
    for token in mix.invisible:
        run.problems.append(
            f"write of {token!r} not visible to the read that followed it"
        )


def live_mix(seed: int, seconds: float, trace: bool) -> Run:
    workload = "live-mix"
    run = Run()
    workdir = common.scratch_dir(workload)
    state = None
    try:
        pool = (LIVE_CLEAN_QUERIES, seed)
        state, build_s, load_s = _timed_setups(
            lambda last: _build_local("single", workdir, live=True,
                                      pool=pool if last else None), run
        )
        queries = state.queries
        random.Random(seed).shuffle(queries)
        _provenance(run, workload, "dblp-default",
                    common.sha256_file(state.path), queries)
        if trace:
            _live_traced(run, state, queries, seed, seconds, workdir,
                         build_s, load_s)
            return run
        mix = _LiveMix(state.service, queries, seed)
        elapsed = mix.run(seconds)
        _service_rss(run, state, common.pid_peak_rss_mb())
        _live_problems(run, mix)
        run.attempted = (len(mix.read_ms) + len(mix.during_ms)
                         + len(mix.ack_ms))
        run.failed = mix.failures
        ends = _live_end_to_end(mix)
        run.record.update(ends)
        run.report("update_ack_p50_ms", ends["update_ack_p50_ms"], "ms",
                   ends["acks"])
        run.report("update_ack_p95_ms", ends["update_ack_p95_ms"], "ms",
                   ends["acks"])
        run.report("compact_s", ends["compact_s"], "s", 1)
        reads = mix.read_ms
        _latency_metrics(run, [x for x in reads if x != float("inf")],
                         sum(1 for x in reads if x == float("inf")),
                         1e3 * seconds)
        run.put("throughput_qps", len(reads) / elapsed, "1/s", len(reads))
        run.put("success_rate", 1.0 - ratio(run.failed, run.attempted),
                "ratio", run.attempted)
        mrr, labelled = _labelled_mrr(
            lambda q: state.service.suggest(q, K), state.corpus,
            state.document,
        )
        run.put("mrr", mrr, "ratio", labelled)
        return run
    finally:
        _release(state, workdir)


def _live_traced(run, state, queries, seed, seconds, workdir, build_s,
                 load_s):
    """Untraced pass on the set-up service, traced pass on a fresh one."""
    plain = _LiveMix(state.service, queries, seed)
    plain.run(seconds / 2.0)
    _live_problems(run, plain)
    second = workdir / "traced"
    second.mkdir()
    fresh, _timings = _build_local("single", second, live=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _LiveMix(fresh.service, queries, seed, tracer)
        traced.run(seconds / 4.0)
    finally:
        tracer.uninstall()
        fresh.close()
    _live_problems(run, traced)
    run.attempted = (len(traced.read_ms) + len(traced.during_ms)
                     + len(traced.ack_ms))
    run.failed = traced.failures
    tracer.dump(common.OUT / "spans-live-mix.jsonl")
    report = LayerReport(tracer.analyse())
    report.snapshot(build_s, load_s)
    ends = _live_end_to_end(plain)
    run.record.update(ends)
    if beyond(ends["acks"], 95) < 10:
        run.warnings.append(
            f"only {ends['acks']} acks: p95 needs 10 beyond it"
        )
    for name in ("update_ack_p50_ms", "update_ack_p95_ms", "compact_s"):
        report.put(name, ends[name])
    report.put("live.read_after_write_ms.p50", p(traced.raw_ms, 50))
    report.put("wal.bytes_per_record", plain.wal_bytes_per_record)
    report.put("compaction.bytes_written_per_user_byte",
               plain.compaction_bytes)
    report.put("compaction.read_p99_during_ms",
               ends["read_p99_during_compaction_ms"])

    def mean_read(mix):
        reads = mix.read_ms
        return sum(reads) / max(1, len(reads))

    report.put("trace.overhead_ratio",
               ratio(mean_read(traced), mean_read(plain)))
    report.fill(run)


# ======================================================================
# zipf-http
# ======================================================================

class _Server:
    """An ``xclean serve`` subprocess over one snapshot."""

    def __init__(self, path, document, corpus):
        self.path = path
        self.document = document
        self.corpus = corpus
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--index", path,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            cwd=str(common.ROOT), text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening on http://"):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _InProcessServer:
    """``HTTPFrontEnd`` hosted on a thread of this process (traced run)."""

    def __init__(self, service):
        from repro.net.server import HTTPFrontEnd, ServeConfig

        self.service = service
        self.front_end = HTTPFrontEnd(service, ServeConfig(port=0))
        self.loop = None
        ready = threading.Event()

        async def serve():
            self.loop = asyncio.get_running_loop()
            await self.front_end.start()
            ready.set()
            await self.front_end.run()

        self.thread = threading.Thread(
            target=asyncio.run, args=(serve(),), name="front-end"
        )
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("in-process front end did not start")
        self.host, self.port = self.front_end.host, self.front_end.port

    def close(self):
        self.loop.call_soon_threadsafe(self.front_end.initiate_drain)
        self.thread.join(60)
        self.service.close()


def _build_http(workdir):
    from repro.index.corpus import build_corpus_index
    from repro.index.snapshot import build_snapshot

    from loadgen import OpenLoopClient

    clock = speed.SetupClock()
    with clock:
        document = common.generate_document("dblp-default")
        corpus = build_corpus_index(document)
    _freeze_bench_objects()
    with clock:
        built = perf_counter()
        path = str(workdir / "dblp.xcs3")
        build_snapshot(corpus, path)
        written = perf_counter()
        server = _Server(path, document, corpus)
        loaded = perf_counter()
        client = OpenLoopClient(server.host, server.port, 1, K)
        client.run([(0.0, _warm_query(corpus), "warm")])
    return server, {
        "wall": clock.wall,
        "scaled": clock.scaled,
        "build": written - built,
        "load": loaded - written,
    }


def _zipf_schedule(queries, seed, rate, seconds, tag="m"):
    """(due offset, query, request id) at a fixed rate, Zipf over queries."""
    from repro.datasets.sampling import ZipfSampler

    sampler = ZipfSampler(queries, exponent=ZIPF_EXPONENT)
    rng = random.Random(f"{seed}-{tag}")
    return [
        (i / rate, sampler.sample(rng), f"{tag}{i}")
        for i in range(int(rate * seconds))
    ]


def _http_suggestions(body):
    from repro.core.suggestion import Suggestion

    return [
        Suggestion(tuple(s["text"].split()), s["score"], s["result_type"])
        for s in json.loads(body)["suggestions"]
    ]


def _step_passes(outcomes) -> bool:
    """p99 within the limit, and no backlog left at the step's end."""
    ms = [1e3 * o.latency if o.status == 200 else float("inf")
          for o in outcomes]
    if not ms or percentile(ms, 99) > LATENCY_LIMIT_MS:
        return False
    tail = outcomes[-max(1, len(outcomes) // 10):]
    return max(1e3 * o.lag for o in tail) <= LATENCY_LIMIT_MS / 2


def zipf_http(seed: int, seconds: float, trace: bool) -> Run:
    from loadgen import OpenLoopClient

    from repro.eval.metrics import reciprocal_rank

    workload = "zipf-http"
    run = Run()
    workdir = common.scratch_dir(workload)
    server = None
    try:
        server, build_s, load_s = _timed_setups(
            lambda last: _build_http(workdir), run
        )
        records = common.typo_pool(
            server.corpus, server.document,
            ZIPF_CLEAN_QUERIES, seed,
        )
        random.Random(seed).shuffle(records)
        queries = [r.dirty_text for r in records]
        _provenance(run, workload, "dblp-default",
                    common.sha256_file(server.path), queries)
        connections = min(2, os.cpu_count() or 1)
        if trace:
            _http_traced(run, server, queries, seed, seconds, connections,
                         build_s, load_s)
            return run
        client = OpenLoopClient(server.host, server.port, connections, K)
        outcomes = client.run(
            _zipf_schedule(queries, seed, ZIPF_RATE, seconds)
        )
        run.put("peak_rss_mb", common.pid_peak_rss_mb(server.proc.pid),
                "MB")
        ok = [o for o in outcomes if o.status == 200]
        run.attempted = len(outcomes)
        run.failed = len(outcomes) - len(ok)
        _latency_metrics(run, [1e3 * o.latency for o in ok], run.failed,
                         1e3 * seconds)
        span = max(o.done for o in outcomes) - outcomes[0].due
        run.put("throughput_qps", len(ok) / span, "1/s", len(ok))
        run.put("success_rate", 1.0 - ratio(run.failed, run.attempted),
                "ratio", run.attempted)
        run.report("loadgen.lag_p99_ms",
                   1e3 * percentile([o.lag for o in outcomes], 99), "ms",
                   len(outcomes))
        run.report("server.result_cache.hit_ratio", ratio(
            sum(1 for o in ok if json.loads(o.body)["cache_hit"]), len(ok)
        ), "ratio", len(ok))
        run.record.update({
            "rate_rps": ZIPF_RATE,
            "stats": client.get_json("/stats"),
        })
        labelled = common.typo_pool(
            server.corpus, server.document,
            MRR_CLEAN_QUERIES, MRR_SEED,
        )
        answers = client.run([
            (0.0, r.dirty_text, f"mrr{i}") for i, r in enumerate(labelled)
        ])
        ranks = [
            reciprocal_rank(_http_suggestions(o.body), r)
            if o.status == 200 else 0.0
            for o, r in zip(answers, labelled)
        ]
        run.put("mrr", sum(ranks) / len(ranks), "ratio", len(ranks))
        _check_http_answers(run, server, outcomes)
        return run
    finally:
        _release(server, workdir)


def _check_http_answers(run, server, outcomes):
    """Validity of every answer; byte identity on a sample."""
    from repro.core.cleaner import XCleanSuggester
    from repro.index.snapshot import load_snapshot
    from repro.net.http import json_body

    bodies = {}
    for o in outcomes:
        if o.status == 200:
            bodies.setdefault(o.query, o.body)
    served = {(s.tokens, s.result_type) for body in bodies.values()
              for s in _http_suggestions(body)}
    run.problems += ValidityOracle(server.corpus).violations(served)
    run.record["distinct_suggestions_checked"] = len(served)
    reference = XCleanSuggester(
        load_snapshot(server.path), config=common.serve_config()
    )
    items = sorted(bodies.items())
    step = max(1, len(items) // IDENTITY_SAMPLE)
    for query, body in items[::step]:
        expected = json_body({
            "query": query, "k": K,
            "suggestions": [
                {"text": s.text, "score": s.score,
                 "result_type": s.result_type}
                for s in reference.suggest(query, K)
            ],
            "partial": False,
            "cache_hit": json.loads(body)["cache_hit"],
        })
        if expected != body:
            run.problems.append(
                f"HTTP answer for {query!r} differs from in-process"
            )


def _http_traced(run, server, queries, seed, seconds, connections,
                 build_s, load_s):
    """Rate ladder on the subprocess, then untraced and traced passes
    through an in-process front end over the same snapshot."""
    from loadgen import OpenLoopClient

    from repro.core.server import SuggestionService
    from repro.index.snapshot import load_snapshot

    client = OpenLoopClient(server.host, server.port, connections, K)
    max_rate, lags = 0.0, []
    for rung, rate in enumerate(ZIPF_LADDER):
        step = client.run(
            _zipf_schedule(queries, seed, rate, LADDER_STEP_S, tag=f"l{rung}-")
        )
        if not _step_passes(step):
            break
        max_rate = rate
        lags += [o.lag for o in step]

    schedule = _zipf_schedule(queries, seed, ZIPF_RATE, seconds / 4.0)

    def serve(tracer=None):
        service = SuggestionService(
            load_snapshot(server.path), config=common.serve_config()
        )
        host = _InProcessServer(service)
        hook = None
        if tracer is not None:
            roots = {rid: tracer.reserve_root(rid) for _o, _q, rid in
                     schedule}

            def hook(o):
                tracer.spans.append((o.request_id, roots[o.request_id], 0,
                                     "net", "request", o.sent, o.done, None))
        try:
            if tracer is not None:
                tracer.install()
            try:
                got = OpenLoopClient(host.host, host.port, connections,
                                     K).run(schedule, on_response=hook)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            stats = host.front_end.stats
        finally:
            host.close()
        return got, stats

    plain, _stats = serve()
    tracer = Tracer()
    traced, front = serve(tracer)
    run.attempted = len(traced)
    run.failed = sum(1 for o in traced if o.status != 200)
    tracer.dump(common.OUT / "spans-zipf-http.jsonl")
    _check_http_answers(run, server, plain + traced)
    report = LayerReport(tracer.analyse())
    report.snapshot(build_s, load_s)
    report.put("max_rate_rps", max_rate)
    report.put("loadgen.lag_p99_ms", 1e3 * p(lags, 99))
    report.put("net.requests", front.requests_total)
    report.put("net.shed", front.shed_total)
    report.put("net.coalesced", front.coalesced_total)

    def mean_rtt(outcomes):
        return sum(o.done - o.sent for o in outcomes) / len(outcomes)

    report.put("trace.overhead_ratio",
               ratio(mean_rtt(traced), mean_rtt(plain)))
    report.fill(run)


#: Per-layer metrics the traced cold-tail run takes from short traced
#: passes of the workloads BENCHMARK.json does not list, so every
#: layer has a number in the traced runs of the listed ones.
SUB_RUN_LAYERS = {
    "zipf-http": ("net.", "loadgen.", "max_rate_rps",
                  "server.result_cache."),
    "live-mix": ("server.install", "live.", "wal.", "compaction.",
                 "update_ack_", "compact_s"),
}


def cold_tail(seed: int, seconds: float, trace: bool) -> Run:
    run = cold("single", seed, seconds, trace)
    if not trace:
        return run
    # cold-tail's premise: a stream of distinct queries never hits the
    # result cache.  Its own ratio is kept before zipf-http's replaces
    # the declared metric.
    own = run.metrics["server.result_cache.hit_ratio"]
    run.record["cold_tail_result_cache_hit_ratio"] = own
    if own:
        run.problems.append(
            f"traced cold-tail hit the result cache (ratio {own:.4f})"
        )
    for name, prefixes in SUB_RUN_LAYERS.items():
        sub = WORKLOADS[name](seed, seconds / 6.0, True)
        run.problems += [f"{name}: {x}" for x in sub.problems]
        run.warnings += [f"{name}: {x}" for x in sub.warnings]
        for metric, value in sub.metrics.items():
            if metric.startswith(prefixes):
                run.put(metric, value, sub.units[metric])
                run.sources[metric] = name
    run.record["borrowed_from"] = run.sources
    return run


WORKLOADS = {
    "cold-tail": cold_tail,
    "zipf-http": zipf_http,
    "live-mix": live_mix,
    "sharded-cold": lambda seed, seconds, trace: cold("sharded", seed,
                                                      seconds, trace),
}
