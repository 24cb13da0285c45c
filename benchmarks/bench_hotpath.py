"""Hot-path benchmark — absolute costs of the query engine.

Measures, on the synthetic DBLP dataset, every number with its cache
state stated:

* **single-query latency** of ``XCleanSuggester.suggest`` — p50/p95,
  mean, queries/sec and postings consumed per second — *cold* (one
  pass over the workload with every query-time cache empty at the
  start: merged columns, merge plans, variants, result types; each
  query asked once) and *warm* (``REPETITIONS`` passes after a warm-up
  pass);
* **merge-stage seconds** of Algorithm 1's merge loop, isolated via
  the stage metrics (merge-stage seconds minus the scoring share
  measured inside it), cold and warm; the warm figure
  (``merge.kernel.merge_only_s``) is the regression gate's headline;
* **batch throughput** of ``SuggestionService.suggest_batch`` over a
  trace that repeats each workload query ``TRACE_REPEATS`` times in a
  shuffled order (head queries recur, as in a production log), with
  the result-cache hit ratio reported next to it — most of the batch
  figure is cache hits.

Asserted: cold and warm passes return identical answers (plan replay
is exact), the plan cache absorbs the warm merge passes, and the result
cache absorbs the repeated trace queries.  No timing floor is
asserted; ``compare.py`` gates the merge-stage headline against the
committed baseline.

Results are emitted both as text (``out/hotpath.txt``) and as
machine-readable JSON (``out/BENCH_hotpath.json``).  Run as a script::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --scale smoke

or through pytest (scale from ``REPRO_BENCH_SCALE``).
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

if __package__ is None or __package__ == "":
    sys.path.insert(0, str(Path(__file__).parent))

from _common import OUT_DIR, bench_scale, emit

from repro.core.server import SuggestionService
from repro.eval.experiments import dblp_setting
from repro.eval.reporting import format_table, shape_check
from repro.obs.metrics import MetricsRegistry

#: Timed warm passes over the workload (latencies are pooled).
REPETITIONS = 3

#: How often each query recurs in the batch trace.
TRACE_REPEATS = 3


def percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def workload_queries(setting):
    return [
        record.dirty_text
        for kind in ("RAND", "RULE", "CLEAN")
        for record in setting.workloads[kind]
    ]


def _stage_totals(registry):
    """Cumulative seconds per stage from a registry's stage states."""
    return {
        stage: state[1]
        for stage, state in registry.stage_states().items()
    }


class _Pass:
    """One timed pass: latencies, postings, stage seconds, answers."""

    def __init__(self):
        self.latencies = []
        self.postings = 0
        self.plan_hits = 0
        self.pruned = 0
        self.merge_s = 0.0
        self.score_s = 0.0
        self.answers = []

    def run(self, suggester, registry, queries, passes):
        before = _stage_totals(registry)
        clock = time.perf_counter
        for _ in range(passes):
            for query in queries:
                began = clock()
                answer = suggester.suggest(query, 10)
                self.latencies.append(clock() - began)
                stats = suggester.last_stats
                self.postings += stats.postings_read
                self.plan_hits += stats.intersection_cache_hits
                self.pruned += stats.kernel_pruned
                self.answers.append(
                    [(s.tokens, s.score, s.result_type) for s in answer]
                )
        after = _stage_totals(registry)
        self.merge_s = after.get("merge", 0.0) - before.get("merge", 0.0)
        self.score_s = after.get("score", 0.0) - before.get("score", 0.0)
        return self

    def single(self):
        elapsed = sum(self.latencies)
        return {
            "queries": len(self.latencies),
            "queries_per_sec": len(self.latencies) / elapsed,
            "mean_ms": 1e3 * elapsed / len(self.latencies),
            "p50_ms": 1e3 * percentile(self.latencies, 0.50),
            "p95_ms": 1e3 * percentile(self.latencies, 0.95),
            "postings_per_sec": self.postings / elapsed,
        }

    def merge(self):
        return {
            "merge_stage_s": self.merge_s,
            "score_share_s": self.score_s,
            "merge_only_s": self.merge_s - self.score_s,
            "plan_cache_hits": self.plan_hits,
            "kernel_pruned": self.pruned,
        }


def bench_engine(setting, queries):
    """Cold pass, then warm passes, over one suggester.

    Cache bounds are sized to the workload so the warm passes measure
    the steady state (every variant set's columns and merge plan
    resident).  ``bump_generation`` empties the corpus's merged-column
    and plan caches; the suggester's variant and result-type caches
    start empty because it is new.
    """
    capacity = max(64, 4 * len(queries))
    registry = MetricsRegistry()
    suggester = setting.xclean(
        merged_cache_size=capacity, intersection_cache_size=capacity
    )
    suggester.metrics = registry
    setting.corpus.bump_generation()
    cold = _Pass().run(suggester, registry, queries, 1)
    for query in queries:  # warm-up, untimed
        suggester.suggest(query, 10)
    warm = _Pass().run(suggester, registry, queries, REPETITIONS)
    return cold, warm


def bench_batch(setting, queries):
    """Batch throughput of the serving layer, result cache on."""
    trace = queries * TRACE_REPEATS
    random.Random(7).shuffle(trace)
    service = SuggestionService(
        setting.corpus,
        config=setting.xclean().config,
        generator=setting.generator.fresh_cache(),
    )
    for query in queries:
        # Warm the variant/merged caches through the underlying
        # suggester without seeding the service's result cache.
        service.suggester.suggest(query, 10)
    began = time.perf_counter()
    service.suggest_batch(trace, 10)
    elapsed = time.perf_counter() - began
    hits = service.stats.result_cache_hits
    misses = service.stats.result_cache_misses
    return {
        "trace_queries": len(trace),
        "unique_queries": len(set(trace)),
        "queries_per_sec": len(trace) / elapsed,
        "result_cache_hits": hits,
        "result_cache_misses": misses,
        "result_cache_hit_ratio": hits / max(1, hits + misses),
    }


def run(scale):
    setting = dblp_setting("small" if scale == "smoke" else scale)
    queries = workload_queries(setting)

    cold, warm = bench_engine(setting, queries)
    batch = bench_batch(setting, queries)

    report = {
        "benchmark": "hotpath",
        "scale": scale,
        "dataset": "DBLP",
        "corpus": setting.corpus.describe(),
        "workload_queries": len(queries),
        "repetitions": REPETITIONS,
        "cache_states": {
            "cold": "query-time caches empty at the start of one pass; "
            "each query asked once",
            "warm": f"{REPETITIONS} passes after an untimed warm-up "
            "pass; caches sized to the workload",
            "batch": "variant/merged caches warm, result cache empty "
            "at the start of the trace",
        },
        "single": {"cold": cold.single(), "warm": warm.single()},
        "merge": {"kernel_cold": cold.merge(), "kernel": warm.merge()},
        "batch": batch,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_hotpath.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    cold_answers = cold.answers
    warm_answers = warm.answers[: len(cold_answers)]
    checks = [
        shape_check(
            f"cold and warm passes answer identically "
            f"({len(cold_answers)} queries)",
            cold_answers == warm_answers,
        ),
        shape_check(
            "plan cache absorbed the warm merge passes",
            warm.plan_hits >= REPETITIONS * len(queries) * 0.9,
        ),
        shape_check(
            "result cache absorbed the repeated trace queries",
            batch["result_cache_hits"]
            >= (TRACE_REPEATS - 1) * batch["unique_queries"] * 0.9,
        ),
    ]
    single_table = format_table(
        ("Cache", "queries", "q/s", "mean ms", "p50 ms", "p95 ms",
         "postings/s"),
        [
            (
                state,
                stats["queries"],
                round(stats["queries_per_sec"], 1),
                stats["mean_ms"],
                stats["p50_ms"],
                stats["p95_ms"],
                round(stats["postings_per_sec"]),
            )
            for state, stats in report["single"].items()
        ],
        title=f"Hot path — single queries ({scale} scale)",
    )
    merge_table = format_table(
        ("Cache", "merge-only ms", "score ms", "plan hits"),
        [
            (
                state,
                round(1e3 * stats["merge_only_s"], 2),
                round(1e3 * stats["score_share_s"], 2),
                stats["plan_cache_hits"],
            )
            for state, stats in (
                ("cold", report["merge"]["kernel_cold"]),
                ("warm", report["merge"]["kernel"]),
            )
        ],
        title=(
            f"Merge stage — cold pass and {REPETITIONS} warm passes, "
            f"{len(queries)} queries"
        ),
    )
    batch_table = format_table(
        ("Serving mode", "q/s", "result-cache hit ratio"),
        [
            (
                "service, batch",
                round(batch["queries_per_sec"], 1),
                round(batch["result_cache_hit_ratio"], 3),
            )
        ],
        title=(
            f"Batch trace — {batch['trace_queries']} queries, "
            f"{batch['unique_queries']} unique"
        ),
    )
    emit(
        "hotpath",
        "\n".join((single_table, merge_table, batch_table, *checks)),
    )
    assert all("[OK ]" in check for check in checks)
    return report


def test_hotpath(benchmark):
    setting = dblp_setting(bench_scale())
    run(bench_scale())

    record = setting.workloads["RAND"][0]
    suggester = setting.xclean()
    benchmark.pedantic(
        lambda: suggester.suggest(record.dirty_text, 10),
        rounds=3,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hot-path benchmark (absolute engine costs)"
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "small", "default"),
        default=bench_scale(),
    )
    args = parser.parse_args(argv)
    run(args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
