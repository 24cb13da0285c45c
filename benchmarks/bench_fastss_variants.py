"""Micro-benchmark — FastSS variant generation (Section V-A).

The paper uses a (partitioned) FastSS index because it is "one of the
fastest approximate string matching methods under edit distance
constraints".  We compare plain FastSS, partitioned FastSS (in memory
and served from a mapped v3 snapshot, the serving path, whose buckets
are found through the ``fss_?_hash`` slot tables), and the brute-force
scan, asserting:

* all four return identical variant sets (correctness);
* the indexes are much faster than the brute-force scan;
* partitioning shrinks the index (bucket count) on long-token
  vocabularies — the paper's space argument.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_fastss_variants.py --scale smoke

or through pytest (scale from ``REPRO_BENCH_SCALE``).
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

if __package__ is None or __package__ == "":
    sys.path.insert(0, str(Path(__file__).parent))

from _common import bench_scale, emit, settings

from repro.eval.reporting import format_table, shape_check
from repro.fastss.index import (
    BruteForceVariants,
    FastSSIndex,
    PartitionedFastSSIndex,
)
from repro.index.corpus import build_corpus_index
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.xmltree.builder import build_tree
from repro.xmltree.document import XMLDocument

PROBE_WORDS = (
    "clusttering",
    "architcture",
    "verifcation",
    "datbase",
    "montor",
    "indx",
)

METHODS = ("FastSS", "Partitioned", "Partitioned (v3 snapshot)", "BruteForce")


def vocabulary_corpus(tokens):
    """A flat corpus whose vocabulary is exactly ``tokens``.

    The FastSS sections of a snapshot depend on the vocabulary alone.
    The INEX corpus itself is too deep for int64 Dewey keys at the
    default scale, so its vocabulary is served from this one instead.
    """
    spec = (
        "vocabulary",
        [("w", " ".join(tokens[i : i + 100]))
         for i in range(0, len(tokens), 100)],
    )
    corpus = build_corpus_index(XMLDocument(build_tree(spec)))
    assert sorted(corpus.vocabulary.tokens()) == tokens
    return corpus


def run(scale: str):
    """Build the indexes, check and time them; return the partitioned
    index for the pytest-benchmark round."""
    setting = settings("small" if scale == "smoke" else scale)["INEX"]
    tokens = sorted(setting.corpus.vocabulary.tokens())

    plain = FastSSIndex(tokens, max_errors=2)
    partitioned = PartitionedFastSSIndex(
        tokens, max_errors=2, partition_threshold=7
    )
    brute = BruteForceVariants(tokens, max_errors=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "inex.xcs3")
        build_snapshot(
            vocabulary_corpus(tokens), path, generator=partitioned
        )
        snapshot = load_snapshot(path)
    mapped = snapshot._fastss_index()
    indexes = dict(zip(METHODS, (plain, partitioned, mapped, brute)))

    def probe_all(index):
        return [index.variants(word, 2) for word in PROBE_WORDS]

    answers = [probe_all(index) for index in indexes.values()]
    identical = all(answer == answers[0] for answer in answers)

    timings = {}
    for name, index in indexes.items():
        started = time.perf_counter()
        for _ in range(3):
            probe_all(index)
        timings[name] = (time.perf_counter() - started) / (
            3 * len(PROBE_WORDS)
        )

    rows = [(name, timings[name] * 1000) for name in METHODS]
    table = format_table(
        ("method", "per-keyword variants (ms)"),
        rows,
        title=f"FastSS variant generation over |V|={len(tokens)} "
        f"({scale} scale)",
    )
    brute_s = timings["BruteForce"]
    checks = [
        shape_check("all four methods agree exactly", identical),
        shape_check(
            "plain FastSS beats brute force "
            f"({brute_s / timings['FastSS']:.0f}x)",
            timings["FastSS"] < brute_s,
        ),
        shape_check(
            "partitioned FastSS beats brute force "
            f"({brute_s / timings['Partitioned']:.0f}x)",
            timings["Partitioned"] < brute_s,
        ),
        shape_check(
            "snapshot-backed partitioned FastSS beats brute force "
            f"({brute_s / timings['Partitioned (v3 snapshot)']:.0f}x)",
            timings["Partitioned (v3 snapshot)"] < brute_s,
        ),
        shape_check(
            "partitioning shrinks the signature space "
            f"(plain buckets {plain.bucket_count})",
            partitioned._short.bucket_count
            + len(partitioned._prefix_buckets)
            + len(partitioned._suffix_buckets)
            < plain.bucket_count,
        ),
    ]
    emit("fastss_variants", table + "\n" + "\n".join(checks))
    assert all("[OK ]" in c for c in checks)
    snapshot.close()
    return partitioned


def test_fastss_variants(benchmark):
    partitioned = run(bench_scale())
    benchmark.pedantic(
        lambda: partitioned.variants("clusttering", 2),
        rounds=10,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="FastSS variant generation micro-benchmark"
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
