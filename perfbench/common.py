"""Shared plumbing of the serving-stack benchmark.

Everything here is workload-independent: locating the program's
sources in the checkout, the corpora (built from generator configs,
never downloaded), provenance stamps, percentiles, and peak-RSS
readings.  The program under test is imported from ``src/`` of the
checkout this file sits in, so a benchmark run always measures the
code shipped next to it.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def bootstrap() -> None:
    """Put the checkout's ``src/`` on the import path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmark: no program sources under {SRC}; run from a "
            "full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Corpora
# ----------------------------------------------------------------------

#: The synthetic DBLP corpus at the repository's ``default`` benchmark
#: scale (``repro.eval.experiments``), and how queries are sampled
#: from it.  The generator is seeded internally, so the corpus id names
#: exactly one byte sequence.
CORPORA = {
    "dblp-default": {"publications": 12000, "extra_vocabulary": 350},
}
QUERY_STYLE = {"style": "dblp", "min_words": 2, "max_words": 3}

#: The shipped serving defaults of ``xclean serve`` (k, ε, β, γ).
K = 10
SERVE_CONFIG = {"max_errors": 2, "beta": 5.0, "gamma": 1000}


def generate_document(corpus_id: str):
    """The XML document of one corpus id."""
    from repro.datasets.synthetic_dblp import DBLPConfig, generate_dblp

    return generate_dblp(DBLPConfig(**CORPORA[corpus_id])).document


def serve_config():
    from repro.core.config import XCleanConfig

    return XCleanConfig(**SERVE_CONFIG)


def typo_pool(corpus, document, count: int, seed: int):
    """Distinct RAND + RULE typo queries with their golden answers.

    ``count`` clean queries are sampled from the corpus; each yields a
    RAND and a RULE perturbation.  Duplicated dirty texts keep their
    first record, so every text in the pool is asked about once.
    """
    from repro.datasets.queries import build_query_workloads

    workloads = build_query_workloads(
        corpus, document, count=count, seed=seed, **QUERY_STYLE
    )
    pool: dict[str, object] = {}
    for pair in zip(workloads["RAND"], workloads["RULE"]):
        for record in pair:
            pool.setdefault(record.dirty_text, record)
    return list(pool.values())


def typo_texts(corpus, document, count: int, seed: int) -> list[str]:
    """The dirty texts of :func:`typo_pool`, drawn in a forked child.

    Drawing a pool allocates and frees many small objects.  In this
    process they would leave partly used allocator arenas behind, which
    a service opened later fills without its RSS growing, by an amount
    that varies with the seed.  The child shares the corpus copy-on-write
    and sends back only the texts.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            texts = [r.dirty_text
                     for r in typo_pool(corpus, document, count, seed)]
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(texts).encode("utf-8"))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"query pool child exited with status {status}")
    return json.loads(data)


def scratch_dir(tag: str) -> Path:
    """A fresh per-process working directory inside the checkout."""
    path = OUT / f"tmp-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def source_sha256() -> str:
    """Hash of every program source file, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def median(values) -> float:
    return percentile(values, 50)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------

def _status_mb(pid, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for pid {pid}")


def pid_peak_rss_mb(pid="self") -> float:
    """Peak RSS (VmHWM) of a live process, this one by default."""
    return _status_mb(pid, "VmHWM")


def rss_mb() -> float:
    """Current RSS (VmRSS) of this process."""
    return _status_mb("self", "VmRSS")


def baseline_rss_mb() -> float:
    """Shed freed memory, restart the peak-RSS count, return RSS now.

    An in-process service shares this process with the benchmark's
    own corpus, document and set-up transients.  Called just before
    the service is opened, this makes ``pid_peak_rss_mb() - baseline``
    the service's peak: the collector and ``malloc_trim`` hand freed
    set-up memory back to the kernel (so the service cannot reuse it
    unseen), and writing 5 to ``clear_refs`` resets VmHWM to the
    current RSS.  A kernel without ``clear_refs`` fails the run.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: freed arenas stay counted in the baseline
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return rss_mb()
