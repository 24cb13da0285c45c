"""The serving-stack benchmark: one command, four workloads.

Run one workload::

    python3 perfbench/run.py --workload cold-tail --seed 1 --seconds 36 \\
        --trace 0

prints every metric by name with its unit and sample count, runs the
correctness checks, writes the full record (provenance included) to
``perfbench/out/``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics from a separate traced run.  A
failed check fails the run (exit code 1).  Set-up time and the
latencies and throughput of ``cold-tail`` and ``sharded-cold`` are at a
fixed reference speed, so that a shared host's changing speed does not
move them (``speed.py``); their wall-clock values are printed too.

Steadiness mode runs a workload repeatedly, each time with another
seed, in child processes, and prints each end-to-end metric's median
and quartile spread (as a share of the median) next to its bound.  A
spread up to a third of the bound reads ``ok``, up to the bound
``noisy`` (the metric cannot resolve a change that small), and beyond
it ``WIDE``, which fails the mode (exit code 2) as does a median worse
than ``--against``'s by more than the bound::

    python3 perfbench/run.py --steady 10 --workload sharded-cold --seed 1
    python3 perfbench/run.py --steady 10 --workload sharded-cold \\
        --seed 101 --against perfbench/out/steady-sharded-cold-seed1.json

Each set writes its summary (every run's values included) to
``perfbench/out/steady-<workload>-seed<first seed>.json``;
``--against`` compares the medians with such an earlier set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

SPEC_PATH = common.ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_once(args, spec) -> int:
    common.bootstrap()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    common.OUT.mkdir(exist_ok=True)
    run = workloads.WORKLOADS[args.workload](
        args.seed, float(args.seconds), bool(args.trace)
    )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in run.metrics:
            value = run.metrics[name]
        elif args.trace:
            value = 0.0  # a layer this workload never enters
        else:
            run.problems.append(f"metric {name} was not measured")
            continue
        if run.units.get(name) not in (None, unit):
            run.problems.append(
                f"metric {name} measured in {run.units[name]}, "
                f"declared in {unit}"
            )
        metrics[name] = {"value": value, "unit": unit}
    known = {e["name"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name in run.metrics.keys() - known:
        run.problems.append(f"metric {name} is not in BENCHMARK.json")
    run.record.update({
        "why": {w["name"]: w["why"] for w in spec["workloads"]}.get(
            args.workload, workloads.UNLISTED_WHY.get(args.workload)
        ),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "samples": run.samples,
        "problems": run.problems,
        "warnings": run.warnings,
        "reported": run.reported,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    out = common.OUT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.write_text(json.dumps(run.record, indent=2, sort_keys=True) + "\n")

    print(f"# {args.workload}: {run.record['why']}")
    for key in ("corpus_id", "corpus_sha256", "query_pool_sha256",
                "nproc", "python", "git_sha", "source_sha256"):
        print(f"#   {key} = {run.record[key]}")
    for name, entry in metrics.items():
        n = run.samples.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        if args.trace:
            if name in run.sources:
                suffix += f"  [measured on {run.sources[name]}]"
            suffix += f"  -> {tracing.moves(name)}"
        print(f"{name:<40} {entry['value']:>12.6g} {entry['unit']}{suffix}")
    for name, (value, unit, n) in run.reported.items():
        suffix = f"  (n={n})" if n is not None else ""
        print(f"{name:<40} {value:>12.6g} {unit}{suffix}  (reported, not "
              "gated)")
    for warning in run.warnings:
        print(f"WARNING: {warning}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"# record: {out.relative_to(common.ROOT)}")
    if run.problems:
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def steady(args, spec) -> int:
    """Repeat a workload over seeds; print median and spread per metric."""
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for i in range(args.steady):
        seed = args.seed + i
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        began = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=str(common.ROOT))
        wall = time.perf_counter() - began
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:])
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"run {i + 1}/{args.steady} seed={seed} wall={wall:.1f}s",
              flush=True)
    summary = {}
    steady_ok = True
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6} "
          f"{'vs bound':>9}")
    for name, series in values.items():
        med = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]["bound"]
        summary[name] = {"median": med, "spread": spread, "values": series}
        if spread <= bound / 3:
            flag = "ok"
        elif spread <= bound:
            flag = "noisy"
        else:
            flag = "WIDE"
            steady_ok = False
        print(f"{name:<20} {med:>12.6g} {spread:>8.3f} {bound:>6.2f} "
              f"{flag:>9}")
    if args.against:
        earlier = json.loads(Path(args.against).read_text())
        print("medians against", args.against)
        for name, now in summary.items():
            then = earlier[name]["median"]
            lower = bounds[name]["better"] == "lower"
            worse = (now["median"] - then) / then if then else 0.0
            if not lower:
                worse = -worse
            flag = "ok" if worse <= bounds[name]["bound"] else "WORSE"
            if flag != "ok":
                steady_ok = False
            print(f"{name:<20} {then:>12.6g} -> {now['median']:>12.6g} "
                  f"{flag}")
    out = common.OUT / f"steady-{args.workload}-seed{args.seed}.json"
    common.OUT.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"# summary: {out.relative_to(common.ROOT)}")
    return 0 if steady_ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="repeat the workload this many times")
    parser.add_argument("--against", default=None,
                        help="steady-mode summary to compare medians with")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.steady:
        return steady(args, spec)
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
