"""The system benchmark: one workload per process, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-ingest --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

A run generates the workload's stream from ``--seed``, computes the
exact answers, builds the native kernel library if it is not cached
yet, and then replays the stream through fresh engines ("passes") until
``--seconds`` of passes have run.  It prints a readable report and, as
its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` passes alternate between plain
and traced (layer entry points wrapped, see ``tracer.py``) and the
metrics are the per-layer ones.  A traced run also writes a Chrome
``trace_event`` file and a per-layer table under ``.bench_build/``.

The exit code is 0 only when every answer matched the oracle, the
out-of-core RAM budget held, and traced passes returned forests
bit-identical to the plain passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
#: Engine construction is sub-millisecond (pools are allocated lazily),
#: so a run times it this many times before its first pass and again
#: after every pass, and reports the median of all of them.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def warm_kernels():
    """Build (once per checkout) and load the native kernel library."""
    from repro.kernels import native_kernels, native_unavailable_reason

    start = perf_counter()
    provider = native_kernels()
    seconds = perf_counter() - start
    if provider is None:
        print(f"native kernels unavailable: {native_unavailable_reason()}")
    else:
        print(f"native kernels: {provider.name} ready in {seconds:.2f} s")
    return provider


def provenance(passes) -> dict:
    import numpy as np
    from repro.parallel.cost_model import usable_cores

    return {
        "resolved_kernel_backend": passes[0].kernel_backend,
        "usable_cores": usable_cores(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def end_to_end(passes, setups) -> dict:
    import numpy as np

    samples = [ms for p in passes for ms in p.query_ms]
    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    # The host's speed switches between levels for seconds to minutes at
    # a time, so a run's samples are a mixture of those levels.  A median
    # of such a mixture jumps from one level to the other as their shares
    # change from run to run; means and the 90th percentile move smoothly.
    return {
        "setup_s": statistics.median(setups),
        "ingest_updates_per_s": sum(p.updates for p in passes) / sum(p.ingest_s for p in passes),
        "query_mean_ms": statistics.fmean(samples),
        "query_p90_ms": float(np.percentile(samples, 90)),
        "wall_s": statistics.fmean(p.wall_s for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(timed, traced, tracers, workload) -> dict:
    """Median over traced passes of every per-layer metric."""
    from perfbench.tracer import layer_table, shard_balance, top_level_seconds

    main = threading.get_ident()
    rows = []
    for result, tracer in zip(traced, tracers):
        table = layer_table(tracer.spans, main)

        def col(name, key="busy_s"):
            return table.get(name, {}).get(key, 0)

        stats = result.query_stats
        queries = sum(s[2] for s in stats)
        io, page = result.io, result.page
        balance = shard_balance(tracer.spans, main, workload.workers)
        gutters = ("buffering.insert_batch", "buffering.flush_all")
        emitted = sum(col(name, "units") for name in gutters)
        emitted_updates = sum(col(name, "extra") for name in gutters)
        rows.append({
            "core.ingest_batch.calls": col("core.ingest_batch", "count"),
            "core.ingest_batch.self_s": col("core.ingest_batch", "self_s"),
            "core.flush.s": col("core.flush"),
            "core.boruvka.self_s": col("core.boruvka", "self_s"),
            "core.boruvka.rounds_per_query": statistics.mean(s[0] for s in stats) if stats else 0,
            "core.boruvka.merges": sum(s[1] for s in stats),
            "hashing.s": col("hashing"),
            "sketch.fold.calls": col("sketch.fold", "count"),
            "sketch.fold.s": col("sketch.fold"),
            "sketch.fold.updates_per_call": (
                col("sketch.fold", "units") / col("sketch.fold", "count")
                if col("sketch.fold", "count") else 0
            ),
            "sketch.query_components.calls": col("sketch.query_components", "count"),
            "sketch.query_components.s": col("sketch.query_components"),
            "sketch.sample_good_ratio": sum(s[3] for s in stats) / queries if queries else 0,
            "sketch.samples_failed": sum(s[4] for s in stats),
            "kernels.fold.s": col("kernels.fold"),
            "kernels.reduce.s": col("kernels.reduce"),
            "kernels.decode.s": col("kernels.decode"),
            "parallel.ingest_batch.s": col("parallel.ingest_batch"),
            "parallel.worker_busy_frac": balance["worker_busy_frac"],
            "parallel.shard_skew": balance["shard_skew"],
            "parallel.coordinator_s": balance["coordinator_s"],
            "buffering.insert_batch.s": col("buffering.insert_batch"),
            "buffering.flush_all.s": col("buffering.flush_all"),
            "buffering.batches_emitted": emitted,
            "buffering.updates_per_batch": emitted_updates / emitted if emitted else 0,
            "memory.load.s": col("memory.load"),
            "memory.store.s": col("memory.store"),
            "memory.block_reads": io.get("block_reads", 0),
            "memory.block_writes": io.get("block_writes", 0),
            "memory.bytes_read": io.get("bytes_read", 0),
            "memory.bytes_written": io.get("bytes_written", 0),
            "memory.ios_per_update": (
                (io.get("block_reads", 0) + io.get("block_writes", 0)) / result.updates
            ),
            "memory.cache_hit_rate": (
                io["cache_hits"] / (io["cache_hits"] + io["cache_misses"])
                if io.get("cache_hits", 0) + io.get("cache_misses", 0) else 0
            ),
            "memory.page_ins": page.get("page_ins", 0),
            "memory.page_writebacks": page.get("page_writebacks", 0),
            "memory.modelled_io_s": io.get("modelled_seconds", 0.0),
            "memory.peak_cached_mib": tracer.peak_held_bytes / 2**20,
            "memory.failures": sum(
                io.get(key, 0)
                for key in ("read_failures", "write_failures", "checksum_failures", "io_retries")
            ),
            "trace.uncovered_s": result.wall_s - top_level_seconds(tracer.spans, main),
        })
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        p.wall_s for p in traced
    ) - statistics.median(p.wall_s for p in timed)
    return metrics


def write_trace_outputs(label, tracers, workload) -> None:
    """Chrome trace and per-layer table of a traced run, under .bench_build."""
    from perfbench.tracer import chrome_trace, layer_table

    out = BUILD / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    spans = [record for tracer in tracers for record in tracer.spans]
    (out / f"{label}.trace.json").write_text(json.dumps(chrome_trace(spans)))
    table = layer_table(spans, threading.get_ident())
    lines = [
        f"per-layer spans of {workload.name}, totals over {len(tracers)} traced passes",
        f"{'span':<26}{'count':>9}{'busy_s':>11}{'self_s':>11}{'wait_s':>11}",
    ]
    for name in sorted(table):
        row = table[name]
        lines.append(
            f"{name:<26}{row['count']:>9}{row['busy_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{row['wait_s']:>11.4f}"
        )
    text = "\n".join(lines)
    (out / f"{label}.layers.txt").write_text(text + "\n")
    print(text)
    print(f"trace written to {out / (label + '.trace.json')}")


def run_workload(args, spec) -> int:
    from perfbench.workloads import WORKLOADS, prepare, run_pass, time_setup

    from perfbench.tracer import Tracer

    workload = WORKLOADS[args.workload]
    provider = warm_kernels()
    stream, expected = prepare(workload, args.seed)
    print(
        f"{workload.name}: {workload.num_nodes} nodes, {len(stream)} updates "
        f"in {workload.batch_edges}-edge batches, {len(expected)} queries per pass, "
        f"seed {args.seed}"
    )
    time_setup(workload, args.seed)  # first construction loads lazy state
    setups = [time_setup(workload, args.seed) for _ in range(SETUP_SAMPLES)]
    timed, traced, tracers = [], [], []

    def traced_pass():
        tracer = Tracer()
        tracer.install(provider if workload.kernel_backend != "numpy" else None)
        try:
            traced.append(run_pass(workload, stream, expected, args.seed))
        finally:
            tracer.remove()
        tracers.append(tracer)

    # Passes (or plain/traced pairs, in alternating order so neither
    # side always runs first) repeat while the next one is expected to
    # end within half a pass of --seconds.
    start = perf_counter()
    while True:
        if args.trace and len(timed) % 2:
            traced_pass()
        timed.append(run_pass(workload, stream, expected, args.seed))
        setups += [time_setup(workload, args.seed) for _ in range(SETUP_SAMPLES)]
        if args.trace and len(traced) < len(timed):
            traced_pass()
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(timed) >= args.seconds:
            break

    problems = [problem for p in timed + traced for problem in p.problems]
    failed = sum(p.failed for p in timed + traced)
    attempted = sum(p.attempted for p in timed + traced)
    for result, tracer in zip(traced, tracers):
        if tracer.budget_breaches:
            failed += 1
            problems.append(f"RAM budget exceeded after {tracer.budget_breaches} memory calls")
        if result.digests != timed[0].digests:
            failed += 1
            problems.append("traced pass forests differ from the plain pass")
    if any(p.digests != timed[0].digests for p in timed):
        failed += 1
        problems.append("plain passes of one seed returned different forests")

    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = per_layer(timed, traced, tracers, workload)
        write_trace_outputs(label, tracers, workload)
        names = spec["per_layer"]
    else:
        values = end_to_end(timed, setups)
        names = spec["end_to_end"]
    if set(values) != {m["name"] for m in names}:
        raise RuntimeError(f"computed metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    samples = sum(len(p.query_ms) for p in timed)
    print(f"{len(timed)} plain passes, {len(traced)} traced; {samples} query samples")
    origin = provenance(timed)
    for key, value in origin.items():
        print(f"  {key}: {value}")
    for name, metric in metrics.items():
        print(f"  {name:<34}{metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    BUILD.joinpath("perfbench").mkdir(parents=True, exist_ok=True)
    BUILD.joinpath("perfbench", f"{label}.json").write_text(
        json.dumps({**result, "provenance": origin, "problems": problems, "samples": {
            "setup_s": setups,
            "query_ms": [ms for p in timed for ms in p.query_ms],
            "pass_ingest_s": [p.ingest_s for p in timed],
            "pass_wall_s": [p.wall_s for p in timed],
        }}, indent=1)
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args, names) -> int:
    """Every workload in its own fresh process, one after another."""
    worst = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no repro source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} (use {names})", file=sys.stderr)
        return 2
    # Compiled kernels are cached inside the checkout, never in a system dir.
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "ckernels")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
