"""Ingest-throughput micro-benchmark: per-edge vs batched vs columnar.

Not a paper figure -- this is the repo's own performance ledger for the
ingest pipeline.  Three paths over the same random multi-graph stream:

* ``per-edge (seed)``: one ``edge_update`` call per stream update into
  :class:`~repro.baselines.seed_store.SeedStore` holding per-round
  CubeSketch bundles (:class:`~repro.core.node_sketch.NodeSketch`)
  behind per-node gutters -- exactly the seed repository's only
  ingestion path;
* ``per-edge (flat)``: the same scalar API on the engine's tensor pool,
  isolating what the columnar *storage* alone buys;
* ``batched``: the per-node batch path -- updates grouped by
  destination in numpy, each group folded with one
  ``NodeTensorPool.apply_node_batch`` (what a full per-node gutter
  emits);
* ``columnar``: ``ingest_batch`` end-to-end -- canonicalise, mirror,
  encode, and fold the whole edge array through the tensor-pool kernel.

The measured updates/sec land in ``BENCH_ingest.json`` next to this
file so future PRs can track the trajectory; the assertions pin the
ordering (columnar > per-edge, by at least the 5x the ISSUE demands at
full scale).

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the workload
to run in seconds and relaxes the speedup floor, since tiny workloads
under-amortise the columnar kernel's fixed costs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import print_table

from repro.analysis.tables import render_table
from repro.baselines.seed_store import SeedStore
from repro.buffering.base import group_by_destination
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.core.node_sketch import NodeSketch

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Benchmark scale: the ISSUE's acceptance workload is a 10k-node
#: random stream; smoke mode shrinks it for CI.
NUM_NODES = 1_000 if SMOKE else 10_000
NUM_EDGES = 2_000 if SMOKE else 30_000
#: Required columnar-over-per-edge speedup (ISSUE acceptance: >= 5x).
MIN_SPEEDUP = 2.0 if SMOKE else 5.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"


def _random_edges(num_nodes: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


#: Hot-kernel backend of the measured engines (set
#: ``REPRO_BENCH_KERNEL_BACKEND=auto``/``native`` to ledger the
#: compiled kernels; the committed ledger is the numpy baseline --
#: ``BENCH_kernels.json`` holds the native-vs-numpy comparison).
KERNEL_BACKEND = os.environ.get("REPRO_BENCH_KERNEL_BACKEND", "numpy")


def _engine() -> GraphZeppelin:
    return GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(
            buffering=BufferingMode.LEAF_GUTTERS, seed=3, kernel_backend=KERNEL_BACKEND
        ),
    )


def _measure(label: str, run) -> dict:
    start = time.perf_counter()
    engine = run()
    elapsed = max(time.perf_counter() - start, 1e-9)
    updates = engine.updates_processed
    return {
        "path": label,
        "updates": updates,
        "seconds": round(elapsed, 4),
        "updates_per_sec": round(updates / elapsed, 1),
    }


def test_ingest_throughput_ledger():
    edges = _random_edges(NUM_NODES, NUM_EDGES, seed=5)

    def per_edge_seed():
        engine = SeedStore(NUM_NODES, sketch_type=NodeSketch, seed=3)
        for u, v in edges.tolist():
            engine.edge_update(u, v)
        engine.flush()
        return engine

    def per_edge_flat():
        engine = _engine()
        for u, v in edges.tolist():
            engine.edge_update(u, v)
        engine.flush()
        return engine

    def batched():
        engine = _engine()
        # The per-node batch path: group by destination once, then apply
        # one emitted-batch-sized group per node (what the gutters do at
        # capacity, minus the per-edge buffering overhead).
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        dsts = np.concatenate([lo, hi])
        neighbors = np.concatenate([hi, lo])
        engine._updates_processed += int(lo.size)
        for node, chunk in group_by_destination(dsts, neighbors):
            engine.tensor_pool.apply_node_batch(node, chunk)
        engine.flush()
        return engine

    def columnar():
        engine = _engine()
        engine.ingest_batch(edges)
        engine.flush()
        return engine

    rows = [
        _measure("per-edge (seed store, NodeSketch)", per_edge_seed),
        _measure("per-edge (flat backend)", per_edge_flat),
        _measure("batched (grouped per node)", batched),
        _measure("columnar (ingest_batch)", columnar),
    ]
    for row in rows:
        row["speedup_vs_per_edge"] = round(
            row["updates_per_sec"] / max(rows[0]["updates_per_sec"], 1e-9), 2
        )
    print_table(
        render_table(
            rows,
            title=(
                f"Ingest throughput ({NUM_NODES} nodes, {edges.shape[0]} edge updates"
                f"{', smoke' if SMOKE else ''})"
            ),
        )
    )

    payload = {
        "num_nodes": NUM_NODES,
        "num_edge_updates": int(edges.shape[0]),
        "kernel_backend": _engine().resolved_kernel_backend,
        "smoke": SMOKE,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    per_edge_rate = rows[0]["updates_per_sec"]
    columnar_rate = rows[3]["updates_per_sec"]
    # Loose sanity floor vs the grouped path (0.5x) -- CI timing noise on
    # shared runners makes a tight ratio flaky; the ledger records the
    # exact numbers for trend tracking.
    assert columnar_rate > rows[2]["updates_per_sec"] * 0.5
    assert columnar_rate >= MIN_SPEEDUP * per_edge_rate, (
        f"columnar ingest only {columnar_rate / per_edge_rate:.1f}x over per-edge "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def test_columnar_ingest_kernel(benchmark):
    """pytest-benchmark timing of the bare columnar ingest kernel."""
    edges = _random_edges(NUM_NODES, NUM_EDGES // 4, seed=11)
    engine = _engine()
    benchmark.pedantic(engine.ingest_batch, args=(edges,), rounds=1, iterations=1)
