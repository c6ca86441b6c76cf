"""Out-of-core ingest benchmark: paged-columnar vs seed per-node store.

The repo's performance ledger for the out-of-core engine (ISSUE 4).
Three engines ingest the same random stream through the same user API
(`ingest_batch` chunks, then `flush`):

* ``in-RAM columnar``: no RAM budget -- the reference both out-of-core
  rows must stay **bit-identical** to (same forest, same bucket
  tensors under the same seed);
* ``paged columnar``: ``ram_budget_bytes`` set, the
  :class:`~repro.sketch.paged_pool.PagedTensorPool` -- node-group
  pages through the hybrid memory, page-coalesced buffering, combined
  fold kernel;
* ``per-node blob store``: the same RAM budget through the seed
  design, :class:`~repro.baselines.seed_store.SeedStore`: one
  serialised ``FlatNodeSketch`` payload per node in a ``SketchStore``,
  per-node gutters, one blob round trip per emitted batch.

The RAM budget is an eighth of the sketch-state bytes, which leaves
well over half of the pages spilled to the simulated SSD (the spill
fraction is recorded and asserted >= 50%).  The workload is the
out-of-core regime the paper's Figures 12/15 target: a graph whose
node universe dwarfs the buffered updates per node, so the per-node
path pays a kernel invocation and a blob round trip for every touched
node while the paged path folds whole mixed-node columns.

Acceptance (full scale, ISSUE 4): paged-columnar ingest >= 5x the
per-node store's update rate, with strictly fewer block-device I/Os
per flushed update and a forest bit-identical to the in-RAM engine.
Smoke mode (``REPRO_BENCH_SMOKE=1``, CI) shrinks the workload and only
requires paged >= per-node plus the identity/IO properties.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
from _timing import TIMING_REPS, interleaved_medians
from conftest import print_table

from repro.analysis.tables import render_table
from repro.baselines.seed_store import SeedStore
from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.generators.random_graphs import random_multigraph_edges
from repro.memory.hybrid import HybridMemory
from repro.sketch.flat_node_sketch import FlatNodeSketch
from repro.sketch.sizes import node_sketch_size_bytes

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Benchmark scale: a wide, sparse stream (the out-of-core regime --
#: most nodes see only a handful of updates between flushes).
NUM_NODES = 2_000 if SMOKE else 30_000
NUM_EDGES = 2_000 if SMOKE else 20_000
#: Ingest chunk handed to ``ingest_batch`` (the buffering layer sits
#: behind it either way).
CHUNK = 1_000 if SMOKE else 4_000
#: Required paged-over-per-node speedup (ISSUE 4: >= 5x at full scale;
#: smoke only requires parity -- tiny workloads under-amortise pages).
MIN_SPEEDUP = 1.0 if SMOKE else 5.0
#: Required spill: at least half the pages must not fit the working set.
MIN_SPILL_FRACTION = 0.5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_outofcore.json"

SEED = 13


def _ram_budget() -> int:
    return node_sketch_size_bytes(NUM_NODES) * NUM_NODES // 8


def _build(kind: str):
    if kind == "in_ram":
        return GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=SEED))
    if kind == "paged":
        return GraphZeppelin(
            NUM_NODES,
            config=GraphZeppelinConfig(seed=SEED, ram_budget_bytes=_ram_budget()),
        )
    return SeedStore(
        NUM_NODES,
        sketch_type=FlatNodeSketch,
        seed=SEED,
        memory=HybridMemory(ram_bytes=_ram_budget()),
    )


def _ingest(kind: str, edges: np.ndarray):
    engine = _build(kind)
    for start in range(0, edges.shape[0], CHUNK):
        engine.ingest_batch(edges[start : start + CHUNK])
    engine.flush()
    return engine


def _tensors_equal(a: GraphZeppelin, b: GraphZeppelin) -> bool:
    alpha_a, gamma_a = a.tensor_pool.raw_tensors()
    alpha_b, gamma_b = b.tensor_pool.raw_tensors()
    return bool(
        np.array_equal(alpha_a, alpha_b)
        and np.array_equal(
            np.asarray(gamma_a, dtype=np.uint64), np.asarray(gamma_b, dtype=np.uint64)
        )
    )


def test_outofcore_ingest_ledger():
    edges = random_multigraph_edges(NUM_NODES, NUM_EDGES, seed=5)
    count = int(edges.shape[0])

    specs = ["in_ram", "paged", "per_node"]
    engines = {}

    def on_result(kind: str, rep: int, engine) -> None:
        # The first repetition's engines are kept for the correctness
        # half of the ledger below; later repetitions are timing-only.
        if rep == 0:
            engines[kind] = engine

    medians = interleaved_medians(
        [(kind, (lambda kind=kind: _ingest(kind, edges))) for kind in specs],
        reps=TIMING_REPS,
        on_result=on_result,
    )

    # Correctness half of the ledger: both out-of-core engines answer
    # with the in-RAM forest, and the paged pool's bucket tensors are
    # bit-identical to the in-RAM pool's.
    reference_forest = engines["in_ram"].list_spanning_forest().partition_signature()
    paged_identical = _tensors_equal(engines["in_ram"], engines["paged"]) and (
        engines["paged"].list_spanning_forest().partition_signature()
        == reference_forest
    )
    per_node_matches = (
        engines["per_node"].list_spanning_forest().partition_signature()
        == reference_forest
    )

    page_info = engines["paged"].tensor_pool.page_stats()
    spill_fraction = 1.0 - page_info["resident_budget"] / page_info["num_pages"]
    io_per_update = {
        kind: engines[kind].io_stats.total_ios / count
        for kind in ("paged", "per_node")
    }

    rows = []
    for kind, label in [
        ("in_ram", "in-RAM columnar (reference)"),
        ("paged", "paged columnar (PagedTensorPool)"),
        ("per_node", "per-node blob store (seed design)"),
    ]:
        seconds = medians[kind]
        row = {
            "path": label,
            "seconds": round(seconds, 4),
            "updates_per_sec": round(count / seconds, 1),
        }
        if kind != "in_ram":
            row["block_ios"] = engines[kind].io_stats.total_ios
            row["ios_per_update"] = round(io_per_update[kind], 3)
            row["modelled_io_seconds"] = round(
                engines[kind].io_stats.modelled_seconds, 3
            )
        rows.append(row)
    speedup = rows[1]["updates_per_sec"] / rows[2]["updates_per_sec"]
    for row in rows:
        row["speedup_vs_per_node"] = round(
            row["updates_per_sec"] / rows[2]["updates_per_sec"], 2
        )

    print_table(
        render_table(
            rows,
            title=(
                f"Out-of-core ingest ({NUM_NODES} nodes, {count} edge updates, "
                f"RAM budget {_ram_budget() >> 20} MiB, "
                f"{page_info['num_pages']} pages x {page_info['nodes_per_page']} "
                f"nodes, spill {spill_fraction:.0%}{', smoke' if SMOKE else ''})"
            ),
        )
    )

    payload = {
        "num_nodes": NUM_NODES,
        "num_edge_updates": count,
        "ram_budget_bytes": _ram_budget(),
        "page_payload_bytes": page_info["page_payload_bytes"],
        "nodes_per_page": page_info["nodes_per_page"],
        "num_pages": page_info["num_pages"],
        "resident_budget_pages": page_info["resident_budget"],
        "spill_fraction": round(spill_fraction, 4),
        "smoke": SMOKE,
        "timing_reps": TIMING_REPS,
        "rows": rows,
        "paged_bit_identical_to_in_ram": paged_identical,
        "per_node_forest_matches": per_node_matches,
        "paged_speedup_vs_per_node": round(speedup, 2),
        "min_speedup_required": MIN_SPEEDUP,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")

    # Acceptance: bit-identical answers, >= 50% spill, strictly fewer
    # block I/Os per flushed update, and the speedup floor.
    assert paged_identical, "paged pool diverged from the in-RAM reference"
    assert per_node_matches, "per-node baseline diverged from the reference"
    assert spill_fraction >= MIN_SPILL_FRACTION, (
        f"workload only spills {spill_fraction:.0%} of pages; "
        "tighten the RAM budget"
    )
    assert io_per_update["paged"] < io_per_update["per_node"], (
        "paged path must issue strictly fewer block I/Os per flushed update "
        f"({io_per_update['paged']:.3f} vs {io_per_update['per_node']:.3f})"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"paged columnar ingest reached only {speedup:.2f}x the per-node "
        f"store (required {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_outofcore_ingest_ledger()
