"""The paged out-of-core engine: columnar ingest past the RAM budget.

A RAM-budgeted GraphZeppelin keeps its sketch state in a
:class:`~repro.sketch.paged_pool.PagedTensorPool` -- the round-major
bucket tensors partitioned into node-group *pages* (whole device
blocks each) behind the hybrid-memory substrate.  Buffered updates are
collected per page and fold through the columnar kernel in one page
pin; connectivity queries assemble each Boruvka round's slab with
partial-range reads and run the same vectorized whole-round driver the
in-RAM engine uses.

This example ingests one stream three ways -- in RAM, paged
out-of-core, and the seed design's per-node blob store
(:class:`~repro.baselines.seed_store.SeedStore`) -- then shows:

* bit-identical spanning forests across all three,
* the paged pool's page geometry and working-set telemetry,
* the block-I/O gap between paging node groups and paging nodes,
* page-affine sharded parallel ingest over the paged pool.

Run with:  python examples/out_of_core_paged.py
"""

import time

import numpy as np

from repro import GraphZeppelin, GraphZeppelinConfig
from repro.analysis.tables import format_bytes, format_rate, render_table
from repro.baselines.seed_store import SeedStore
from repro.generators.random_graphs import random_multigraph_edges
from repro.memory.hybrid import HybridMemory
from repro.sketch.sizes import node_sketch_size_bytes

NUM_NODES = 6_000
NUM_EDGES = 12_000
CHUNK = 2_000
SEED = 21


def ingest(engine, edges: np.ndarray) -> tuple:
    start = time.perf_counter()
    for offset in range(0, edges.shape[0], CHUNK):
        engine.ingest_batch(edges[offset : offset + CHUNK])
    engine.flush()
    forest = engine.list_spanning_forest()
    return engine, time.perf_counter() - start, forest


def main() -> None:
    edges = random_multigraph_edges(NUM_NODES, NUM_EDGES, seed=3)
    budget = node_sketch_size_bytes(NUM_NODES) * NUM_NODES // 4
    print(
        f"{NUM_NODES} nodes, {edges.shape[0]} edge updates, "
        f"RAM budget {format_bytes(budget)} "
        f"(sketch state {format_bytes(node_sketch_size_bytes(NUM_NODES) * NUM_NODES)})\n"
    )

    in_ram, in_ram_s, in_ram_forest = ingest(
        GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=SEED)), edges
    )
    paged, paged_s, paged_forest = ingest(
        GraphZeppelin(
            NUM_NODES, config=GraphZeppelinConfig(seed=SEED, ram_budget_bytes=budget)
        ),
        edges,
    )
    per_node, per_node_s, per_node_forest = ingest(
        SeedStore(NUM_NODES, seed=SEED, memory=HybridMemory(ram_bytes=budget)), edges
    )

    rows = []
    for name, engine, seconds in [
        ("in RAM (NodeTensorPool)", in_ram, in_ram_s),
        ("SSD, paged (PagedTensorPool)", paged, paged_s),
        ("SSD, per-node blobs (seed design)", per_node, per_node_s),
    ]:
        stats = engine.io_stats
        rows.append(
            {
                "configuration": name,
                "wall_s": f"{seconds:.2f}",
                "rate": format_rate(edges.shape[0] / seconds),
                "block_ios": stats.total_ios if stats else 0,
                "modelled_io_s": f"{stats.modelled_seconds:.2f}" if stats else "-",
            }
        )
    print(render_table(rows, title="Out-of-core ingest: pages vs per-node blobs"))

    assert (
        in_ram_forest.partition_signature()
        == paged_forest.partition_signature()
        == per_node_forest.partition_signature()
    )
    print("\nAll three stores return the same spanning forest "
          f"({in_ram_forest.num_components} components).")

    info = paged.tensor_pool.page_stats()
    print(
        f"\nPaged pool geometry: {info['num_pages']} pages x "
        f"{info['nodes_per_page']} nodes, {format_bytes(info['page_payload_bytes'])} "
        f"({info['page_blocks']} blocks) each; working set "
        f"{info['resident_budget']} pages "
        f"({info['page_ins']} page-ins, {info['page_writebacks']} write-backs, "
        f"{info['partial_reads']} partial round reads)."
    )

    # Page-affine sharded parallel ingest: shard boundaries snap to the
    # pool's page boundaries, so each page is folded by one worker.
    sharded = GraphZeppelin(
        NUM_NODES, config=GraphZeppelinConfig(seed=SEED, ram_budget_bytes=budget)
    )
    start = time.perf_counter()
    with sharded.parallel_ingestor(num_workers=4, backend="threads") as ingestor:
        ingestor.ingest_batch(edges)
    sharded_s = time.perf_counter() - start
    assert (
        sharded.list_spanning_forest().partition_signature()
        == in_ram_forest.partition_signature()
    )
    print(
        f"\nPage-affine sharded ingest (threads x{ingestor.effective_workers}): "
        f"{format_rate(edges.shape[0] / sharded_s)} -- same forest."
    )


if __name__ == "__main__":
    main()
