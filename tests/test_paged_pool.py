"""The paged out-of-core tensor pool must be bit-identical to in-RAM.

The PR 4 acceptance property: a `PagedTensorPool` engine -- any RAM
budget, any page size, any buffering mode, serial or page-affine
sharded ingest -- holds exactly the same bucket tensors as the in-RAM
`NodeTensorPool` under the same seed, and therefore returns the same
spanning forest.  Plus unit coverage for the page machinery itself:
LRU pinning, dirty write-back, partial-range round reads, and the
shared-memory guard.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boruvka import sketch_spanning_forest
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory
from repro.sketch.paged_pool import PagedTensorPool, plan_page_bounds
from repro.sketch.tensor_pool import NodeTensorPool

NUM_NODES = 48

seeds = st.integers(min_value=0, max_value=2**32 - 1)
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_NODES - 1),
        st.integers(min_value=0, max_value=NUM_NODES - 1),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=150,
)


def _edge_array(edges):
    return np.asarray(edges, dtype=np.int64)


def _assert_pools_identical(reference: NodeTensorPool, paged: PagedTensorPool):
    ref_alpha, ref_gamma = reference.raw_tensors()
    got_alpha, got_gamma = paged.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64), np.asarray(got_gamma, dtype=np.uint64)
    )


# ----------------------------------------------------------------------
# the tentpole property: bit-identical across budgets / pages / modes
# ----------------------------------------------------------------------
@given(
    edges=edge_lists,
    seed=seeds,
    ram_budget=st.sampled_from([0, 2_000, 50_000, 5_000_000]),
    nodes_per_page=st.sampled_from([None, 1, 5, 16, 64]),
    buffering=st.sampled_from(list(BufferingMode)),
)
@settings(max_examples=30, deadline=None)
def test_paged_engine_bit_identical_to_in_ram(
    edges, seed, ram_budget, nodes_per_page, buffering
):
    in_ram = GraphZeppelin(
        NUM_NODES, config=GraphZeppelinConfig(seed=seed, buffering=buffering)
    )
    paged = GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(
            seed=seed,
            buffering=buffering,
            ram_budget_bytes=ram_budget,
            nodes_per_page=nodes_per_page,
        ),
    )
    assert isinstance(paged.tensor_pool, PagedTensorPool)
    array = _edge_array(edges)
    in_ram.ingest_batch(array)
    paged.ingest_batch(array)
    in_ram.flush()
    paged.flush()
    _assert_pools_identical(in_ram.tensor_pool, paged.tensor_pool)
    assert (
        in_ram.list_spanning_forest().partition_signature()
        == paged.list_spanning_forest().partition_signature()
    )
    assert paged.updates_processed == in_ram.updates_processed


@given(edges=edge_lists, seed=seeds)
@settings(max_examples=15, deadline=None)
def test_paged_scalar_and_batched_ingest_agree(edges, seed):
    config = dict(seed=seed, ram_budget_bytes=4_000, nodes_per_page=7)
    batched = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(**config))
    scalar = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(**config))
    batched.ingest_batch(_edge_array(edges))
    for u, v in edges:
        scalar.edge_update(u, v)
    batched.flush()
    scalar.flush()
    _assert_pools_identical(batched.tensor_pool, scalar.tensor_pool)
    # The vectorized whole-round driver answers from the paged pool and
    # agrees with the scalar per-component driver on the same engine.
    vec = batched.list_spanning_forest()
    ref, ref_stats = sketch_spanning_forest(
        batched.num_nodes,
        batched.num_rounds,
        batched.encoder,
        lambda round_index, members: batched.tensor_pool.query_merged(
            members, round_index
        ),
    )
    assert vec.partition_signature() == ref.partition_signature()
    assert vec.edges == ref.edges
    assert batched.last_query_stats == ref_stats


@given(edges=edge_lists, seed=seeds, num_workers=st.sampled_from([1, 2, 3]))
@settings(max_examples=10, deadline=None)
def test_page_affine_sharded_ingest_bit_identical(edges, seed, num_workers):
    serial = GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(seed=seed, ram_budget_bytes=3_000, nodes_per_page=6),
    )
    sharded = GraphZeppelin(
        NUM_NODES,
        config=GraphZeppelinConfig(seed=seed, ram_budget_bytes=3_000, nodes_per_page=6),
    )
    array = _edge_array(edges)
    serial.tensor_pool.apply_edges(
        np.minimum(array[:, 0], array[:, 1]),
        np.maximum(array[:, 0], array[:, 1]),
        serial.encoder.encode_canonical_pairs(
            np.minimum(array[:, 0], array[:, 1]), np.maximum(array[:, 0], array[:, 1])
        ),
    )
    with sharded.parallel_ingestor(num_workers=num_workers, backend="threads") as ing:
        ing.ingest_batch(array)
    _assert_pools_identical(serial.tensor_pool, sharded.tensor_pool)


# ----------------------------------------------------------------------
# page machinery
# ----------------------------------------------------------------------
def test_plan_page_bounds_shapes():
    bounds = plan_page_bounds(10, node_bytes=100, block_size=1024, num_rows=15,
                              nodes_per_page=4)
    assert bounds.tolist() == [0, 4, 8, 10]
    auto = plan_page_bounds(1000, node_bytes=4096, block_size=16384, num_rows=15)
    # Auto sizing targets 16 blocks -> 64 nodes of 4 KiB per page.
    assert auto[1] - auto[0] == 64
    # Tiny graphs collapse to one page.
    assert plan_page_bounds(3, node_bytes=10, block_size=1024, num_rows=15).tolist() \
        == [0, 3]


def test_paged_pool_rejects_unbounded_memory():
    encoder = EdgeEncoder(8)
    with pytest.raises(ConfigurationError):
        PagedTensorPool(8, encoder, memory=HybridMemory(ram_bytes=None))


def test_paged_pool_rejects_shared_memory():
    encoder = EdgeEncoder(8)
    pool = PagedTensorPool(8, encoder, memory=HybridMemory(ram_bytes=0))
    with pytest.raises(ConfigurationError):
        pool.to_shared_memory()


def test_page_payload_is_whole_blocks_and_spills():
    encoder = EdgeEncoder(32)
    memory = HybridMemory(ram_bytes=0, block_size=4096)
    pool = PagedTensorPool(
        32, encoder, memory=memory, graph_seed=7, nodes_per_page=4, resident_pages=1
    )
    assert pool.page_payload_bytes(0) % memory.block_size == 0
    rng = np.random.default_rng(0)
    u = rng.integers(0, 32, 300)
    v = (u + 1 + rng.integers(0, 30, 300)) % 32
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))
    # With a one-page working set and zero RAM budget, folds must have
    # written dirty pages through to the device.
    assert pool.page_writebacks > 0
    assert memory.stats.block_writes > 0
    assert pool.resident_page_count() <= 1
    # ...and a whole-round query reads partial ranges, not whole pages.
    reads_before = memory.stats.block_reads
    pool.query_components(np.zeros(32, dtype=np.int64), 0)
    partial_blocks = memory.stats.block_reads - reads_before
    assert 0 < partial_blocks < (pool.num_pages - 1) * (
        pool.page_payload_bytes(0) // memory.block_size
    )
    assert pool.partial_reads > 0


def test_dirty_page_write_back_survives_eviction_round_trip():
    encoder = EdgeEncoder(24)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        24, encoder, memory=memory, graph_seed=3, nodes_per_page=4, resident_pages=2
    )
    reference = NodeTensorPool(24, encoder, graph_seed=3)
    rng = np.random.default_rng(5)
    # Many small folds across all pages force repeated evict/reload.
    for _ in range(12):
        u = rng.integers(0, 24, 40)
        v = (u + 1 + rng.integers(0, 22, 40)) % 24
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        idx = encoder.encode_canonical_pairs(lo, hi)
        pool.apply_edges(lo, hi, idx)
        reference.apply_edges(lo, hi, idx)
    _assert_pools_identical(reference, pool)
    assert pool.page_ins > 0  # pages really did round-trip through bytes


def test_paged_node_sketch_and_load_round_trip():
    encoder = EdgeEncoder(16)
    memory = HybridMemory(ram_bytes=2_000, block_size=1024)
    pool = PagedTensorPool(16, encoder, memory=memory, graph_seed=2, nodes_per_page=4)
    pool.apply_node_batch(5, [1, 2, 9])
    sketch = pool.node_sketch(5)
    reference = NodeTensorPool(16, encoder, graph_seed=2)
    reference.apply_node_batch(5, [1, 2, 9])
    assert sketch == reference.node_sketch(5)
    assert not pool.node_is_empty(5)
    assert pool.node_is_empty(6)
    # load_node_sketch writes through the page and invalidates queries.
    pool.load_node_sketch(reference.node_sketch(5))
    _assert_pools_identical(reference, pool)


def test_paged_engine_charges_io_and_reports_page_stats():
    engine = GraphZeppelin(
        40,
        config=GraphZeppelinConfig(
            seed=11, ram_budget_bytes=2_000, nodes_per_page=5
        ),
    )
    rng = np.random.default_rng(11)
    u = rng.integers(0, 40, 500)
    v = (u + 1 + rng.integers(0, 38, 500)) % 40
    engine.ingest_batch(np.stack([u, v], axis=1))
    engine.list_spanning_forest()
    stats = engine.tensor_pool.page_stats()
    assert stats["num_pages"] == 8
    assert stats["page_payload_bytes"] % engine.memory.block_size == 0
    assert engine.io_stats.total_ios > 0
    assert engine.io_stats.modelled_seconds > 0


def test_wide_mode_paged_pool_matches_in_ram():
    encoder = EdgeEncoder(20)
    memory = HybridMemory(ram_bytes=1_000, block_size=512)
    paged = PagedTensorPool(
        20, encoder, memory=memory, graph_seed=9, force_wide=True, nodes_per_page=3
    )
    reference = NodeTensorPool(20, encoder, graph_seed=9, force_wide=True)
    rng = np.random.default_rng(9)
    u = rng.integers(0, 20, 200)
    v = (u + 1 + rng.integers(0, 18, 200)) % 20
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    idx = encoder.encode_canonical_pairs(lo, hi)
    paged.apply_edges(lo, hi, idx)
    reference.apply_edges(lo, hi, idx)
    _assert_pools_identical(reference, paged)
    labels = rng.integers(0, 4, 20)
    for round_index in range(min(4, paged.num_rounds)):
        ref = reference.query_components(labels, round_index)
        got = paged.query_components(labels, round_index)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)


def test_pin_never_evicts_the_just_pinned_page():
    """Eviction must skip the page being pinned, even on a full working set.

    Regression: _pin used to insert the page and sweep evictions before
    recording the pin -- with every other resident page pinned (the
    page-affine concurrent-fold situation) the sweep picked the brand
    new page itself, orphaning the tensor the caller was about to fold
    into and silently dropping its updates.
    """
    encoder = EdgeEncoder(16)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        16, encoder, memory=memory, graph_seed=1, nodes_per_page=4, resident_pages=1
    )
    first = pool._pin(0)
    try:
        second = pool._pin(1)  # overflows the 1-page budget
        try:
            assert 1 in pool._resident  # must not have evicted itself
            assert second is pool._resident[1]
        finally:
            pool._unpin(1)
    finally:
        pool._unpin(0)


def test_working_set_is_reserved_from_the_ram_budget():
    """Pinned pages plus the byte cache never exceed the configured budget."""
    encoder = EdgeEncoder(32)
    memory = HybridMemory(ram_bytes=1 << 20, block_size=1024)
    before = memory._cache.capacity_bytes
    pool = PagedTensorPool(32, encoder, memory=memory, graph_seed=1, nodes_per_page=4)
    reserved = pool.resident_pages * pool.page_payload_bytes(0)
    assert memory._cache.capacity_bytes == before - reserved
    assert reserved + memory._cache.capacity_bytes <= (1 << 20)


# ----------------------------------------------------------------------
# eviction write-back failure (the fault-injection contract)
# ----------------------------------------------------------------------
def test_failed_dirty_eviction_keeps_page_resident_and_dirty():
    """A device store that raises mid-write-back must lose nothing: the
    victim stays resident and dirty, the failure is counted, and a later
    healed sync persists the buckets bit-identically."""
    from repro.resilience.faults import FaultPlan, FaultSpec

    encoder = EdgeEncoder(24)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        24, encoder, memory=memory, graph_seed=3, nodes_per_page=4, resident_pages=2
    )
    reference = NodeTensorPool(24, encoder, graph_seed=3)
    rng = np.random.default_rng(7)
    u = rng.integers(0, 24, 60)
    v = (u + 1 + rng.integers(0, 22, 60)) % 24
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    idx = encoder.encode_canonical_pairs(lo, hi)
    pool.apply_edges(lo, hi, idx)
    reference.apply_edges(lo, hi, idx)

    assert pool._dirty, "fold should have left dirty resident pages"
    victim = next(iter(pool._resident))
    assert victim in pool._dirty

    memory.fault_plan = FaultPlan([FaultSpec(site="device.write", at=1)])
    pool.resident_pages = 0  # force eviction pressure on every page
    pool._evict_to_budget()

    assert pool.page_writeback_failures == 1
    assert pool.page_stats()["page_writeback_failures"] == 1
    assert memory.stats.write_failures == 1
    # The victim survived the failed write-back, still dirty.
    assert victim in pool._resident
    assert victim in pool._dirty

    # Healed device: sync drains every dirty page and state is intact.
    memory.fault_plan = None
    pool.resident_pages = 2
    pool.sync()
    assert not pool._dirty
    _assert_pools_identical(reference, pool)


def test_sync_failure_leaves_exactly_unwritten_pages_dirty():
    from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

    encoder = EdgeEncoder(24)
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    pool = PagedTensorPool(
        24, encoder, memory=memory, graph_seed=3, nodes_per_page=4,
        resident_pages=6,
    )
    rng = np.random.default_rng(9)
    u = rng.integers(0, 24, 60)
    v = (u + 1 + rng.integers(0, 22, 60)) % 24
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pool.apply_edges(lo, hi, encoder.encode_canonical_pairs(lo, hi))
    dirty_before = set(pool._dirty)
    assert len(dirty_before) >= 2

    # Fail the second write of the sync sweep: exactly one page drains.
    memory.fault_plan = FaultPlan([FaultSpec(site="device.write", at=2)])
    with pytest.raises(InjectedFault):
        pool.sync()
    assert len(pool._dirty) == len(dirty_before) - 1
    memory.fault_plan = None
    pool.sync()
    assert not pool._dirty
