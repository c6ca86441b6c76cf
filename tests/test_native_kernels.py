"""Native kernel providers must be bit-identical to the numpy kernels.

The compiled hot-kernel twins (``repro.kernels``: the runtime-compiled
C library) are pure optimisations: under the same seed they must
produce the *same bits* as the numpy path -- same pool tensors, same
forests, same Boruvka stats -- across packed/wide bucket modes,
flat/paged pools, and serial/sharded/distributed ingest.  These tests
assert exactly that, plus the dispatch plumbing (config validation,
auto fallback, fingerprint exclusion).

The whole module skips -- not errors -- when no native provider is
usable (no C toolchain): the numpy-only environment is a supported
configuration and its suite must stay green.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.kernels import native_kernels, native_unavailable_reason, resolve_kernels
from repro.sketch.flat_node_sketch import (
    FlatNodeSketch,
    decode_column_batch,
    hash_depths_checksums,
    segmented_xor,
)
from repro.sketch.tensor_pool import NodeTensorPool

NATIVE = native_kernels()

pytestmark = pytest.mark.skipif(
    NATIVE is None,
    reason=f"no native kernel provider usable ({native_unavailable_reason()})",
)


def _random_edges(num_nodes: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def _assert_same_engine_state(native: GraphZeppelin, reference: GraphZeppelin) -> None:
    reference.flush()
    native.flush()
    ref_alpha, ref_gamma = reference.tensor_pool.raw_tensors()
    got_alpha, got_gamma = native.tensor_pool.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64),
        np.asarray(got_gamma, dtype=np.uint64),
    )
    ref_forest = reference.list_spanning_forest()
    got_forest = native.list_spanning_forest()
    assert got_forest.partition_signature() == ref_forest.partition_signature()
    assert sorted(got_forest.edges) == sorted(ref_forest.edges)
    ref_stats = reference.last_query_stats
    got_stats = native.last_query_stats
    assert (got_stats.rounds_used, got_stats.component_queries,
            got_stats.good_samples, got_stats.zero_samples,
            got_stats.failed_samples) == (
        ref_stats.rounds_used, ref_stats.component_queries,
        ref_stats.good_samples, ref_stats.zero_samples,
        ref_stats.failed_samples)


# ----------------------------------------------------------------------
# kernel-level properties (direct provider calls vs the numpy kernels)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 91])
@pytest.mark.parametrize("force_wide", [False, True])
def test_fold_pool_bit_identical(seed, force_wide):
    num_nodes = 257
    reference = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=seed))
    pool_np = NodeTensorPool(
        num_nodes, reference.encoder, graph_seed=seed, force_wide=force_wide
    )
    pool_native = NodeTensorPool(
        num_nodes, reference.encoder, graph_seed=seed, force_wide=force_wide,
        kernels=NATIVE,
    )
    rng = np.random.default_rng(seed + 1)
    count = 4000
    dsts = np.sort(rng.integers(0, num_nodes, count)).astype(np.int64)
    indices = rng.integers(
        0, reference.encoder.vector_length, count, dtype=np.uint64
    )
    pool_np.apply_updates(dsts, indices)
    pool_native.apply_updates(dsts, indices)
    ref_alpha, ref_gamma = pool_np.raw_tensors()
    got_alpha, got_gamma = pool_native.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64), np.asarray(got_gamma, dtype=np.uint64)
    )
    assert pool_native.updates_applied == pool_np.updates_applied


@pytest.mark.parametrize("force_wide", [False, True])
def test_fold_edges_bit_identical(force_wide):
    num_nodes = 128
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=5))
    pool_np = NodeTensorPool(
        num_nodes, engine.encoder, graph_seed=5, force_wide=force_wide
    )
    pool_native = NodeTensorPool(
        num_nodes, engine.encoder, graph_seed=5, force_wide=force_wide, kernels=NATIVE
    )
    edges = _random_edges(num_nodes, 3000, seed=9)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    indices = engine.encoder.encode_canonical_pairs(lo, hi)
    pool_np.apply_edges(lo, hi, indices)
    pool_native.apply_edges(lo, hi, indices)
    ref_alpha, ref_gamma = pool_np.raw_tensors()
    got_alpha, got_gamma = pool_native.raw_tensors()
    assert np.array_equal(ref_alpha, got_alpha)
    assert np.array_equal(
        np.asarray(ref_gamma, dtype=np.uint64), np.asarray(got_gamma, dtype=np.uint64)
    )


@pytest.mark.parametrize("seed", [1, 13])
@pytest.mark.parametrize("force_wide", [False, True])
def test_segment_xor_bit_identical(seed, force_wide):
    num_nodes = 300
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=seed))
    pool = NodeTensorPool(
        num_nodes, engine.encoder, graph_seed=seed, force_wide=force_wide
    )
    rng = np.random.default_rng(seed)
    count = 5000
    dsts = np.sort(rng.integers(0, num_nodes, count)).astype(np.int64)
    indices = rng.integers(0, engine.encoder.vector_length, count, dtype=np.uint64)
    pool.apply_updates(dsts, indices)
    keys = ("packed",) if pool._packed else ("alpha", "gamma")
    labels = rng.integers(0, 40, num_nodes)
    order = np.argsort(labels, kind="stable")
    nodes = order.astype(np.int64)
    seg_starts = np.flatnonzero(
        np.r_[True, np.diff(labels[order]) != 0]
    ).astype(np.int64)
    cols, rows = pool.num_columns, pool.num_rows
    for key in keys:
        for round_index in (0, pool.num_rounds - 1):
            slab = pool._round_view(key, round_index)
            for col_start, col_stop in ((0, 1), (1, cols), (0, cols)):
                width = (col_stop - col_start) * rows
                expected = segmented_xor(
                    slab[nodes, col_start:col_stop].reshape(nodes.size, width),
                    seg_starts,
                )
                got = NATIVE.segment_xor(
                    slab, nodes, seg_starts, col_start, col_stop, rows
                )
                assert got.dtype == expected.dtype
                assert np.array_equal(expected, got)


@pytest.mark.parametrize("seed", [2, 29])
def test_decode_column_bit_identical(seed):
    rng = np.random.default_rng(seed)
    engine = GraphZeppelin(500, GraphZeppelinConfig(seed=seed))
    pool = engine.tensor_pool
    rows = pool.num_rows
    count = 700
    vector_length = engine.encoder.vector_length
    alpha = rng.integers(0, vector_length, (count, rows), dtype=np.uint64)
    gamma = rng.integers(0, 1 << 32, (count, rows), dtype=np.uint64)
    # Plant verified buckets (checksum matches alpha), all-zero rows,
    # and garbage so every status branch is exercised.
    mixed_seed = pool._mixed_checksum[0]
    from repro.hashing.mixers import finalise_hash64_inplace

    planted = alpha[::3, 1].copy()
    gamma[::3, 1] = finalise_hash64_inplace(planted ^ mixed_seed) & np.uint64(
        0xFFFFFFFF
    )
    alpha[::5] = 0
    gamma[::5] = 0
    expected = decode_column_batch(alpha, gamma, vector_length, mixed_seed)
    got = NATIVE.decode_column(alpha, gamma, vector_length, mixed_seed)
    for exp, act in zip(expected, got):
        assert exp.dtype == act.dtype
        assert np.array_equal(exp, act)


def test_fold_bundle_matches_numpy_flat_sketch():
    engine = GraphZeppelin(64, GraphZeppelinConfig(seed=17))
    rng = np.random.default_rng(17)
    sketch_np = FlatNodeSketch(3, engine.encoder, graph_seed=17)
    sketch_native = FlatNodeSketch(3, engine.encoder, graph_seed=17, kernels=NATIVE)
    indices = rng.integers(
        0, engine.encoder.vector_length, 900, dtype=np.uint64
    )
    sketch_np.apply_indices(indices)
    sketch_native.apply_indices(indices)
    assert np.array_equal(sketch_np._alpha, sketch_native._alpha)
    assert np.array_equal(sketch_np._gamma, sketch_native._gamma)
    assert sketch_native.copy()._kernels is NATIVE
    restored = FlatNodeSketch.from_bytes(
        sketch_native.to_bytes(), engine.encoder, 17, kernels=NATIVE
    )
    assert np.array_equal(restored._alpha, sketch_np._alpha)


# ----------------------------------------------------------------------
# engine-level properties (whole runs, numpy vs native config)
# ----------------------------------------------------------------------
def _run_engine(num_nodes, edges, **config_kwargs):
    engine = GraphZeppelin(num_nodes, GraphZeppelinConfig(**config_kwargs))
    engine.ingest_batch(edges)
    engine.list_spanning_forest()
    return engine


@pytest.mark.parametrize("seed", [0, 23])
def test_serial_flat_engine_bit_identical(seed):
    num_nodes = 350
    edges = _random_edges(num_nodes, 4000, seed=seed + 100)
    reference = _run_engine(num_nodes, edges, seed=seed)
    native = _run_engine(num_nodes, edges, seed=seed, kernel_backend="native")
    assert native.resolved_kernel_backend == NATIVE.name
    _assert_same_engine_state(native, reference)


def test_scalar_updates_bit_identical():
    num_nodes = 90
    edges = _random_edges(num_nodes, 600, seed=4)
    reference = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=4))
    native = GraphZeppelin(
        num_nodes, GraphZeppelinConfig(seed=4, kernel_backend="native")
    )
    for u, v in edges.tolist():
        reference.edge_update(u, v)
        native.edge_update(u, v)
    _assert_same_engine_state(native, reference)


def test_paged_engine_bit_identical():
    num_nodes = 220
    edges = _random_edges(num_nodes, 3000, seed=31)
    budget = 1 << 20
    reference = _run_engine(num_nodes, edges, seed=6, ram_budget_bytes=budget)
    native = _run_engine(
        num_nodes, edges, seed=6, ram_budget_bytes=budget, kernel_backend="native"
    )
    _assert_same_engine_state(native, reference)


def test_per_node_store_engine_bit_identical():
    """The seed design's per-node blob store answers like the native engine."""
    from repro.baselines.seed_store import SeedStore
    from repro.memory.hybrid import HybridMemory

    num_nodes = 80
    edges = _random_edges(num_nodes, 900, seed=41)
    reference = SeedStore(num_nodes, seed=8, memory=HybridMemory(ram_bytes=256_000))
    reference.ingest_batch(edges)
    native = _run_engine(num_nodes, edges, seed=8, kernel_backend="native")
    ref_forest = reference.list_spanning_forest()
    got_forest = native.list_spanning_forest()
    assert got_forest.partition_signature() == ref_forest.partition_signature()
    assert got_forest.edges == ref_forest.edges
    assert native.last_query_stats == reference.last_query_stats
    for node in range(num_nodes):
        assert native.node_sketch(node) == reference.node_sketch(node)


@pytest.mark.parametrize("ram_budget", [None, 1 << 20])
def test_sharded_ingest_bit_identical(ram_budget):
    from repro.parallel.graph_workers import ShardedIngestor

    num_nodes = 260
    edges = _random_edges(num_nodes, 3500, seed=55)
    reference = _run_engine(num_nodes, edges, seed=9, ram_budget_bytes=ram_budget)
    native = GraphZeppelin(
        num_nodes,
        GraphZeppelinConfig(
            seed=9, kernel_backend="native", num_workers=3, ram_budget_bytes=ram_budget
        ),
    )
    with ShardedIngestor(native, num_workers=3) as ingestor:
        ingestor.ingest_stream([edges[:1200], edges[1200:2500], edges[2500:]])
    _assert_same_engine_state(native, reference)


def test_distributed_ingest_bit_identical(tmp_path):
    from repro.distributed.multi_ingestor import distributed_ingest

    num_nodes = 150
    edges = _random_edges(num_nodes, 2000, seed=77)
    reference = _run_engine(num_nodes, edges, seed=12)
    native, _report = distributed_ingest(
        edges,
        num_nodes,
        config=GraphZeppelinConfig(seed=12, kernel_backend="native"),
        num_ingestors=2,
        workdir=tmp_path,
    )
    _assert_same_engine_state(native, reference)


def test_chaos_soak_native_is_bit_identical(tmp_path):
    from repro.resilience import ChaosSchedule, run_chaos_soak

    num_nodes = 40
    edges = _random_edges(num_nodes, 1200, seed=71)
    config = GraphZeppelinConfig(seed=3, kernel_backend="native")
    schedule = ChaosSchedule.random(
        seed=11, cycles=10, distributed_every=5, hang_seconds=0.3
    )
    engine, report = run_chaos_soak(
        schedule,
        edges,
        num_nodes,
        config=config,
        workdir=tmp_path,
        straggler_timeout=0.25,
        worker_deadline=2.0,
    )
    assert report.cycles == 10
    reference = GraphZeppelin(num_nodes, GraphZeppelinConfig(seed=3))
    reference.ingest_batch(edges)
    _assert_same_engine_state(engine, reference)


def test_snapshots_interchange_across_backends(tmp_path):
    num_nodes = 120
    edges = _random_edges(num_nodes, 1500, seed=88)
    native = _run_engine(num_nodes, edges, seed=14, kernel_backend="native")
    path = tmp_path / "native.snap"
    native.save_snapshot(path)
    restored = GraphZeppelin.load_snapshot(path, config=GraphZeppelinConfig(seed=14))
    assert restored.resolved_kernel_backend == "numpy"
    _assert_same_engine_state(native, restored)


# ----------------------------------------------------------------------
# dispatch plumbing
# ----------------------------------------------------------------------
def test_resolve_kernels_modes():
    assert resolve_kernels("numpy") is None
    assert resolve_kernels("auto") is NATIVE
    assert resolve_kernels("native") is NATIVE
    with pytest.raises(ConfigurationError):
        resolve_kernels("fast")


def test_config_rejects_unknown_kernel_backend():
    with pytest.raises(ConfigurationError):
        GraphZeppelinConfig(kernel_backend="cuda")


def test_kernel_backend_stays_out_of_sketch_fingerprint():
    base = GraphZeppelinConfig(seed=21).sketch_fingerprint()
    for backend in ("native", "auto"):
        assert GraphZeppelinConfig(
            seed=21, kernel_backend=backend
        ).sketch_fingerprint() == base


def test_provider_survives_copy_and_pickle():
    assert copy.copy(NATIVE) is NATIVE
    assert copy.deepcopy(NATIVE) is NATIVE
    assert pickle.loads(pickle.dumps(NATIVE)) is NATIVE


def test_health_reports_resolved_backend():
    engine = GraphZeppelin(32, GraphZeppelinConfig(kernel_backend="auto"))
    assert engine.health()["kernel_backend"] == NATIVE.name
    numpy_engine = GraphZeppelin(32, GraphZeppelinConfig())
    assert numpy_engine.health()["kernel_backend"] == "numpy"
