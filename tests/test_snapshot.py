"""Pool snapshots must round-trip, merge, and resume bit-identically.

The PR 5 acceptance properties: (1) snapshot -> load -> resume yields
final state bit-identical to an uninterrupted run, across flat/paged
pools and packed/wide bucket modes; (2) the XOR merge of K snapshots
built from disjoint sub-streams is bit-identical -- tensors, forest,
update counts -- to serially ingesting the whole stream.  Plus the
robustness half: truncated payloads, corrupted magic/version, geometry
and seed mismatches all raise clear ``StreamFormatError``s *without*
mutating the target pool.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.distributed.snapshot import (
    SnapshotMeta,
    load_pool_snapshot,
    load_snapshot_into,
    merge_snapshots,
    merge_snapshots_into,
    read_snapshot_meta,
    save_pool_snapshot,
)
from repro.exceptions import (
    ConfigurationError,
    IncompatibleSketchError,
    StreamFormatError,
)
from repro.memory.hybrid import HybridMemory
from repro.sketch.paged_pool import PagedTensorPool
from repro.sketch.tensor_pool import NodeTensorPool

NUM_NODES = 48

seeds = st.integers(min_value=0, max_value=2**32 - 1)
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_NODES - 1),
        st.integers(min_value=0, max_value=NUM_NODES - 1),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=120,
)
#: None = in-RAM flat pool; a number = paged pool under that RAM budget.
ram_budgets = st.sampled_from([None, 0, 3_000, 60_000])


def _edge_array(edges):
    return np.asarray(edges, dtype=np.int64)


def _config(seed, ram_budget):
    return GraphZeppelinConfig(seed=seed, ram_budget_bytes=ram_budget)


def _tensors(engine_or_pool):
    pool = getattr(engine_or_pool, "tensor_pool", engine_or_pool)
    alpha, gamma = pool.raw_tensors()
    return np.asarray(alpha, dtype=np.uint64), np.asarray(gamma, dtype=np.uint64)


def _assert_identical(a, b):
    alpha_a, gamma_a = _tensors(a)
    alpha_b, gamma_b = _tensors(b)
    assert np.array_equal(alpha_a, alpha_b)
    assert np.array_equal(gamma_a, gamma_b)


def _fold_edges(pool: NodeTensorPool, edges: np.ndarray) -> None:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    pool.apply_edges(lo, hi, pool.encoder.encode_canonical_pairs(lo, hi))


def _wide_pool(seed: int, memory=None) -> NodeTensorPool:
    encoder = EdgeEncoder(NUM_NODES)
    if memory is not None:
        return PagedTensorPool(
            NUM_NODES, encoder, memory=memory, graph_seed=seed, force_wide=True,
            nodes_per_page=7,
        )
    return NodeTensorPool(NUM_NODES, encoder, graph_seed=seed, force_wide=True)


# ----------------------------------------------------------------------
# property: snapshot -> load -> resume == uninterrupted (engine level)
# ----------------------------------------------------------------------
@given(
    edges=edge_lists,
    seed=seeds,
    split_fraction=st.floats(min_value=0.0, max_value=1.0),
    writer_budget=ram_budgets,
    loader_budget=ram_budgets,
)
@settings(max_examples=25, deadline=None)
def test_snapshot_load_resume_bit_identical(
    tmp_path_factory, edges, seed, split_fraction, writer_budget, loader_budget
):
    path = tmp_path_factory.mktemp("snap") / "mid.snap"
    array = _edge_array(edges)
    split = int(round(split_fraction * array.shape[0]))

    uninterrupted = GraphZeppelin(NUM_NODES, config=_config(seed, writer_budget))
    uninterrupted.ingest_batch(array)
    uninterrupted.flush()

    writer = GraphZeppelin(NUM_NODES, config=_config(seed, writer_budget))
    writer.ingest_batch(array[:split])
    writer.save_snapshot(path, stream_offset=split)

    resumed = GraphZeppelin.load_snapshot(path, config=_config(seed, loader_budget))
    assert resumed.resume_offset == split
    assert resumed.updates_processed == split
    resumed.ingest_batch(array[resumed.resume_offset :])
    resumed.flush()

    _assert_identical(uninterrupted, resumed)
    assert (
        resumed.list_spanning_forest().partition_signature()
        == uninterrupted.list_spanning_forest().partition_signature()
    )
    assert resumed.updates_processed == uninterrupted.updates_processed
    assert resumed.tensor_pool.updates_applied == uninterrupted.tensor_pool.updates_applied


# ----------------------------------------------------------------------
# property: K-way merge == serial ingest (engine level, packed)
# ----------------------------------------------------------------------
@given(
    edges=edge_lists,
    seed=seeds,
    num_parts=st.integers(min_value=2, max_value=4),
    part_budget=ram_budgets,
    merge_budget=ram_budgets,
)
@settings(max_examples=25, deadline=None)
def test_merged_snapshots_bit_identical_to_serial(
    tmp_path_factory, edges, seed, num_parts, part_budget, merge_budget
):
    workdir = tmp_path_factory.mktemp("merge")
    array = _edge_array(edges)

    serial = GraphZeppelin(NUM_NODES, config=_config(seed, None))
    serial.ingest_batch(array)
    serial.flush()

    paths = []
    for part in range(num_parts):
        worker = GraphZeppelin(NUM_NODES, config=_config(seed, part_budget))
        worker.ingest_batch(array[part::num_parts])
        paths.append(workdir / f"part-{part}.snap")
        worker.save_snapshot(paths[-1])

    memory = None if merge_budget is None else HybridMemory(ram_bytes=merge_budget)
    pool, meta = merge_snapshots(paths, memory=memory)
    _assert_identical(serial, pool)
    assert meta.engine_updates == serial.updates_processed
    assert pool.updates_applied == serial.tensor_pool.updates_applied


# ----------------------------------------------------------------------
# property: wide-mode pools (pool level; wide only self-selects > 65536
# nodes, so force_wide exercises the second bucket layout at test size)
# ----------------------------------------------------------------------
@given(edges=edge_lists, seed=seeds, paged=st.booleans())
@settings(max_examples=15, deadline=None)
def test_wide_snapshot_roundtrip_and_merge(tmp_path_factory, edges, seed, paged):
    workdir = tmp_path_factory.mktemp("wide")
    array = _edge_array(edges)

    reference = _wide_pool(seed)
    _fold_edges(reference, array)

    halves = []
    for part in range(2):
        memory = HybridMemory(ram_bytes=4_000) if paged else None
        pool = _wide_pool(seed, memory=memory)
        _fold_edges(pool, array[part::2])
        halves.append(workdir / f"half-{part}.snap")
        save_pool_snapshot(pool, halves[-1])

    loaded, _ = load_pool_snapshot(halves[0])
    _half = _wide_pool(seed)
    _fold_edges(_half, array[0::2])
    _assert_identical(_half, loaded)

    merged, _ = merge_snapshots(halves)
    _assert_identical(reference, merged)

    # merge_from covers the pool-to-pool path, paged target included.
    target = _wide_pool(seed, memory=HybridMemory(ram_bytes=4_000))
    _fold_edges(target, array[0::2])
    source = _wide_pool(seed)
    _fold_edges(source, array[1::2])
    target.merge_from(source)
    _assert_identical(reference, target)


# ----------------------------------------------------------------------
# robustness: bad files fail loudly and mutate nothing
# ----------------------------------------------------------------------
@pytest.fixture
def snapshot_file(tmp_path):
    engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=11))
    rng = np.random.default_rng(4)
    u = rng.integers(0, NUM_NODES, 200)
    v = rng.integers(0, NUM_NODES, 200)
    keep = u != v
    engine.ingest_batch(np.stack([u[keep], v[keep]], axis=1))
    path = tmp_path / "good.snap"
    engine.save_snapshot(path)
    return path, engine


def _assert_pool_untouched(pool: NodeTensorPool):
    alpha, gamma = pool.raw_tensors()
    assert not np.asarray(alpha).any()
    assert not np.asarray(gamma).any()
    assert pool.updates_applied == 0


def test_truncated_header_rejected(tmp_path, snapshot_file):
    path, _ = snapshot_file
    stub = tmp_path / "stub.snap"
    stub.write_bytes(path.read_bytes()[:40])
    with pytest.raises(StreamFormatError, match="snapshot header"):
        read_snapshot_meta(stub)


def test_truncated_payload_rejected_without_mutation(tmp_path, snapshot_file):
    path, engine = snapshot_file
    data = path.read_bytes()
    clipped = tmp_path / "clipped.snap"
    clipped.write_bytes(data[: len(data) - 17])
    with pytest.raises(StreamFormatError, match="length"):
        read_snapshot_meta(clipped)
    target = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=11))
    with pytest.raises(StreamFormatError, match="length"):
        load_snapshot_into(clipped, target.tensor_pool)
    _assert_pool_untouched(target.tensor_pool)


def test_padded_payload_rejected(tmp_path, snapshot_file):
    path, _ = snapshot_file
    padded = tmp_path / "padded.snap"
    padded.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(StreamFormatError, match="length"):
        read_snapshot_meta(padded)


def test_corrupted_magic_rejected(tmp_path, snapshot_file):
    path, _ = snapshot_file
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    bad = tmp_path / "bad-magic.snap"
    bad.write_bytes(bytes(data))
    with pytest.raises(StreamFormatError, match="magic"):
        read_snapshot_meta(bad)


def test_future_version_rejected(tmp_path, snapshot_file):
    path, _ = snapshot_file
    data = bytearray(path.read_bytes())
    data[0] = 3  # version lives in the magic's low word (current is 2)
    future = tmp_path / "future.snap"
    future.write_bytes(bytes(data))
    with pytest.raises(StreamFormatError, match="magic"):
        read_snapshot_meta(future)


def test_geometry_mismatch_rejected_without_mutation(snapshot_file):
    path, _ = snapshot_file
    other = GraphZeppelin(NUM_NODES * 2, config=GraphZeppelinConfig(seed=11))
    with pytest.raises(StreamFormatError, match="geometry"):
        load_snapshot_into(path, other.tensor_pool)
    _assert_pool_untouched(other.tensor_pool)


def test_seed_mismatch_on_merge_without_mutation(tmp_path, snapshot_file):
    path, _ = snapshot_file
    other = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=12))
    other.ingest_batch(np.asarray([[0, 1], [2, 3]]))
    other_path = tmp_path / "other-seed.snap"
    other.save_snapshot(other_path)
    target = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=11))
    with pytest.raises(StreamFormatError, match="seed"):
        merge_snapshots_into([path, other_path], target.tensor_pool)
    _assert_pool_untouched(target.tensor_pool)


def test_mixed_bucket_modes_rejected_on_merge(tmp_path, snapshot_file):
    path, _ = snapshot_file
    wide = _wide_pool(11)
    wide_path = tmp_path / "wide.snap"
    save_pool_snapshot(wide, wide_path)
    with pytest.raises(StreamFormatError, match="packed"):
        merge_snapshots([wide_path, path])


def test_fingerprint_mismatch_rejected_on_load(snapshot_file):
    path, _ = snapshot_file
    with pytest.raises(StreamFormatError, match="fingerprint"):
        GraphZeppelin.load_snapshot(path, config=GraphZeppelinConfig(seed=99))


def test_merge_requires_at_least_one_path():
    with pytest.raises(ValueError):
        merge_snapshots([])


def test_snapshot_leaves_no_temp_file(tmp_path, snapshot_file):
    path, engine = snapshot_file
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))
    # Snapshotting does not consume the engine: ingest continues.
    engine.ingest_batch(np.asarray([[1, 2]]))


def test_sketch_fingerprint_is_pinned():
    """Snapshots written by earlier versions must keep loading."""
    assert GraphZeppelinConfig().sketch_fingerprint() == 0xE05A324C2524B5B6
    assert (
        GraphZeppelinConfig(seed=-1, delta=0.05).sketch_fingerprint()
        == 0x86BD54BABD88E927
    )


def test_resume_with_stream_validation_rejected(snapshot_file):
    path, _ = snapshot_file
    with pytest.raises(ConfigurationError, match="validate_stream"):
        GraphZeppelin.load_snapshot(
            path, config=GraphZeppelinConfig(seed=11, validate_stream=True)
        )


def test_merge_from_self_rejected():
    pool = _wide_pool(3)
    with pytest.raises(IncompatibleSketchError, match="itself"):
        pool.merge_from(pool)


def test_meta_roundtrip(snapshot_file):
    path, engine = snapshot_file
    meta = read_snapshot_meta(path)
    assert isinstance(meta, SnapshotMeta)
    assert meta.num_nodes == NUM_NODES
    assert meta.graph_seed == 11
    assert meta.packed
    assert not meta.paged_origin
    assert meta.engine_updates == engine.updates_processed
    assert meta.stream_offset == engine.updates_processed
    assert meta.fingerprint == engine.config.sketch_fingerprint()
    assert path.stat().st_size == meta.payload_bytes + meta.digest_section_bytes + 96


def test_negative_seed_snapshot_roundtrips(tmp_path):
    """Fingerprints mask the seed to 64 bits, like the header does.

    Hash derivation is mod-2^64 invariant, so a snapshot written under
    seed=-1 must load under the masked seed its header records.
    """
    config = GraphZeppelinConfig(seed=-1)
    engine = GraphZeppelin(NUM_NODES, config=config)
    engine.ingest_batch(np.asarray([[0, 1], [2, 3], [1, 2]]))
    path = tmp_path / "neg-seed.snap"
    engine.save_snapshot(path)
    loaded = GraphZeppelin.load_snapshot(path)
    _assert_identical(engine, loaded)
    masked = GraphZeppelin(
        NUM_NODES, config=GraphZeppelinConfig(seed=-1 & 0xFFFFFFFFFFFFFFFF)
    )
    masked.ingest_batch(np.asarray([[0, 1], [2, 3], [1, 2]]))
    _assert_identical(engine, masked)


def test_merged_snapshots_are_flagged(tmp_path):
    """A merge's output meta carries merged=True (resume must refuse it)."""
    paths = []
    for part in range(2):
        engine = GraphZeppelin(NUM_NODES, config=GraphZeppelinConfig(seed=2))
        engine.ingest_batch(np.asarray([[part, part + 3]]))
        paths.append(tmp_path / f"p{part}.snap")
        engine.save_snapshot(paths[-1])
    assert not read_snapshot_meta(paths[0]).merged
    pool, meta = merge_snapshots(paths)
    assert meta.merged
    merged_path = tmp_path / "merged.snap"
    save_pool_snapshot(pool, merged_path, merged=True)
    assert read_snapshot_meta(merged_path).merged
