"""Tests for the buffering layer: work queue, leaf gutters, gutter tree."""

import numpy as np
import pytest

from repro.buffering.base import BYTES_PER_BUFFERED_UPDATE, Batch, gutter_capacity_updates
from repro.buffering.gutter_tree import GutterTree
from repro.buffering.leaf_gutters import LeafGutters
from repro.buffering.work_queue import WorkQueue
from repro.exceptions import ConfigurationError
from repro.memory.hybrid import HybridMemory


# ----------------------------------------------------------------------
# Batch and capacity helpers
# ----------------------------------------------------------------------
def test_batch_len_iter_and_size():
    batch = Batch(node=3, neighbors=[1, 2, 5])
    assert len(batch) == 3
    assert list(batch) == [1, 2, 5]
    assert batch.size_bytes == 3 * BYTES_PER_BUFFERED_UPDATE


def test_gutter_capacity_updates():
    assert gutter_capacity_updates(800, 0.5) == 50
    assert gutter_capacity_updates(8, 0.001) == 1  # clamps at the minimum
    with pytest.raises(ValueError):
        gutter_capacity_updates(0, 0.5)
    with pytest.raises(ValueError):
        gutter_capacity_updates(100, 0)


# ----------------------------------------------------------------------
# WorkQueue
# ----------------------------------------------------------------------
def test_work_queue_fifo_and_counters():
    queue = WorkQueue(num_workers=2)
    queue.put(Batch(node=1, neighbors=[2]))
    queue.put(Batch(node=2, neighbors=[3, 4]))
    assert len(queue) == 2
    assert queue.batches_enqueued == 2
    assert queue.updates_enqueued == 3
    first = queue.get()
    assert first.node == 1
    assert queue.get().node == 2
    assert queue.is_empty


def test_work_queue_capacity_default():
    queue = WorkQueue(num_workers=3)
    assert queue.capacity == 24


def test_work_queue_drain():
    queue = WorkQueue()
    queue.put_all([Batch(node=i) for i in range(5)])
    drained = list(queue.drain())
    assert [batch.node for batch in drained] == [0, 1, 2, 3, 4]
    assert queue.get_nowait() is None


def test_work_queue_high_watermark():
    queue = WorkQueue(num_workers=1, capacity=10)
    for i in range(4):
        queue.put(Batch(node=i))
    assert queue.high_watermark == 4


def test_work_queue_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        WorkQueue(num_workers=0)


# ----------------------------------------------------------------------
# LeafGutters (one node per page: the seed design's per-node gutters)
# ----------------------------------------------------------------------
def per_node(num_nodes):
    return np.arange(num_nodes + 1)


def test_leaf_gutter_emits_batch_when_full():
    gutters = LeafGutters(num_nodes=10, page_bounds=per_node(10), capacity_updates=3)
    assert gutters.insert(0, 1) == []
    assert gutters.insert(0, 2) == []
    emitted = gutters.insert(0, 3)
    assert len(emitted) == 1
    assert (emitted[0].node_lo, emitted[0].node_hi) == (0, 1)
    assert emitted[0].neighbors.tolist() == [1, 2, 3]
    assert gutters.pending_for(0) == 0


def test_leaf_gutter_capacity_from_sketch_size():
    gutters = LeafGutters(
        num_nodes=4, page_bounds=per_node(4), node_sketch_bytes=800, fraction=0.5
    )
    assert gutters.capacity_per_node == 50


def test_leaf_gutter_flush_all_returns_remaining():
    gutters = LeafGutters(num_nodes=10, page_bounds=per_node(10), capacity_updates=100)
    gutters.insert(1, 2)
    gutters.insert(3, 4)
    batches = gutters.flush_all()
    assert sorted(batch.node_lo for batch in batches) == [1, 3]
    assert gutters.pending_updates() == 0


def test_leaf_gutter_insert_edge_buffers_both_directions():
    gutters = LeafGutters(num_nodes=10, page_bounds=per_node(10), capacity_updates=100)
    gutters.insert_edge(1, 2)
    assert gutters.pending_for(1) == 1
    assert gutters.pending_for(2) == 1


def test_leaf_gutter_rejects_bad_nodes_and_config():
    gutters = LeafGutters(num_nodes=4, page_bounds=per_node(4), capacity_updates=2)
    with pytest.raises(ValueError):
        gutters.insert(0, 9)
    with pytest.raises(ConfigurationError):
        LeafGutters(num_nodes=0, page_bounds=per_node(0), capacity_updates=1)
    with pytest.raises(ConfigurationError):
        # needs sketch bytes or explicit capacity
        LeafGutters(num_nodes=4, page_bounds=per_node(4))
    with pytest.raises(ConfigurationError):
        LeafGutters(num_nodes=4, page_bounds=per_node(4), capacity_updates=0)


def test_leaf_gutter_charges_io_when_memory_bounded():
    memory = HybridMemory(ram_bytes=0, block_size=1024)
    gutters = LeafGutters(
        num_nodes=8, page_bounds=per_node(8), capacity_updates=2, memory=memory
    )
    gutters.insert(0, 1)
    gutters.insert(0, 2)
    assert memory.stats.bytes_read > 0


# ----------------------------------------------------------------------
# GutterTree
# ----------------------------------------------------------------------
def make_tree(**kwargs):
    defaults = dict(
        num_nodes=64,
        page_bounds=per_node(kwargs.get("num_nodes", 64)),
        node_sketch_bytes=400,
        buffer_bytes=256,        # tiny buffers so flushes happen in tests
        flush_block_bytes=64,
        leaf_fraction=0.2,
    )
    defaults.update(kwargs)
    return GutterTree(**defaults)


def test_gutter_tree_structure():
    tree = make_tree()
    assert tree.fanout == 4
    assert tree.height >= 1
    assert tree.capacity_per_node == 10


def test_gutter_tree_buffers_until_root_fills():
    tree = make_tree()
    emitted = []
    for i in range(20):
        emitted.extend(tree.insert(i % 8, (i + 1) % 8))
    # Updates are buffered; some batches may or may not have been emitted
    # yet, but nothing is lost.
    assert tree.pending_updates() + sum(len(b) for b in emitted) == 20


def test_gutter_tree_flush_all_preserves_every_update():
    tree = make_tree()
    inserted = 0
    emitted = []
    for i in range(100):
        u = i % 16
        v = (i * 7 + 1) % 16
        if u == v:
            continue
        emitted.extend(tree.insert(u, v))
        inserted += 1
    emitted.extend(tree.flush_all())
    assert sum(len(batch) for batch in emitted) == inserted
    assert tree.pending_updates() == 0


def test_gutter_tree_batches_are_per_node():
    tree = make_tree()
    for _ in range(30):
        tree.insert(3, 5)
    batches = tree.flush_all()
    assert all((batch.node_lo, batch.node_hi) == (3, 4) for batch in batches)
    assert sum(len(b) for b in batches) == 30


def test_gutter_tree_charges_device_traffic():
    memory = HybridMemory(ram_bytes=0, block_size=64)
    tree = make_tree(memory=memory)
    for i in range(200):
        tree.insert(i % 32, (i + 1) % 32)
    tree.flush_all()
    assert memory.stats.bytes_written > 0
    assert memory.stats.bytes_read > 0
    assert tree.flush_count > 0


def test_gutter_tree_validation():
    with pytest.raises(ConfigurationError):
        GutterTree(num_nodes=0, page_bounds=per_node(0), node_sketch_bytes=100)
    with pytest.raises(ConfigurationError):
        GutterTree(num_nodes=4, page_bounds=per_node(4), node_sketch_bytes=0)
    with pytest.raises(ConfigurationError):
        GutterTree(
            num_nodes=4, page_bounds=per_node(4), node_sketch_bytes=100, buffer_bytes=0
        )
    tree = make_tree()
    with pytest.raises(ValueError):
        tree.insert(0, 999)


# ----------------------------------------------------------------------
# Multi-node pages: gutters keyed per node group, emitting mixed columns
# ----------------------------------------------------------------------
from repro.buffering.base import PageBatch


def test_page_batch_len_size_and_lock_key():
    batch = PageBatch(
        page=2, node_lo=8, node_hi=12,
        dsts=np.asarray([8, 9, 8]), neighbors=np.asarray([1, 2, 3]),
    )
    assert len(batch) == 3
    assert batch.size_bytes == 3 * BYTES_PER_BUFFERED_UPDATE
    assert batch.lock_key == ("page", 2)
    assert Batch(node=4).lock_key == ("node", 4)


def test_leaf_gutters_page_mode_emits_mixed_node_columns():
    bounds = np.asarray([0, 4, 8, 10])
    gutters = LeafGutters(num_nodes=10, capacity_updates=2, page_bounds=bounds)
    # Page 0 holds nodes 0-3 with capacity 2 * 4 = 8 updates.
    emitted = []
    for i in range(7):
        emitted.extend(gutters.insert(i % 4, 9))
    assert emitted == []
    assert gutters.pending_for(0) == 2
    emitted.extend(gutters.insert(3, 9))  # 8th update fills page 0
    assert len(emitted) == 1
    batch = emitted[0]
    assert isinstance(batch, PageBatch)
    assert (batch.page, batch.node_lo, batch.node_hi) == (0, 0, 4)
    assert batch.dsts.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    assert gutters.pending_updates() == 0


def test_leaf_gutters_page_mode_insert_batch_and_flush():
    bounds = np.asarray([0, 4, 8, 10])
    gutters = LeafGutters(num_nodes=10, capacity_updates=100, page_bounds=bounds)
    gutters.insert_batch(np.asarray([0, 5, 9, 1]), np.asarray([2, 6, 3, 7]))
    assert gutters.pending_updates() == 4
    batches = gutters.flush_all()
    assert [b.page for b in batches] == [0, 1, 2]
    assert batches[0].dsts.tolist() == [0, 1]       # insertion order kept
    assert batches[0].neighbors.tolist() == [2, 7]
    assert batches[2].dsts.tolist() == [9]
    assert gutters.pending_updates() == 0


def test_gutter_tree_page_mode_emits_page_batches():
    bounds = np.asarray([0, 8, 16])
    tree = make_tree(num_nodes=16, page_bounds=bounds)
    emitted = []
    for i in range(200):
        emitted.extend(tree.insert(i % 16, (i + 3) % 16))
    emitted.extend(tree.flush_all())
    assert all(isinstance(b, PageBatch) for b in emitted)
    assert sum(len(b) for b in emitted) == 200
    assert tree.pending_updates() == 0
    for batch in emitted:
        assert ((batch.dsts >= batch.node_lo) & (batch.dsts < batch.node_hi)).all()
