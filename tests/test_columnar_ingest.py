"""End-to-end tests for the columnar ingest pipeline.

``GraphZeppelin.ingest_batch`` must produce exactly the same sketch
state and connectivity answers as feeding the same updates through the
per-edge ``edge_update`` path, in every backend / buffering
configuration, because the sketch fold is order- and
partition-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.boruvka import sketch_spanning_forest
from repro.core.config import BufferingMode, GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.graph_zeppelin import GraphZeppelin
from repro.core.node_sketch import NodeSketch, merged_round_sketch
from repro.exceptions import InvalidStreamError


def _random_edges(num_nodes: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def _engine_state(engine: GraphZeppelin):
    engine.flush()
    state = []
    for node in range(engine.num_nodes):
        sketch = engine.node_sketch(node)
        for round_index in range(engine.num_rounds):
            alpha, gamma = sketch.round_arrays(round_index)
            state.append((alpha.copy(), gamma.copy()))
    return state


@pytest.mark.parametrize(
    "buffering",
    [BufferingMode.NONE, BufferingMode.LEAF_GUTTERS, BufferingMode.GUTTER_TREE],
)
def test_ingest_batch_matches_per_edge_path(buffering):
    edges = _random_edges(32, 300, seed=1)
    per_edge = GraphZeppelin(32, config=GraphZeppelinConfig(buffering=buffering, seed=9))
    columnar = GraphZeppelin(32, config=GraphZeppelinConfig(buffering=buffering, seed=9))

    for u, v in edges.tolist():
        per_edge.edge_update(u, v)
    assert columnar.ingest_batch(edges) == edges.shape[0]

    state_a = _engine_state(per_edge)
    state_b = _engine_state(columnar)
    for (alpha_a, gamma_a), (alpha_b, gamma_b) in zip(state_a, state_b):
        assert np.array_equal(alpha_a, alpha_b)
        assert np.array_equal(gamma_a, gamma_b)

    assert per_edge.updates_processed == columnar.updates_processed
    forest_a = per_edge.list_spanning_forest()
    forest_b = columnar.list_spanning_forest()
    assert forest_a.edges == forest_b.edges


def test_flat_and_legacy_backends_answer_identically():
    """The engine's pool holds the buckets per-node NodeSketches hold.

    The reference is the seed layout: one per-round CubeSketch bundle
    per node, fed the same edges one toggle at a time, and queried
    through the per-component Boruvka driver.
    """
    edges = _random_edges(40, 250, seed=4)
    flat = GraphZeppelin(40, config=GraphZeppelinConfig(seed=3))
    flat.ingest_batch(edges)
    flat.flush()
    encoder = EdgeEncoder(40)
    legacy = [NodeSketch(node, encoder, graph_seed=3) for node in range(40)]
    for u, v in edges.tolist():
        legacy[u].apply_edge(v)
        legacy[v].apply_edge(u)
    for node in range(40):
        flat_sketch = flat.node_sketch(node)
        for round_index in range(flat.num_rounds):
            alpha_f, gamma_f = flat_sketch.round_arrays(round_index)
            alpha_l, gamma_l = legacy[node].round_sketch(round_index).raw_arrays()
            assert np.array_equal(alpha_f, alpha_l)
            assert np.array_equal(gamma_f, gamma_l)
    reference, _stats = sketch_spanning_forest(
        40,
        flat.num_rounds,
        encoder,
        lambda round_index, members: merged_round_sketch(
            [legacy[n] for n in members], round_index
        ).query(),
    )
    assert flat.list_spanning_forest().edges == reference.edges


def test_ingest_batch_out_of_core_flat_backend():
    """A RAM budget routes flat sketches through the hybrid store."""
    edges = _random_edges(16, 120, seed=6)
    config = GraphZeppelinConfig.out_of_core(ram_budget_bytes=16 * 1024, seed=2)
    out_of_core = GraphZeppelin(16, config=config)
    in_ram = GraphZeppelin(16, config=GraphZeppelinConfig(seed=2))
    out_of_core.ingest_batch(edges)
    in_ram.ingest_batch(edges)
    out_of_core.flush()
    in_ram.flush()
    assert out_of_core.io_stats is not None
    assert out_of_core.io_stats.modelled_seconds > 0
    assert (
        out_of_core.list_spanning_forest().edges == in_ram.list_spanning_forest().edges
    )


def test_ingest_batch_mixed_with_per_edge_updates():
    """Columnar and scalar ingestion interleave freely (same toggles)."""
    edges = _random_edges(20, 80, seed=8)
    mixed = GraphZeppelin(20, config=GraphZeppelinConfig(seed=5))
    pure = GraphZeppelin(20, config=GraphZeppelinConfig(seed=5))
    half = edges.shape[0] // 2
    mixed.ingest_batch(edges[:half])
    for u, v in edges[half:].tolist():
        mixed.edge_update(u, v)
    pure.ingest_batch(edges)
    assert mixed.list_spanning_forest().edges == pure.list_spanning_forest().edges


def test_ingest_batch_toggle_cancels_like_edge_update():
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    engine.ingest_batch(np.asarray([[0, 1], [0, 1]]))
    engine.flush()
    assert engine.node_sketch(0).is_empty()
    assert engine.node_sketch(1).is_empty()


def test_ingest_batch_validation():
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    assert engine.ingest_batch(np.empty((0, 2), dtype=np.int64)) == 0
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[0, 1, 2]]))
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[0, 8]]))
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[-1, 2]]))
    with pytest.raises(InvalidStreamError):
        engine.ingest_batch(np.asarray([[3, 3]]))
    # Failed batches must not be half-applied.
    assert engine.updates_processed == 0


def test_ingest_batch_keeps_stream_validator_in_sync():
    """With validate_stream on, ingest_batch toggles the tracked edge set."""
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1, validate_stream=True))
    engine.ingest_batch(np.asarray([[0, 1], [2, 3], [2, 3]]))
    # {0,1} is now present: a validated insert must reject it, a
    # validated delete must accept it.
    with pytest.raises(InvalidStreamError):
        engine.insert(0, 1)
    engine.delete(0, 1)
    # {2,3} toggled twice (net absent): delete must reject.
    with pytest.raises(InvalidStreamError):
        engine.delete(2, 3)
    engine.insert(2, 3)


def test_ingest_batch_accepts_python_lists():
    engine = GraphZeppelin(8, config=GraphZeppelinConfig(seed=1))
    assert engine.ingest_batch([(0, 1), (2, 3)]) == 2
    forest = engine.list_spanning_forest()
    assert forest.connected(0, 1)
    assert forest.connected(2, 3)
    assert not forest.connected(0, 2)


def test_stream_edge_array_matches_iteration(medium_stream):
    array = medium_stream.edge_array()
    assert array.shape == (len(medium_stream), 2)
    for row, update in zip(array.tolist(), medium_stream):
        assert tuple(row) == (update.u, update.v)


def test_columnar_stream_ingest_matches_scalar(medium_stream):
    scalar = GraphZeppelin(medium_stream.num_nodes, config=GraphZeppelinConfig(seed=13))
    columnar = GraphZeppelin(
        medium_stream.num_nodes, config=GraphZeppelinConfig(seed=13)
    )
    for update in medium_stream:
        scalar.edge_update(update.u, update.v)
    columnar.ingest_batch(medium_stream.edge_array())
    assert (
        scalar.list_spanning_forest().edges == columnar.list_spanning_forest().edges
    )
