"""The seed design's sketch store: per-node sketches behind per-node gutters.

Before the columnar tensor pools, the engine kept one sketch object per
graph node in a :class:`~repro.memory.hybrid.SketchStore` -- live in a
dict when everything fits in RAM, serialised into a
:class:`~repro.memory.hybrid.HybridMemory` under a RAM budget -- and fed
it through one gutter per node, folding each emitted batch with one
sketch round trip.  Queries merged member sketches component by
component through the scalar Boruvka driver.

:class:`SeedStore` keeps that design as a benchmark baseline (the
denominators of the ingest and out-of-core ledgers) and as an
independent reference the tests compare the engine against.  The sketch
type is a constructor argument:
:class:`~repro.core.node_sketch.NodeSketch` (per-round CubeSketch
objects, the seed repository's layout) or
:class:`~repro.sketch.flat_node_sketch.FlatNodeSketch` (one contiguous
blob per node).  Under the same seed both hold the buckets the engine's
tensor pool holds, so all three answer with the same forest.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.buffering.base import PageBatch
from repro.buffering.leaf_gutters import LeafGutters
from repro.core.boruvka import BoruvkaStats, sketch_spanning_forest
from repro.core.config import GraphZeppelinConfig
from repro.core.edge_encoding import EdgeEncoder
from repro.core.node_sketch import NodeSketch, merged_round_sketch, num_boruvka_rounds
from repro.core.spanning_forest import SpanningForest
from repro.exceptions import InvalidStreamError
from repro.memory.hybrid import HybridMemory, SketchStore
from repro.memory.metrics import IOStats
from repro.sketch.flat_node_sketch import FlatNodeSketch, merged_round_query
from repro.sketch.sizes import node_sketch_size_bytes
from repro.sketch.sketch_base import SampleResult
from repro.types import canonical_edge

Sketch = Union[NodeSketch, FlatNodeSketch]


class SeedStore:
    """Per-node sketches in a :class:`SketchStore`, fed by per-node gutters.

    Parameters
    ----------
    num_nodes:
        Number of graph nodes.
    sketch_type:
        :class:`NodeSketch` or :class:`FlatNodeSketch`.
    seed:
        Sketch seed, as in :class:`~repro.core.config.GraphZeppelinConfig`.
        The failure probability and gutter fraction are that config's
        defaults, so the baseline keeps the engine's geometry.
    memory:
        Optional hybrid memory.  With a finite RAM budget every sketch
        is serialised into it and each emitted gutter pays a blob load
        and store; without one the sketches stay live in a dict.
    """

    def __init__(
        self,
        num_nodes: int,
        sketch_type: Type[Sketch] = FlatNodeSketch,
        seed: int = 0,
        memory: Optional[HybridMemory] = None,
    ) -> None:
        defaults = GraphZeppelinConfig()
        self.num_nodes = int(num_nodes)
        self.seed = int(seed)
        self.delta = defaults.delta
        self.memory = memory
        self.encoder = EdgeEncoder(self.num_nodes)
        self.num_rounds = num_boruvka_rounds(self.num_nodes)
        self._store: SketchStore[Sketch] = SketchStore(
            serialize=lambda sketch: sketch.to_bytes(),
            deserialize=lambda payload: sketch_type.from_bytes(
                payload, self.encoder, self.seed, delta=self.delta
            ),
            memory=memory,
        )
        for node in range(self.num_nodes):
            self._store.put(
                node,
                sketch_type(
                    node,
                    self.encoder,
                    graph_seed=self.seed,
                    delta=self.delta,
                    num_rounds=self.num_rounds,
                ),
            )
        self._gutters = LeafGutters(
            self.num_nodes,
            page_bounds=np.arange(self.num_nodes + 1),
            node_sketch_bytes=node_sketch_size_bytes(self.num_nodes, self.delta),
            fraction=defaults.gutter_fraction,
            memory=memory,
        )
        self._updates_processed = 0
        self.last_query_stats: Optional[BoruvkaStats] = None

    # ------------------------------------------------------------------
    def edge_update(self, u: int, v: int) -> None:
        """Toggle edge ``{u, v}``: buffer both directions, fold full gutters."""
        lo, hi = canonical_edge(u, v)
        self._updates_processed += 1
        self._apply(self._gutters.insert_edge(lo, hi))

    def ingest_batch(
        self, edges: Union[np.ndarray, Sequence[Tuple[int, int]]]
    ) -> int:
        """Toggle every row of an ``(N, 2)`` edge array; returns ``N``."""
        array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo = np.minimum(array[:, 0], array[:, 1])
        hi = np.maximum(array[:, 0], array[:, 1])
        if (lo == hi).any():
            raise InvalidStreamError("batch contains a self loop")
        self._updates_processed += int(lo.size)
        self._apply(
            self._gutters.insert_batch(np.concatenate([lo, hi]), np.concatenate([hi, lo]))
        )
        return int(lo.size)

    def flush(self) -> None:
        """Fold every buffered update into its node's sketch."""
        self._apply(self._gutters.flush_all())

    def node_sketch(self, node: int) -> Sketch:
        return self._store.get(node)

    def list_spanning_forest(self) -> SpanningForest:
        """Flush, then run the per-component Boruvka driver over the store."""
        self.flush()
        forest, self.last_query_stats = sketch_spanning_forest(
            self.num_nodes, self.num_rounds, self.encoder, self._cut_sample
        )
        return forest

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    @property
    def io_stats(self) -> Optional[IOStats]:
        """I/O counters of the hybrid memory (``None`` without one)."""
        return self.memory.stats if self.memory is not None else None

    # ------------------------------------------------------------------
    def _apply(self, batches: List[PageBatch]) -> None:
        # Every page is one node, so each batch is one sketch round trip.
        for batch in batches:
            if len(batch) == 0:
                continue
            sketch = self._store.get(batch.node_lo)
            sketch.apply_batch(batch.neighbors)
            self._store.put(batch.node_lo, sketch)

    def _cut_sample(self, round_index: int, members: Sequence[int]) -> SampleResult:
        sketches = [self._store.get(node) for node in members]
        if isinstance(sketches[0], FlatNodeSketch):
            return merged_round_query(sketches, round_index)
        return merged_round_sketch(sketches, round_index).query()
