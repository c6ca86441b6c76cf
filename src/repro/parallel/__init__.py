"""Parallel stream ingestion: sharded columnar workers over the tensor pool.

**Shard-ownership model.**  The node space ``[0, V)`` is partitioned
into ``num_shards`` contiguous ranges; each shard owns the slab of
:class:`~repro.sketch.tensor_pool.NodeTensorPool` tensors holding its
nodes' buckets, across every Boruvka round, and is the only writer that
ever touches them.  A batch of edge updates is mirrored (one copy per
endpoint), split into per-shard groups with one vectorised
``searchsorted`` + radix-argsort pass, and each group is folded through
the shared columnar kernel straight into its shard's slab -- no
per-node locks, no ``Batch`` objects, no shared mutable state between
shards.  XOR-folds commute, so the result is bit-identical to serial
ingest under the same seed regardless of worker interleaving.

Execution backends (``GraphZeppelinConfig.parallel_backend``):

* ``"threads"`` (:class:`repro.parallel.graph_workers.ShardedIngestor`)
  -- numpy releases the GIL inside the hash/sort kernels, so a thread
  pool over disjoint slabs scales on real cores;
* ``"processes"`` -- the pool tensors move to
  ``multiprocessing.shared_memory``; worker processes attach by segment
  name and fold in place.

The seed design (per-node batches through per-node locks,
:class:`repro.parallel.graph_workers.ParallelIngestor`) is no engine
backend; it stays importable as the Figure-14 and parallel-ingest
baseline.

Sharding also pays off single-threaded: shard node ranges are sized so
the fold kernel's int16 radix sort applies to mixed-node groups
(:func:`~repro.sketch.flat_node_sketch.max_radix_dst_span`), which is
~2-3x faster than the flat int64 argsort the unsharded columnar path
needs.  :class:`repro.parallel.cost_model.ShardedIngestModel` prices
the pipeline (partition + per-shard folds + barrier);
:class:`repro.parallel.cost_model.ThreadScalingModel` remains the
calibrated Figure-14 curve for the seed-design pool.
"""

from repro.parallel.cost_model import ShardedIngestModel, ThreadScalingModel
from repro.parallel.graph_workers import (
    GraphWorkerPool,
    ParallelIngestor,
    ShardedIngestor,
    partition_mirrored_updates,
)

__all__ = [
    "GraphWorkerPool",
    "ParallelIngestor",
    "ShardedIngestor",
    "ShardedIngestModel",
    "ThreadScalingModel",
    "partition_mirrored_updates",
]
