"""Sharded columnar parallel ingest over the node tensor pool.

The parallel layer partitions the node space into ``num_shards``
contiguous node ranges.  Each shard *owns* a disjoint slab of the
:class:`~repro.sketch.tensor_pool.NodeTensorPool` tensors -- every
bucket of every node in its range, across all rounds -- and is the only
writer that ever touches those buckets.  Ingesting a batch is then:

1. **partition** (producer): canonicalise the ``(N, 2)`` edge batch,
   mirror it (each edge lands in two shards, one per endpoint), and
   split the mixed-node update columns into per-shard groups with one
   vectorised ``searchsorted`` + stable argsort pass
   (:func:`partition_mirrored_updates`);
2. **fold** (workers): each shard worker folds its group straight
   through the shared columnar fold kernel into its own slab
   (:meth:`~repro.sketch.tensor_pool.NodeTensorPool.fold_shard`).

There are no per-node locks, no ``Batch`` objects, and no shared
mutable state between shards: scatter targets are disjoint by
construction, and because bucket updates are XOR-folds the shard-local
application order is irrelevant -- the resulting pool is bit-identical
to serial :meth:`~repro.core.graph_zeppelin.GraphZeppelin.ingest_batch`
under the same seed.  Shard node ranges are also sized (see
:func:`~repro.sketch.tensor_pool.auto_num_shards`) so the fold kernel's
int16 radix fast path applies, which makes sharded ingest faster than
the serial columnar path even on a single core.

Two execution backends implement the fold step
(``GraphZeppelinConfig.parallel_backend``):

* ``"threads"`` -- a thread pool; numpy releases the GIL inside the
  hash/sort/scatter kernels, so disjoint-slab folds scale on real
  cores;
* ``"processes"`` -- the pool tensors are migrated into
  ``multiprocessing.shared_memory`` and worker processes attach by
  segment name and fold in place.

:meth:`ShardedIngestor.ingest_stream` adds a pipeline mode: the
producer partitions batch ``k + 1`` while the workers are still
folding batch ``k``.  The hand-off between producer and workers is a
**bounded queue**: prepared batches wait in line until their combined
footprint would exceed ``max_queued_bytes``, at which point the
producer *blocks* (folding queued batches) instead of buffering an
unbounded prepared backlog -- backpressure, so a fast source cannot
balloon RAM ahead of slow folds.  ``peak_queued_bytes`` records the
high-water mark for the overload benchmarks.

Out-of-core engines participate through a **page-affine** mode: when
the engine holds a :class:`~repro.sketch.paged_pool.PagedTensorPool`,
shard boundaries snap to the pool's node-group page boundaries, so one
worker owns each page's fold (the pool's pin/evict bookkeeping
serialises under its own lock while the fold kernels run concurrently
on disjoint pages).  Page-affine mode runs on the threads backend --
pages cannot migrate to shared memory.

The seed design -- a :class:`GraphWorkerPool` popping per-node
``Batch`` objects through per-target locks, driven by
:class:`ParallelIngestor` -- is kept as the Figure-14 scaling model's
subject and the parallel-ingest benchmark's baseline; no engine config
selects it.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.buffering.base import Batch
from repro.buffering.work_queue import WorkQueue
from repro.core.graph_zeppelin import GraphZeppelin
from repro.exceptions import ConfigurationError
from repro.parallel.cost_model import usable_cores
from repro.sketch.flat_node_sketch import hash_depths_checksums
from repro.sketch.tensor_pool import NodeTensorPool, auto_num_shards, shard_bounds

#: Signature of the function a seed-design worker applies to each batch.
BatchApplier = Callable[[Batch], None]

#: Default bound on the pipelined producer's prepared-batch backlog, in
#: bytes of update columns.  Big enough for several typical stream
#: chunks, small enough that backpressure engages well before the
#: backlog rivals the sketch RAM budget.
DEFAULT_MAX_QUEUED_BYTES = 32 << 20


# ----------------------------------------------------------------------
# the vectorised partition step
# ----------------------------------------------------------------------
def partition_mirrored_updates(
    lo: np.ndarray,
    hi: np.ndarray,
    bounds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a canonical edge batch into per-shard mixed-node groups.

    The batch is mirrored (both endpoints of edge ``(lo[i], hi[i])``
    receive its slot, so each edge lands in two shards -- or twice in
    one shard when both endpoints fall inside it) and grouped by the
    owning shard in one vectorised pass: a ``searchsorted`` against the
    shard ``bounds`` labels every update, and a stable argsort of the
    (small-int) shard ids groups them without touching per-update
    Python.

    Returns ``(dsts, edge_rows, cuts)``: the destination column
    reordered shard-major, each update's edge position (``edge_rows[i]``
    indexes the *unmirrored* batch -- per-edge data such as slot
    indices or hash matrices is shared by both mirrored copies and
    gathered by row, never duplicated), and ``num_shards + 1`` offsets
    such that shard ``s``'s group is the slice ``[cuts[s], cuts[s+1])``.
    """
    num_shards = bounds.size - 1
    num_edges = lo.size
    dsts = np.concatenate([lo, hi])
    shard_ids = np.searchsorted(bounds, dsts, side="right") - 1
    # Shard counts are node counts at most, so the ids fit int16 for
    # any graph the int16 fold fast path itself supports -- which keeps
    # the grouping argsort on numpy's radix sort.
    sort_ids = (
        shard_ids.astype(np.int16) if num_shards <= np.iinfo(np.int16).max else shard_ids
    )
    order = np.argsort(sort_ids, kind="stable")
    counts = np.bincount(shard_ids, minlength=num_shards)
    cuts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    # Mirrored position p is edge p mod num_edges (first half = lo copy,
    # second half = hi copy).
    edge_rows = order % num_edges
    return dsts[order], edge_rows, cuts


# ----------------------------------------------------------------------
# process-backend worker plumbing
# ----------------------------------------------------------------------
#: The worker process's attached pool, set once by the pool initializer.
_WORKER_POOL: Optional[NodeTensorPool] = None


def _init_shard_worker(meta: Dict) -> None:
    """Process-pool initializer: attach to the shared-memory pool by name."""
    global _WORKER_POOL
    _WORKER_POOL = NodeTensorPool.attach_shared(meta)


def _fold_shard_task(task: Tuple[int, int, np.ndarray, np.ndarray]) -> int:
    """Fold one shard group inside a worker process (fold step of step 2)."""
    node_lo, node_hi, dsts, indices = task
    return _WORKER_POOL.fold_shard(dsts, indices, node_lo, node_hi)


def process_context():
    """Fork on Linux (cheap startup); spawn everywhere else.

    Workers attach to the pool by segment name rather than relying on
    inherited memory, so both start methods behave identically.  macOS
    offers fork but CPython defaults it to spawn there for a reason
    (forking after ObjC/Accelerate initialisation can crash children),
    so fork is only taken where it is the platform default anyway.
    Shared with the distributed multi-ingestor, whose workers are
    likewise self-contained (they receive their sub-stream by value and
    hand results back through snapshot files).
    """
    use_fork = (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    )
    return multiprocessing.get_context("fork" if use_fork else "spawn")


# ----------------------------------------------------------------------
# the sharded ingestor (tentpole)
# ----------------------------------------------------------------------
class ShardedIngestor:
    """Columnar parallel ingest: shard workers over the tensor pool.

    Use as a context manager around one or many batches::

        with ShardedIngestor(engine, num_workers=4) as ingestor:
            ingestor.ingest_batch(edges)  # one (N, 2) array
            ingestor.ingest_stream(stream.edge_array_chunks())  # pipelined
        forest = engine.list_spanning_forest()

    Results are bit-identical to serial ``engine.ingest_batch`` under
    the same seed, for either backend and any shard count.

    Parameters
    ----------
    engine:
        The GraphZeppelin instance to ingest into: its in-RAM
        :class:`NodeTensorPool` (the default) or its out-of-core
        :class:`~repro.sketch.paged_pool.PagedTensorPool` (page-affine
        mode, threads backend only).
    num_workers:
        Concurrent shard workers (default ``engine.config.num_workers``).
    num_shards:
        Node-range count (default ``engine.config.num_shards``, or an
        automatic count sized so every shard gets the fold kernel's
        int16 radix fast path).  May exceed ``num_workers``; workers
        pick up shard groups as they free up.  Over a paged pool shard
        boundaries snap to page boundaries and the count is capped at
        the page count.
    backend:
        ``"threads"`` or ``"processes"`` (default
        ``engine.config.parallel_backend``).
    max_queued_bytes:
        Backpressure bound for :meth:`ingest_stream`: the producer
        blocks once the prepared-but-unfolded batches it is holding
        exceed this many bytes (default
        :data:`DEFAULT_MAX_QUEUED_BYTES`).  A single batch larger than
        the whole bound still ingests -- alone, with the bound
        transiently exceeded.
    """

    def __init__(
        self,
        engine: GraphZeppelin,
        num_workers: Optional[int] = None,
        num_shards: Optional[int] = None,
        backend: Optional[str] = None,
        max_queued_bytes: Optional[int] = None,
    ) -> None:
        pool = engine.tensor_pool
        self.engine = engine
        self.pool: NodeTensorPool = pool
        self.paged = pool.is_paged
        self.backend = backend if backend is not None else engine.config.parallel_backend
        if self.backend not in ("threads", "processes"):
            raise ConfigurationError(
                f"unknown parallel backend {self.backend!r} "
                "(use 'threads' or 'processes')"
            )
        if self.paged and self.backend == "processes":
            raise ConfigurationError(
                "page-affine sharded ingest over a paged pool runs on the "
                "threads backend (pages cannot migrate to shared memory)"
            )
        self.num_workers = int(
            num_workers if num_workers is not None else engine.config.num_workers
        )
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        shards = num_shards if num_shards is not None else engine.config.num_shards
        if shards is None and not self.paged:
            shards = auto_num_shards(engine.num_nodes, pool.num_rows, self.num_workers)
        if self.paged:
            # Page-affine mode: shard boundaries snap to the pool's page
            # boundaries so each page is folded by exactly one worker
            # (pages, not nodes, are the unit of slab ownership out of
            # core).  A few shards per worker keeps the load balanced
            # without flooding the executor with per-page tasks.
            num_pages = pool.num_pages
            if shards is None:
                shards = min(num_pages, 4 * self.num_workers)
            shards = max(1, min(int(shards), num_pages))
            page_cuts = (
                np.arange(shards + 1, dtype=np.int64) * np.int64(num_pages)
            ) // np.int64(shards)
            self.bounds = pool.page_bounds[page_cuts]
            self.num_shards = int(shards)
        else:
            self.num_shards = int(shards)
            if self.num_shards < 1:
                raise ConfigurationError("num_shards must be at least 1")
            self.bounds = shard_bounds(engine.num_nodes, self.num_shards)
        if max_queued_bytes is None:
            max_queued_bytes = DEFAULT_MAX_QUEUED_BYTES
        if max_queued_bytes < 1:
            raise ConfigurationError("max_queued_bytes must be at least 1")
        self.max_queued_bytes = int(max_queued_bytes)
        # Hash-hoist only pays on the numpy thread path: native kernels
        # fuse hashing into the fold (and release the GIL there), so a
        # producer-side hash pass would serialise work the workers can
        # do concurrently in compiled code.
        self._hoist_hash = self.backend == "threads" and pool._kernels is None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._proc_pool = None
        self._batches_ingested = 0
        self._updates_ingested = 0
        self._queued_bytes = 0
        #: High-water mark of the pipelined hand-off backlog, in bytes.
        self.peak_queued_bytes = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedIngestor":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def start(self) -> None:
        """Spin up the shard workers (idempotent).

        The actual worker count is ``min(num_workers, usable cores)``
        (affinity-aware): the folds are CPU-bound numpy kernels, so
        workers beyond the cores this process may run on only add
        scheduler contention (the cost model's ``effective_workers``
        encodes the same clamp).
        """
        workers = self.effective_workers
        if self.backend == "threads":
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="shard-worker"
                )
        else:
            if self._proc_pool is None:
                # Workers attach to the pool tensors by shared-memory
                # segment name and fold in place.
                self.pool.to_shared_memory()
                self._proc_pool = process_context().Pool(
                    processes=workers,
                    initializer=_init_shard_worker,
                    initargs=(self.pool.shared_meta(),),
                )

    def finish(self) -> None:
        """Stop the workers.  The pool (and any shared memory backing it)
        stays with the engine, which keeps serving queries and further
        ingest."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._proc_pool is not None:
            self._proc_pool.close()
            self._proc_pool.join()
            self._proc_pool = None

    close = finish

    # ------------------------------------------------------------------
    @property
    def effective_workers(self) -> int:
        """Workers actually running: ``num_workers`` clamped to usable cores."""
        return max(1, min(self.num_workers, usable_cores()))

    @property
    def batches_ingested(self) -> int:
        return self._batches_ingested

    @property
    def updates_ingested(self) -> int:
        """Edge updates ingested through this ingestor (pre-mirroring)."""
        return self._updates_ingested

    # ------------------------------------------------------------------
    def ingest_batch(self, edges: Union[np.ndarray, Sequence[Tuple[int, int]]]) -> int:
        """Partition one ``(N, 2)`` edge batch and fold it in parallel.

        Blocks until every shard worker has folded its group (so the
        engine may be queried immediately after), and returns the number
        of edge updates ingested.
        """
        self.start()
        parts = self._prepare(edges)
        if parts is None:
            return 0
        count, groups, lo, hi = parts
        self._await(self._dispatch(groups), count, lo, hi)
        return count

    def ingest_stream(
        self,
        chunks: Iterable[Union[np.ndarray, Sequence[Tuple[int, int]]]],
    ) -> int:
        """Pipelined ingest of a sequence of edge batches.

        The producer (this thread) canonicalises and partitions batch
        ``k + 1`` while the shard workers fold batch ``k``; a barrier
        between consecutive batches keeps two folds from racing on the
        same bucket.  Prepared batches wait in a **bounded** hand-off
        queue: once their combined footprint exceeds
        ``max_queued_bytes`` the producer blocks, folding queued
        batches before preparing more -- backpressure against a source
        faster than the folds.  ``chunks`` is any iterable of ``(N, 2)``
        edge arrays -- typically
        :meth:`~repro.streaming.stream.GraphStream.edge_array_chunks`.
        Returns the total number of edge updates ingested.
        """
        self.start()
        total = 0
        # in_flight: the one dispatched batch, as (handles, count, lo,
        # hi, nbytes); queued: prepared batches not yet dispatched, as
        # (count, groups, lo, hi, nbytes).  _queued_bytes covers both.
        in_flight: Optional[Tuple] = None
        queued: List[Tuple] = []

        def advance() -> None:
            # One pipeline step: retire the dispatched batch (barrier),
            # then dispatch the next queued one.  Clear in_flight before
            # awaiting so a worker exception here cannot make the
            # finally block await it again.
            nonlocal in_flight
            if in_flight is not None:
                pending, in_flight = in_flight, None
                try:
                    self._await(pending[0], pending[1], pending[2], pending[3])
                finally:
                    self._queued_bytes -= pending[4]
            if queued:
                count, groups, lo, hi, nbytes = queued.pop(0)
                in_flight = (self._dispatch(groups), count, lo, hi, nbytes)

        try:
            for chunk in chunks:
                parts = self._prepare(chunk)
                if parts is None:
                    continue
                count, groups, lo, hi = parts
                nbytes = self._batch_nbytes(groups)
                while (in_flight is not None or queued) and (
                    self._queued_bytes + nbytes > self.max_queued_bytes
                ):
                    advance()
                queued.append((count, groups, lo, hi, nbytes))
                self._queued_bytes += nbytes
                self.peak_queued_bytes = max(
                    self.peak_queued_bytes, self._queued_bytes
                )
                if in_flight is None:
                    advance()
                total += count
            while in_flight is not None or queued:
                advance()
        finally:
            # A failed _prepare (bad chunk) must not leave a dispatched
            # batch unpublished: its folds complete in the workers and
            # mutate the pool, so the caches have to be invalidated.
            # Queued-but-undispatched batches never touched the pool;
            # they are simply dropped from the byte accounting.
            if in_flight is not None:
                try:
                    self._await(in_flight[0], in_flight[1], in_flight[2], in_flight[3])
                finally:
                    self._queued_bytes -= in_flight[4]
            for entry in queued:
                self._queued_bytes -= entry[4]
            queued.clear()
        return total

    def _batch_nbytes(self, groups: list) -> int:
        """Footprint of one prepared batch's update columns, in bytes.

        The thread backend shares the per-edge hash matrices across
        every shard group by reference, so arrays are counted once by
        identity, not once per group.
        """
        seen = set()
        total = 0
        for group in groups:
            for part in group:
                if isinstance(part, np.ndarray) and id(part) not in seen:
                    seen.add(id(part))
                    total += part.nbytes
        return total

    # ------------------------------------------------------------------
    def _prepare(self, edges) -> Optional[Tuple[int, list, np.ndarray, np.ndarray]]:
        """Producer half: canonicalise, hash, mirror, and partition a batch.

        The hash matrices depend only on the edge slot, so for the
        numpy thread backend they are computed **once per edge** here and
        shared by reference with every worker (each gathers its group's
        rows) -- half the hash cost of hashing per mirrored copy.  The
        process backend hashes inside the workers instead: shipping the
        ``(K, slots)`` matrices through the task pipe would cost far
        more than the duplicate hash.  Native kernels likewise skip the
        hoist: the fold re-hashes per update inside compiled, GIL-free
        code, so the producer stays a pure partitioner and the workers
        scale past the hash-bound ceiling.
        """
        lo, hi = self.engine._canonical_edge_columns(edges)
        if lo is None:
            return None
        pool = self.pool
        indices = self.engine.encoder.encode_canonical_pairs(lo, hi)
        dsts, edge_rows, cuts = partition_mirrored_updates(lo, hi, self.bounds)
        shards = [
            (shard, slice(int(cuts[shard]), int(cuts[shard + 1])))
            for shard in range(self.num_shards)
            if cuts[shard + 1] > cuts[shard]
        ]
        if self._hoist_hash:
            depths, checksums = hash_depths_checksums(
                indices, pool._mixed_membership, pool._mixed_checksum, pool.num_rows
            )
            groups = [
                (
                    int(self.bounds[shard]),
                    int(self.bounds[shard + 1]),
                    dsts[rows],
                    edge_rows[rows],
                    indices,
                    depths,
                    checksums,
                )
                for shard, rows in shards
            ]
        else:
            groups = [
                (
                    int(self.bounds[shard]),
                    int(self.bounds[shard + 1]),
                    dsts[rows],
                    indices[edge_rows[rows]],
                )
                for shard, rows in shards
            ]
        return int(lo.size), groups, lo, hi

    def _dispatch(self, groups: list) -> list:
        """Hand the per-shard groups to the workers; returns wait handles."""
        if self.backend == "threads":
            if self._hoist_hash:
                return [
                    self._executor.submit(
                        self.pool.fold_shard_hashed,
                        dsts,
                        rows,
                        indices,
                        depths,
                        checksums,
                        node_lo,
                        node_hi,
                    )
                    for node_lo, node_hi, dsts, rows, indices, depths, checksums in groups
                ]
            return [
                self._executor.submit(
                    self.pool.fold_shard, dsts, indices, node_lo, node_hi
                )
                for node_lo, node_hi, dsts, indices in groups
            ]
        return [self._proc_pool.map_async(_fold_shard_task, groups, chunksize=1)]

    def _await(
        self, handles: list, count: int, lo: np.ndarray, hi: np.ndarray
    ) -> None:
        """Barrier: wait for a batch's folds, then publish its effects.

        When a worker raised, the failed batch's other shards have
        already XOR-mutated the pool tensors, so the forest and slab
        caches are invalidated even then (a query served from them
        would silently return pre-batch answers) -- but the update
        counters and the validated edge-set toggle are only applied on
        success, so they never claim a partially-folded batch landed
        (a caller retrying the failed batch must not double-toggle).
        """
        try:
            if self.backend == "threads":
                wait(handles)
                for handle in handles:
                    handle.result()  # surface worker exceptions
            else:
                for handle in handles:
                    handle.get()
        except BaseException:
            self.engine._note_parallel_ingest(0)
            raise
        self._batches_ingested += 1
        self._updates_ingested += count
        self.engine._toggle_tracked_edges(lo, hi)
        self.engine._note_parallel_ingest(count)


# ----------------------------------------------------------------------
# the seed design's worker pool (shutdown race fixed)
# ----------------------------------------------------------------------
class GraphWorkerPool:
    """A pool of worker threads consuming per-node batches from a queue.

    The seed repository's Graph Workers pipeline: a producer pushes
    :class:`~repro.buffering.base.Batch` objects into the bounded work
    queue and ``num_workers`` threads pop and apply them, serialising
    same-target batches with a per-target lock.  The sharded path above
    replaces all of this in the engine; this pool remains as the
    comparison baseline.

    Shutdown uses task-done accounting: :meth:`join` blocks on the
    queue's unfinished-task count -- which reaches zero only after the
    *apply* of the last popped batch completes, not merely after the
    queue drains -- and then wakes each worker with a sentinel.  There
    is no polling loop anywhere.
    """

    def __init__(
        self,
        apply_batch: BatchApplier,
        num_workers: int = 4,
        work_queue: Optional[WorkQueue] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self.apply_batch = apply_batch
        self.work_queue = (
            work_queue if work_queue is not None else WorkQueue(num_workers=num_workers)
        )
        self._node_locks: Dict[int, threading.Lock] = {}
        self._node_locks_guard = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._batches_processed = 0
        self._updates_processed = 0
        self._counter_lock = threading.Lock()
        self._worker_errors: List[BaseException] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        if self._threads:
            return
        for worker_id in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"graph-worker-{worker_id}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def submit(self, batch: Batch) -> None:
        """Enqueue one batch for processing."""
        self.work_queue.put(batch)

    def submit_all(self, batches: Iterable[Batch]) -> None:
        for batch in batches:
            self.submit(batch)

    def join(self) -> None:
        """Wait until every submitted batch has been *applied*, then stop.

        ``task_done`` accounting tracks in-flight batches, so a batch a
        worker has already popped but is still applying holds this call
        open until its apply returns.  An exception raised by
        ``apply_batch`` does not kill its worker (the pool keeps its
        full worker count and every sentinel is consumed); the first
        such error is re-raised here after shutdown.
        """
        self.work_queue.join_tasks()
        for _ in self._threads:
            self.work_queue.put_sentinel()
        for thread in self._threads:
            thread.join()
        self._threads = []
        if self._worker_errors:
            errors, self._worker_errors = self._worker_errors, []
            raise errors[0]

    # ------------------------------------------------------------------
    @property
    def batches_processed(self) -> int:
        return self._batches_processed

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.work_queue.get(block=True)
            if batch is WorkQueue.SENTINEL:
                self.work_queue.task_done()
                return
            try:
                lock = self._lock_for(batch.lock_key)
                with lock:
                    self.apply_batch(batch)
                with self._counter_lock:
                    self._batches_processed += 1
                    self._updates_processed += len(batch)
            except BaseException as exc:  # noqa: BLE001 -- surfaced by join()
                with self._counter_lock:
                    self._worker_errors.append(exc)
            finally:
                self.work_queue.task_done()

    def _lock_for(self, key) -> threading.Lock:
        """Lock serialising batches for one target (a node or a page)."""
        with self._node_locks_guard:
            lock = self._node_locks.get(key)
            if lock is None:
                lock = threading.Lock()
                self._node_locks[key] = lock
            return lock


class ParallelIngestor:
    """Drives a GraphZeppelin instance with the seed design's worker pool.

    The single-threaded engine applies batches inline as the buffering
    layer emits them; this wrapper reroutes emitted batches through a
    :class:`GraphWorkerPool` instead, so multiple node sketches are
    updated concurrently.  It is the seed design -- per-target batches
    and locks, scalar apply path -- kept as the Figure-14 and
    parallel-ingest baseline; the engine's own parallel path is
    :class:`ShardedIngestor`.  Use it as a context manager::

        with ParallelIngestor(gz, num_workers=8) as ingestor:
            for update in stream:
                ingestor.edge_update(update.u, update.v)
        forest = gz.list_spanning_forest()
    """

    def __init__(self, engine: GraphZeppelin, num_workers: int = 4) -> None:
        self.engine = engine
        self.pool = GraphWorkerPool(
            apply_batch=engine._apply_batch, num_workers=num_workers
        )

    def __enter__(self) -> "ParallelIngestor":
        self.pool.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    # ------------------------------------------------------------------
    def edge_update(self, u: int, v: int) -> None:
        """Buffer one update, dispatching any emitted batches to workers."""
        buffering = self.engine.buffering
        self.engine._updates_processed += 1
        if buffering is None:
            self.pool.submit(Batch(node=u, neighbors=[v]))
            self.pool.submit(Batch(node=v, neighbors=[u]))
            return
        for batch in buffering.insert_edge(u, v):
            self.pool.submit(batch)

    def ingest(self, updates: Iterable) -> int:
        count = 0
        for update in updates:
            self.edge_update(update.u, update.v)
            count += 1
        return count

    def finish(self) -> None:
        """Flush remaining buffered updates through the pool and stop it."""
        buffering = self.engine.buffering
        if buffering is not None:
            for batch in buffering.flush_all():
                self.pool.submit(batch)
        self.pool.join()
