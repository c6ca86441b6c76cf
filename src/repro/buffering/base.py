"""Common types and interface for the buffering layer."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

#: Bytes one buffered update occupies: two 32-bit node ids, matching the
#: "2B to encode an edge" style accounting the paper uses for buffers.
BYTES_PER_BUFFERED_UPDATE = 8


@dataclass(slots=True)
class Batch:
    """A batch of buffered updates bound for a single graph node.

    ``node`` is the node whose sketch the batch must be applied to, and
    ``neighbors`` lists the other endpoint of each buffered edge update
    (duplicates are legal: an edge inserted and later deleted appears
    twice and cancels inside the Z_2 sketch).

    The buffering structures emit :class:`PageBatch` columns; ``Batch``
    is the work unit of the seed design's
    :class:`~repro.parallel.graph_workers.GraphWorkerPool` (and its
    :class:`~repro.parallel.graph_workers.ParallelIngestor` driver).
    """

    node: int
    neighbors: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.neighbors)

    def __iter__(self) -> Iterator[int]:
        return iter(self.neighbors)

    @property
    def size_bytes(self) -> int:
        return len(self.neighbors) * BYTES_PER_BUFFERED_UPDATE

    @property
    def lock_key(self) -> Tuple[str, int]:
        """Serialisation key for the worker pool's per-target locks."""
        return ("node", self.node)


@dataclass(slots=True)
class PageBatch:
    """A batch of buffered updates bound for one node-group page.

    The page-mode emission unit: a *mixed-node* update column -- update
    ``i`` toggles edge ``{dsts[i], neighbors[i]}`` in ``dsts[i]``'s
    sketch -- whose destinations all fall inside the page's node range
    ``[node_lo, node_hi)``.  The engine folds the whole column through
    the columnar fold kernel in **one page pin** instead of one sketch
    round trip per node, which is what makes out-of-core flushes pay
    block-device I/O per page rather than per node.
    """

    page: int
    node_lo: int
    node_hi: int
    dsts: np.ndarray
    neighbors: np.ndarray

    def __len__(self) -> int:
        return int(self.dsts.size)

    @property
    def size_bytes(self) -> int:
        return len(self) * BYTES_PER_BUFFERED_UPDATE

    @property
    def lock_key(self) -> Tuple[str, int]:
        """Serialisation key for the worker pool's per-target locks."""
        return ("page", self.page)


class BufferingSystem(abc.ABC):
    """Interface shared by the leaf-only gutters and the gutter tree."""

    @abc.abstractmethod
    def insert(self, u: int, v: int) -> List[PageBatch]:
        """Buffer the update ``{u, v}`` for node ``u``.

        Returns the (possibly empty) list of batches that became full as
        a result and must now be handed to a Graph Worker.  The caller
        is responsible for also inserting the mirrored update
        ``(v, u)`` -- ``edge_update`` in the engine does both.
        """

    @abc.abstractmethod
    def flush_all(self) -> List[PageBatch]:
        """Empty every buffer, returning all remaining non-empty batches."""

    @abc.abstractmethod
    def restore(self, batches: List[PageBatch]) -> None:
        """Put emitted-but-unapplied batches back into the buffers.

        The engine's failure-atomic flush depends on this:
        :meth:`flush_all` pops updates out of the buffers *before* they
        are applied, so an application that dies partway (a rotten page
        read, a failed device write) would silently lose the unapplied
        tail if its batches could not be returned.  Restored gutters may
        temporarily exceed capacity -- that only makes the next emission
        larger, which the partition-independent sketch fold absorbs.
        """

    @abc.abstractmethod
    def pending_updates(self) -> int:
        """Number of updates currently sitting in buffers."""

    @property
    @abc.abstractmethod
    def capacity_per_node(self) -> int:
        """Updates a single node's gutter holds before it is emitted."""

    def insert_edge(self, u: int, v: int) -> List[PageBatch]:
        """Buffer both directions of an edge update (the public entry point)."""
        batches = self.insert(u, v)
        batches.extend(self.insert(v, u))
        return batches

    def insert_batch(self, dsts, neighbors) -> List[PageBatch]:
        """Buffer a column of single-direction updates at once.

        ``dsts[i]`` receives the update ``{dsts[i], neighbors[i]}``; the
        columnar ingest path passes both mirrored halves of its edge
        array in one call.  The base implementation loops; the concrete
        buffering structures override it with vectorised grouping.
        """
        batches: List[PageBatch] = []
        for u, v in zip(dsts, neighbors):
            batches.extend(self.insert(int(u), int(v)))
        return batches


def as_update_columns(
    dsts, neighbors, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a pair of update columns and return them as int64 arrays.

    Shared prologue of every vectorised ``insert_batch``: both columns
    must be matching 1-D arrays of node ids inside ``[0, num_nodes)``.
    """
    dst_array = np.asarray(dsts, dtype=np.int64)
    neighbor_array = np.asarray(neighbors, dtype=np.int64)
    if dst_array.shape != neighbor_array.shape or dst_array.ndim != 1:
        raise ValueError("dsts and neighbors must be matching one-dimensional arrays")
    for column in (dst_array, neighbor_array):
        if column.size and ((column < 0) | (column >= num_nodes)).any():
            raise ValueError(f"node outside [0, {num_nodes})")
    return dst_array, neighbor_array


def group_update_columns(
    keys: np.ndarray, *columns: np.ndarray
) -> Iterator[Tuple[int, Tuple[np.ndarray, ...]]]:
    """Yield ``(key, column_chunks)`` groups of parallel update columns.

    One stable argsort of ``keys``, then contiguous segments -- the
    single grouping pass behind every vectorised buffering insert,
    whether keyed per destination node or per node-group page.
    """
    if keys.size == 0:
        return
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # One gather per column up front; every group is then a zero-copy
    # contiguous slice (a flush can yield thousands of groups).
    sorted_columns = [column[order] for column in columns]
    cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [sorted_keys.size]))
    for start, end in zip(starts.tolist(), ends.tolist()):
        yield int(sorted_keys[start]), tuple(
            column[start:end] for column in sorted_columns
        )


def group_by_destination(
    dsts: np.ndarray, neighbors: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(node, neighbor_chunk)`` groups of an update column."""
    for node, (chunk,) in group_update_columns(dsts, neighbors):
        yield node, chunk


def page_of_nodes(nodes: np.ndarray, page_bounds: np.ndarray) -> np.ndarray:
    """Map node ids to the index of the owning node-group page."""
    return np.searchsorted(page_bounds, nodes, side="right") - 1


def gutter_capacity_updates(
    node_sketch_bytes: int,
    fraction: float,
    minimum: int = 1,
) -> int:
    """Capacity (in updates) of a gutter sized as a fraction of a node sketch.

    The paper sizes leaf gutters as a constant factor ``f`` of the node
    sketch size (Section 6.5, Figure 15); this helper converts that
    fraction into a whole number of buffered updates.
    """
    if node_sketch_bytes <= 0:
        raise ValueError("node_sketch_bytes must be positive")
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    return max(minimum, int(fraction * node_sketch_bytes / BYTES_PER_BUFFERED_UPDATE))
