"""Seeded dynamic-graph streams and the exact oracle that checks answers.

The stream is a planted partition: ``num_components`` groups of nodes
with Zipf-skewed sizes.  Each group gets a spanning path (so it is one
connected component of the final graph) plus extra edges whose
endpoints are drawn with power-law (Pareto) weights, which gives the
skewed degree distribution of real social graphs.  On top of that come
*churn* edges between different groups: each is inserted and deleted
later in the stream, so an engine that drops or misapplies a deletion
merges two planted components and the oracle catches it.

Every edge appears at most once as an insert and at most once as a
delete, no update is a self loop, and the order is uniformly random
subject to each churn edge's insert preceding its delete.  The engine
only ever sees the ``(N, 2)`` endpoint arrays; the generator is
deterministic in its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


@dataclass(frozen=True)
class Stream:
    """A generated update stream plus what the oracle needs to replay it."""

    num_nodes: int
    #: ``(N, 2)`` int64 endpoints, one row per update (insert or delete).
    updates: np.ndarray
    #: ``True`` where the row deletes an edge inserted earlier.
    is_delete: np.ndarray
    #: Planted group of every node (the partition of the final graph).
    groups: np.ndarray

    def __len__(self) -> int:
        return int(self.updates.shape[0])


def _draw_unique(
    sample: Callable[[int], np.ndarray], count: int, exclude: np.ndarray
) -> np.ndarray:
    """``count`` distinct keys not in ``exclude``, in first-drawn order.

    ``sample(k)`` draws about ``k`` candidate keys; drawing repeats until
    enough distinct ones have been seen (duplicates are common when
    endpoint weights are heavy-tailed).
    """
    keys = np.empty(0, dtype=np.int64)
    for _ in range(64):
        keys = np.concatenate([keys, sample(2 * count + 64)])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        keys = keys[~np.isin(keys, exclude)]
        if keys.size >= count:
            return keys[:count]
    raise ValueError("graph too small for the requested edge counts")


def make_stream(
    num_nodes: int,
    num_components: int,
    extra_edges: int,
    churn_edges: int,
    seed: int,
) -> Stream:
    """Generate one planted-partition stream (see the module docstring)."""
    rng = np.random.default_rng(seed)
    n = int(num_nodes)

    # Zipf group sizes, every group at least two nodes.
    weights = 1.0 / np.arange(1, num_components + 1)
    sizes = np.maximum((weights / weights.sum() * n).astype(np.int64), 2)
    sizes[0] += n - sizes.sum()
    order = rng.permutation(n)  # nodes laid out group by group
    groups = np.empty(n, dtype=np.int64)
    groups[order] = np.repeat(np.arange(num_components), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        keep = a != b
        return np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep]

    # Spanning path through each group, in the permuted node order.
    same = groups[order[:-1]] == groups[order[1:]]
    path_keys = keys(order[:-1][same], order[1:][same])

    # Power-law endpoints inside a group: inverse-CDF sampling over the
    # group's contiguous segment of one global cumulative weight array.
    node_weight = rng.pareto(1.2, size=n) + 1.0
    cum = np.concatenate([[0.0], np.cumsum(node_weight[order])])

    def inside_groups(draws: int) -> np.ndarray:
        group = np.repeat(np.arange(num_components), rng.multinomial(draws, sizes / n))
        first, last = starts[group], starts[group] + sizes[group] - 1
        ends = []
        for _ in range(2):
            target = cum[first] + rng.random(group.size) * (cum[last + 1] - cum[first])
            slot = np.clip(np.searchsorted(cum, target, side="right") - 1, first, last)
            ends.append(order[slot])
        return keys(*ends)

    # Churn edges join two different groups.
    def across_groups(draws: int) -> np.ndarray:
        a, b = rng.integers(0, n, size=(2, draws))
        cross = groups[a] != groups[b]
        return keys(a[cross], b[cross])

    permanent = np.concatenate(
        [path_keys, _draw_unique(inside_groups, int(extra_edges), path_keys)]
    )
    churn_keys = _draw_unique(across_groups, int(churn_edges), permanent)

    # Random order, insert before delete: scatter every event to a
    # random slot, then give each churn edge's earlier slot its insert.
    num_perm, num_churn = permanent.size, churn_keys.size
    slots = rng.permutation(num_perm + 2 * num_churn)
    first = slots[num_perm : num_perm + num_churn]
    second = slots[num_perm + num_churn :]
    event_keys = np.empty(slots.size, dtype=np.int64)
    is_delete = np.zeros(slots.size, dtype=bool)
    event_keys[slots[:num_perm]] = permanent
    event_keys[np.minimum(first, second)] = churn_keys
    event_keys[np.maximum(first, second)] = churn_keys
    is_delete[np.maximum(first, second)] = True

    lo, hi = event_keys // n, event_keys % n
    flip = rng.random(slots.size) < 0.5
    updates = np.stack([np.where(flip, hi, lo), np.where(flip, lo, hi)], axis=1)
    return Stream(num_nodes=n, updates=updates, is_delete=is_delete, groups=groups)


def canonical_labels(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Label every node with the smallest node id of its component."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix(
        (np.ones(edges.shape[0], dtype=np.int8), (edges[:, 0], edges[:, 1])),
        shape=(num_nodes, num_nodes),
    )
    _, labels = connected_components(graph, directed=False)
    smallest = np.full(labels.max() + 1, num_nodes, dtype=np.int64)
    np.minimum.at(smallest, labels, np.arange(num_nodes, dtype=np.int64))
    return smallest[labels]


def edge_keys(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Canonical ``lo * n + hi`` key of every edge row."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.minimum(edges[:, 0], edges[:, 1]) * num_nodes + np.maximum(
        edges[:, 0], edges[:, 1]
    )


@dataclass(frozen=True)
class Expected:
    """The exact answer at one query position."""

    position: int
    labels: np.ndarray
    #: Sorted canonical keys of the edges live at ``position``.
    live_keys: np.ndarray


def oracle(stream: Stream, positions: Sequence[int]) -> list:
    """Exact partitions of the live edge set after each prefix length.

    Replays the toggles: an edge is live after a prefix when it occurs
    an odd number of times in it.  Deliberately independent of the
    generator's bookkeeping (it ignores ``is_delete``), so a generator
    bug cannot hide behind a matching oracle bug.
    """
    n = stream.num_nodes
    uniq, slot = np.unique(edge_keys(n, stream.updates), return_inverse=True)
    parity = np.zeros(uniq.size, dtype=np.int64)
    answers = []
    done = 0
    for position in sorted(positions):
        parity += np.bincount(slot[done:position], minlength=uniq.size)
        done = position
        live = uniq[parity % 2 == 1]
        labels = canonical_labels(n, np.stack([live // n, live % n], axis=1))
        answers.append(Expected(position=int(position), labels=labels, live_keys=live))
    return answers


def check_forest(expected: Expected, num_nodes: int, edges: np.ndarray, complete: bool) -> str:
    """Why a returned forest is wrong, or ``""`` when it is right.

    A forest is right when the engine called it complete, every edge is
    live at the query position, and it induces exactly the oracle's
    partition.
    """
    if not complete:
        return "forest flagged incomplete"
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = edge_keys(num_nodes, edges)
    found = np.searchsorted(expected.live_keys, keys)
    found = np.minimum(found, max(expected.live_keys.size - 1, 0))
    if keys.size and (
        expected.live_keys.size == 0 or (expected.live_keys[found] != keys).any()
    ):
        return "forest holds an edge that is not live"
    if not np.array_equal(canonical_labels(num_nodes, edges), expected.labels):
        return "partition differs from the oracle"
    return ""
