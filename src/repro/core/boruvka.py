"""Sketch-based Boruvka: recover a spanning forest from cut samplers.

The driver is written against a tiny abstraction -- a callable that,
given a Boruvka round and the member nodes of a component, returns an
l0 sample of the component's cut vector -- so the same algorithm runs
on top of GraphZeppelin's CubeSketches, the StreamingCC baseline's
general-purpose sketches, and the exact (adjacency matrix) oracle used
in tests.

Each round queries every active component once, using that round's
independent sketches; sampled edges that join two distinct components
are added to the forest and the components merged.  The loop ends when
no component yields a new edge (all remaining cuts are empty) or when
the provisioned number of rounds is exhausted, in which case the result
is flagged incomplete (the paper's asymptotically-small failure case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dsu import DisjointSetUnion
from repro.core.edge_encoding import EdgeEncoder
from repro.core.spanning_forest import SpanningForest
from repro.exceptions import ConnectivityError
from repro.observability.metrics import default_registry
from repro.observability.tracing import span
from repro.sketch.flat_node_sketch import group_nodes_by_label
from repro.sketch.sketch_base import (
    SAMPLE_FAIL,
    SAMPLE_GOOD,
    SAMPLE_ZERO,
    SampleOutcome,
    SampleResult,
)
from repro.types import Edge

#: Signature of the per-component cut sampler: (round, member nodes) -> sample.
CutSampler = Callable[[int, Sequence[int]], SampleResult]

#: Signature of the whole-round cut sampler: (round, per-node component
#: labels, active-node mask) -> (component roots ascending, status codes,
#: sampled edge slots).  This is what the vectorized driver consumes; the
#: tensor pool implements it as one segmented XOR-reduce per round.
BatchCutSampler = Callable[
    [int, np.ndarray, Optional[np.ndarray]],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]


@dataclass
class BoruvkaStats:
    """Bookkeeping produced by one run of the sketch Boruvka algorithm."""

    rounds_used: int = 0
    component_queries: int = 0
    good_samples: int = 0
    zero_samples: int = 0
    failed_samples: int = 0
    invalid_samples: int = 0
    merges: int = 0
    per_round_merges: List[int] = field(default_factory=list)


def sketch_spanning_forest(
    num_nodes: int,
    num_rounds: int,
    encoder: EdgeEncoder,
    cut_sampler: CutSampler,
    strict: bool = False,
) -> tuple[SpanningForest, BoruvkaStats]:
    """Run Boruvka's algorithm over sketched cut samplers.

    Parameters
    ----------
    num_nodes:
        Number of nodes in the graph.
    num_rounds:
        Number of independent sketch rounds available.
    encoder:
        The edge-slot encoder shared by the sketches; used to decode and
        validate sampled indices.
    cut_sampler:
        ``cut_sampler(round_index, members)`` must return a
        :class:`SampleResult` for the cut between ``members`` and the
        rest of the graph, computed from the round's sketches.
    strict:
        When true, exhausting the rounds while merges were still
        happening raises :class:`ConnectivityError`; otherwise the
        partial forest is returned with ``complete=False``.
    """
    dsu = DisjointSetUnion(num_nodes)
    members: Dict[int, List[int]] = {node: [node] for node in range(num_nodes)}
    # Components whose cut has been observed empty: they can never merge
    # again and are skipped in later rounds.
    settled: Set[int] = set()
    forest_edges: List[Edge] = []
    stats = BoruvkaStats()

    found_edge = True
    round_index = 0
    while found_edge and dsu.num_components > 1:
        if round_index >= num_rounds:
            if strict:
                raise ConnectivityError(
                    f"Boruvka did not converge within {num_rounds} rounds "
                    f"({dsu.num_components} components remain)"
                )
            forest = SpanningForest.from_edges(num_nodes, forest_edges, complete=False)
            return forest, stats

        found_edge = False
        stats.rounds_used = round_index + 1
        sampled_edges: List[Edge] = []
        failures_this_round = 0

        for root in list(members.keys()):
            if root in settled:
                continue
            stats.component_queries += 1
            result = cut_sampler(round_index, members[root])
            if result.is_zero:
                stats.zero_samples += 1
                settled.add(root)
                continue
            if result.is_fail:
                stats.failed_samples += 1
                failures_this_round += 1
                continue
            stats.good_samples += 1
            assert result.index is not None
            if not encoder.is_valid_index(result.index):
                # A corrupted bucket slipped past its checksum; ignore it.
                stats.invalid_samples += 1
                continue
            sampled_edges.append(encoder.decode(result.index))

        merges_this_round = 0
        for u, v in sampled_edges:
            root_u, root_v = dsu.find(u), dsu.find(v)
            if root_u == root_v:
                continue
            dsu.union(u, v)
            # Union by size keeps one of the two old roots as the new root.
            new_root = dsu.find(u)
            old_root = root_v if new_root == root_u else root_u
            members[new_root] = members[new_root] + members.pop(old_root)
            settled.discard(new_root)
            settled.discard(old_root)
            forest_edges.append((u, v) if u < v else (v, u))
            merges_this_round += 1
            found_edge = True

        stats.merges += merges_this_round
        stats.per_round_merges.append(merges_this_round)
        # A failed sample says nothing about the cut being empty; as long as
        # unused rounds (with fresh, independent sketches) remain, retry the
        # unresolved components there instead of declaring convergence.
        if failures_this_round and not found_edge:
            found_edge = True
        round_index += 1

    forest = SpanningForest.from_edges(num_nodes, forest_edges, complete=True)
    return forest, stats


def batch_sampler_from_scalar(cut_sampler: CutSampler) -> BatchCutSampler:
    """Adapt a per-component :data:`CutSampler` to the batched signature.

    Groups nodes by component label with one argsort (no per-merge list
    concatenation) and calls the scalar sampler once per segment, so
    stores without a whole-round kernel (the StreamingCC baseline, the
    seed design's per-node store) still run under the array driver.
    The engine's tensor pools have a native ``query_components``, so
    this adapter covers only the reference stores.  Member lists are passed in ascending node order; every sampler in
    the tree XOR-folds or sums its members, so the order cannot change
    the sample.
    """

    def batch(
        round_index: int,
        labels: np.ndarray,
        node_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        sorted_nodes, seg_starts, roots = group_nodes_by_label(
            np.asarray(labels), node_mask
        )
        if roots.size == 0:
            return roots, np.empty(0, dtype=np.uint8), roots.copy()
        seg_ends = np.append(seg_starts[1:], sorted_nodes.size)
        statuses = np.empty(roots.size, dtype=np.uint8)
        indices = np.full(roots.size, -1, dtype=np.int64)
        for position, (start, end) in enumerate(zip(seg_starts, seg_ends)):
            result = cut_sampler(round_index, sorted_nodes[start:end].tolist())
            if result.outcome is SampleOutcome.GOOD:
                statuses[position] = SAMPLE_GOOD
                indices[position] = result.index
            elif result.outcome is SampleOutcome.ZERO:
                statuses[position] = SAMPLE_ZERO
            else:
                statuses[position] = SAMPLE_FAIL
        return roots, statuses, indices

    return batch


def vectorized_spanning_forest(
    num_nodes: int,
    num_rounds: int,
    encoder: EdgeEncoder,
    batch_cut_sampler: BatchCutSampler,
    strict: bool = False,
) -> tuple[SpanningForest, BoruvkaStats]:
    """Run Boruvka's algorithm one whole round at a time.

    The array twin of :func:`sketch_spanning_forest`: component
    membership is an int64 label per node (no Python member lists, no
    O(n) concatenation per merge), every active component's cut is
    sampled by **one** ``batch_cut_sampler`` call per round, sampled
    indices are validated and decoded with vectorised
    :class:`EdgeEncoder` expressions, and the DSU is touched only for
    the at-most ``n - 1`` actual merges.  Output -- forest, stats, and
    the per-component samples behind them -- is bit-identical to the
    scalar driver under the same sketches: the scalar loop visits
    surviving components in ascending root order (dict insertion
    order), which is exactly the sorted-label order the batched
    samplers return.
    """
    # The union-find runs inline on plain lists (roughly half the cost
    # of going through DSU method calls in the merge loop); the finished
    # state is handed to the forest via DisjointSetUnion.from_arrays.
    # Skipping find()'s path compression here is semantically
    # transparent: union-by-size decisions depend only on roots and
    # sizes, and union by size keeps the trees logarithmically shallow.
    parent = list(range(num_nodes))
    size = [1] * num_nodes
    num_components = num_nodes
    labels = np.arange(num_nodes, dtype=np.int64)
    # settled[r] for a current component root r: its cut has been
    # observed empty, so it is skipped until (and unless) another
    # component's sampled edge merges into it.
    settled = np.zeros(num_nodes, dtype=bool)
    forest_edges: List[Edge] = []
    stats = BoruvkaStats()

    found_edge = True
    round_index = 0
    while found_edge and num_components > 1:
        if round_index >= num_rounds:
            if strict:
                raise ConnectivityError(
                    f"Boruvka did not converge within {num_rounds} rounds "
                    f"({num_components} components remain)"
                )
            forest = SpanningForest.from_prevalidated(
                num_nodes,
                forest_edges,
                DisjointSetUnion.from_arrays(parent, size, num_components),
                complete=False,
            )
            return forest, stats

        found_edge = False
        stats.rounds_used = round_index + 1
        registry = default_registry()
        if registry.enabled:
            registry.counter("query.rounds").inc()
        with span("query.round"):
            active = ~settled[labels]
            roots, statuses, indices = batch_cut_sampler(round_index, labels, active)
            stats.component_queries += int(roots.size)

            zero_mask = statuses == SAMPLE_ZERO
            settled[roots[zero_mask]] = True
            stats.zero_samples += int(np.count_nonzero(zero_mask))
            failures_this_round = int(np.count_nonzero(statuses == SAMPLE_FAIL))
            stats.failed_samples += failures_this_round

            good_mask = statuses == SAMPLE_GOOD
            stats.good_samples += int(np.count_nonzero(good_mask))
            good_indices = indices[good_mask]
            valid = encoder.valid_index_mask(good_indices)
            # Corrupted buckets that slipped past their checksums; ignore them.
            stats.invalid_samples += int(good_indices.size - np.count_nonzero(valid))
            good_indices = good_indices[valid]
            # Sampled edges the scalar merge loop would skip without touching
            # anything are dropped vectorised before the Python loop: an edge
            # inside one pre-round component (its endpoints' roots already
            # match), and re-occurrences of an edge two components sampled
            # from both sides (the first union makes the second a no-op, and
            # if the first is skipped so is the second).
            sampled_u, sampled_v = encoder.decode_endpoints(good_indices)
            crossing = labels[sampled_u] != labels[sampled_v]
            good_indices = good_indices[crossing]
            _, first_occurrence = np.unique(good_indices, return_index=True)
            keep = np.sort(first_occurrence)
            sampled_u = sampled_u[crossing][keep]
            sampled_v = sampled_v[crossing][keep]

            with span("query.unionfind"):
                merges_this_round = 0
                changed_roots: List[int] = []
                for u, v in zip(sampled_u.tolist(), sampled_v.tolist()):
                    root_u = u
                    while parent[root_u] != root_u:
                        root_u = parent[root_u]
                    root_v = v
                    while parent[root_v] != root_v:
                        root_v = parent[root_v]
                    if root_u == root_v:
                        continue
                    if size[root_u] < size[root_v]:
                        root_u, root_v = root_v, root_u
                    parent[root_v] = root_u
                    size[root_u] += size[root_v]
                    num_components -= 1
                    settled[root_u] = False
                    settled[root_v] = False
                    changed_roots.append(root_u)
                    changed_roots.append(root_v)
                    # Valid slots decode to canonical u < v, so the edge is
                    # already in forest orientation.
                    forest_edges.append((u, v))
                    merges_this_round += 1
                    found_edge = True

                if merges_this_round > num_nodes // 64:
                    # Mass-merge round: re-derive every node's root in a few
                    # whole-array gathers by chasing the parent array to its
                    # fixed point (union by size keeps the trees a handful of
                    # levels deep).
                    parent_array = np.asarray(parent, dtype=np.int64)
                    labels = parent_array[labels]
                    chased = parent_array[labels]
                    while not np.array_equal(chased, labels):
                        labels = chased
                        chased = parent_array[labels]
                elif merges_this_round:
                    # Few merges: patch only the roots that took part in a
                    # union instead of converting the whole parent list.
                    relabel = np.arange(num_nodes, dtype=np.int64)
                    for old_root in changed_roots:
                        new_root = old_root
                        while parent[new_root] != new_root:
                            new_root = parent[new_root]
                        relabel[old_root] = new_root
                    labels = relabel[labels]

        stats.merges += merges_this_round
        stats.per_round_merges.append(merges_this_round)
        # A failed sample says nothing about the cut being empty; as long as
        # unused rounds (with fresh, independent sketches) remain, retry the
        # unresolved components there instead of declaring convergence.
        if failures_this_round and not found_edge:
            found_edge = True
        round_index += 1

    forest = SpanningForest.from_prevalidated(
        num_nodes,
        forest_edges,
        DisjointSetUnion.from_arrays(parent, size, num_components),
        complete=True,
    )
    return forest, stats
