"""Baseline systems used by the evaluation harness.

* :class:`repro.baselines.adjacency_matrix.AdjacencyMatrixGraph` -- an
  exact in-memory bit-matrix graph with Kruskal/BFS connectivity; the
  ground truth of the reliability experiment (Section 6.3).
* :class:`repro.baselines.aspen_like.AspenLike` -- a simplified
  compressed dynamic-graph store with Aspen's batch-update API and
  space profile (~a few bytes per directed edge).
* :class:`repro.baselines.terrace_like.TerraceLike` -- a simplified
  hierarchical per-vertex container with Terrace's space profile
  (inline buffer + sorted overflow levels).
* :class:`repro.baselines.seed_store.SeedStore` -- the seed design's
  per-node sketch store behind per-node gutters; the denominator of
  the ingest and out-of-core benchmark ledgers.
* :mod:`repro.baselines.space_models` -- closed-form space accounting
  for every system, used to reproduce the Figure 11 crossover at the
  paper's full scales without materialising terabyte graphs.

The Aspen-like and Terrace-like classes are *stand-ins* (see DESIGN.md):
they reproduce the comparators' space footprints, batch-oriented APIs
and in-RAM/out-of-core behaviour, not their internal engineering.
"""

from repro.baselines.adjacency_matrix import AdjacencyMatrixGraph
from repro.baselines.aspen_like import AspenLike
from repro.baselines.seed_store import SeedStore
from repro.baselines.space_models import (
    adjacency_list_bytes,
    adjacency_matrix_bytes,
    aspen_bytes,
    graphzeppelin_bytes,
    space_crossover_table,
    terrace_bytes,
)
from repro.baselines.terrace_like import TerraceLike

__all__ = [
    "AdjacencyMatrixGraph",
    "AspenLike",
    "SeedStore",
    "TerraceLike",
    "adjacency_list_bytes",
    "adjacency_matrix_bytes",
    "aspen_bytes",
    "graphzeppelin_bytes",
    "space_crossover_table",
    "terrace_bytes",
]
