"""Update buffering: work queue, leaf-only gutters, and the gutter tree.

GraphZeppelin never applies a stream update to a node sketch
immediately.  Updates are collected per destination node and applied in
batches, which (a) amortises the cost of bringing a node sketch into
cache or RAM, and (b) produces independent units of work that Graph
Workers can process in parallel (Sections 4 and 5.1 of the paper).

Two buffering structures are provided, matching the paper:

* :class:`repro.buffering.leaf_gutters.LeafGutters` -- one gutter per
  node-group page, used when RAM is plentiful (``M > V * B``),
* :class:`repro.buffering.gutter_tree.GutterTree` -- a simplified
  buffer tree whose leaves are the gutters, used when even the gutters
  do not fit in RAM; parent-to-child flushes are charged to the
  simulated block device.

Both are keyed by node-group page and emit
:class:`repro.buffering.base.PageBatch` mixed-node columns that the
engine folds into its tensor pool one page at a time.
"""

from repro.buffering.base import Batch, BufferingSystem
from repro.buffering.gutter_tree import GutterTree
from repro.buffering.leaf_gutters import LeafGutters
from repro.buffering.work_queue import WorkQueue

__all__ = ["Batch", "BufferingSystem", "GutterTree", "LeafGutters", "WorkQueue"]
