"""Layer spans recorded from outside the engine.

:class:`Tracer` wraps the public entry points of each layer (the
engine, the tensor pools, the sharded ingestor, the leaf gutters, the
hybrid memory, and the native kernel provider) with a timing shim that
records ``(name, start, end, thread, parent)`` and calls straight
through.  Nothing inside ``src/`` changes: the wrappers are installed
on the classes and modules for a traced pass and removed after it, so
timed passes run the unmodified code.

A span's *self* time is its duration minus the time its child spans on
the same thread cover.  Shard folds run on worker threads, so they are
not children of the coordinator's ``parallel.ingest_batch`` span; the
coordinator's barrier wait is measured against them by time overlap.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import defaultdict
from statistics import mean
from time import perf_counter
from typing import Callable, Dict, List

# Span record fields (records are lists so the shim can fill in the end).
NAME, START, END, TID, PARENT, UNITS, EXTRA = range(7)


def _arg_len(position: int, keyword: str, factor: int = 1) -> Callable:
    """Work units: ``factor`` times the length of argument ``position``
    (counting after ``self``), or of ``keyword`` when passed by name."""

    def units(args, kwargs, result):
        arg = args[position + 1] if len(args) > position + 1 else kwargs[keyword]
        return factor * len(arg)

    return units


def _emitted(args, kwargs, result):
    return len(result), sum(len(batch) for batch in result)


_ENGINE = "repro.core.graph_zeppelin:GraphZeppelin"
_POOL = "repro.sketch.tensor_pool:NodeTensorPool"
_PAGED = "repro.sketch.paged_pool:PagedTensorPool"
_SHARDED = "repro.parallel.graph_workers:ShardedIngestor"
_GUTTERS = "repro.buffering.leaf_gutters:LeafGutters"
_MEMORY = "repro.memory.hybrid:HybridMemory"
_FOLD_UNITS = {
    "apply_edges": _arg_len(2, "indices", factor=2),  # mirrored: two updates per edge
    "apply_updates": _arg_len(0, "dsts"),
    "fold_shard": _arg_len(0, "dsts"),
    "fold_shard_hashed": _arg_len(0, "dsts"),
    "fold_page_batch": _arg_len(2, "dsts"),
}

#: (module or class path, attribute, span name, units function or None).
#: ``units`` returns the work count of one call, or a ``(units, extra)``
#: pair; fold spans count edge updates, buffering spans count batches.
LAYER_ENTRY_POINTS = (
    (_ENGINE, "ingest_batch", "core.ingest_batch", None),
    (_ENGINE, "flush", "core.flush", None),
    (_ENGINE, "list_spanning_forest", "core.query", None),
    ("repro.core.graph_zeppelin", "vectorized_spanning_forest", "core.boruvka", None),
    ("repro.sketch.flat_node_sketch", "hash_depths_checksums", "hashing", None),
    ("repro.sketch.tensor_pool", "hash_depths_checksums", "hashing", None),
    ("repro.sketch.paged_pool", "hash_depths_checksums", "hashing", None),
    ("repro.parallel.graph_workers", "hash_depths_checksums", "hashing", None),
    *((_POOL, attr, "sketch.fold", units) for attr, units in _FOLD_UNITS.items()),
    *(
        (_PAGED, attr, "sketch.fold", _FOLD_UNITS[attr])
        for attr in ("apply_edges", "apply_updates", "fold_shard", "fold_shard_hashed")
    ),
    (_POOL, "query_components", "sketch.query_components", None),
    (_SHARDED, "ingest_batch", "parallel.ingest_batch", None),
    (_GUTTERS, "insert_batch", "buffering.insert_batch", _emitted),
    (_GUTTERS, "flush_all", "buffering.flush_all", _emitted),
    (_MEMORY, "load", "memory.load", None),
    (_MEMORY, "load_range", "memory.load", None),
    (_MEMORY, "store", "memory.store", None),
)

#: Native kernel provider methods, wrapped on the resolved provider's class.
KERNEL_ENTRY_POINTS = (
    ("fold_pool", "kernels.fold"),
    ("fold_pool_edges", "kernels.fold"),
    ("fold_page", "kernels.fold"),
    ("fold_bundle", "kernels.fold"),
    ("segment_xor", "kernels.reduce"),
    ("decode_column", "kernels.decode"),
)


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records layer spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: Largest ``cached + reserved`` bytes seen after any memory call.
        self.peak_held_bytes = 0
        #: Memory calls after which the RAM budget was exceeded.
        self.budget_breaches = 0

    # ------------------------------------------------------------------
    def install(self, provider=None) -> None:
        """Wrap every layer entry point (and ``provider``'s kernels)."""
        for path, attr, name, units in LAYER_ENTRY_POINTS:
            owner = _resolve(path)
            after = self._check_memory if name.startswith("memory.") else None
            self._wrap(owner, attr, name, units, after)
        if provider is not None:
            for attr, name in KERNEL_ENTRY_POINTS:
                if attr in type(provider).__dict__:
                    self._wrap(type(provider), attr, name, None, None)

    def remove(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _check_memory(self, memory) -> None:
        held = memory.cached_bytes + memory.reserved_bytes
        self.peak_held_bytes = max(self.peak_held_bytes, held)
        if memory.ram_bytes is not None and held > memory.ram_bytes:
            self.budget_breaches += 1

    def _wrap(self, owner, attr, name, units, after) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A fold entry point that delegates to another (fold_page_batch
            # -> fold_shard, a subclass -> its base) is one fold, not two.
            if any(record[NAME] == name for record in stack):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, threading.get_ident(), parent, 0, 0]
            stack.append(record)
            record[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                tracer.spans.append(record)
            if units is not None:
                work = units(args, kwargs, result)
                if isinstance(work, tuple):
                    record[UNITS], record[EXTRA] = work
                else:
                    record[UNITS] = work
            if after is not None:
                after(args[0])
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _duration(record) -> float:
    return record[END] - record[START]


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_table(spans: List[list], main_tid: int) -> Dict[str, Dict[str, float]]:
    """Per span name: count, busy, self and wait seconds, plus work units.

    ``busy`` sums durations; ``self`` subtracts same-thread child spans
    and, for the sharded coordinator, the time its barrier overlapped
    worker folds, which is reported as ``wait`` instead.
    """
    covered: Dict[int, float] = defaultdict(float)
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            covered[id(parent)] += _duration(record)
    worker_folds = [
        record for record in spans
        if record[TID] != main_tid and record[PARENT] is None
    ]
    table: Dict[str, Dict[str, float]] = {}
    for record in spans:
        row = table.setdefault(
            record[NAME],
            {"count": 0, "busy_s": 0.0, "self_s": 0.0, "wait_s": 0.0, "units": 0, "extra": 0},
        )
        wait = 0.0
        if record[NAME] == "parallel.ingest_batch":
            wait = _union_length(
                (max(w[START], record[START]), min(w[END], record[END]))
                for w in worker_folds
                if w[START] < record[END] and w[END] > record[START]
            )
        row["count"] += 1
        row["busy_s"] += _duration(record)
        row["self_s"] += _duration(record) - covered[id(record)] - wait
        row["wait_s"] += wait
        row["units"] += record[UNITS]
        row["extra"] += record[EXTRA]
    return table


def shard_balance(spans: List[list], main_tid: int, workers: int) -> Dict[str, float]:
    """Worker utilisation and shard skew of the sharded ingest batches.

    ``shard_skew`` is the slowest shard fold over the mean shard fold of
    a batch, averaged over batches.  ``coordinator_s`` sums, per batch,
    the batch wall time minus the busiest worker's fold time: the part
    of the batch no shard work explains (partitioning, dispatch,
    barrier and publishing).
    """
    batches = [r for r in spans if r[NAME] == "parallel.ingest_batch"]
    folds = [r for r in spans if r[TID] != main_tid and r[PARENT] is None]
    busy = sum(_duration(r) for r in folds)
    wall = sum(_duration(r) for r in batches)
    skews, coordinator = [], 0.0
    for batch in batches:
        inside = [r for r in folds if r[START] >= batch[START] and r[END] <= batch[END]]
        per_worker: Dict[int, float] = defaultdict(float)
        for record in inside:
            per_worker[record[TID]] += _duration(record)
        coordinator += _duration(batch) - max(per_worker.values(), default=0.0)
        if inside:
            durations = [_duration(r) for r in inside]
            skews.append(max(durations) / mean(durations))
    return {
        "worker_busy_frac": busy / (wall * workers) if wall and workers else 0.0,
        "shard_skew": mean(skews) if skews else 0.0,
        "coordinator_s": coordinator,
    }


def top_level_seconds(spans: List[list], main_tid: int) -> float:
    """Wall seconds the main thread spent inside any layer span."""
    return sum(
        _duration(r) for r in spans if r[TID] == main_tid and r[PARENT] is None
    )


def chrome_trace(spans: List[list]) -> dict:
    """Spans as Chrome ``trace_event`` JSON, shaped like the engine's own
    :func:`repro.observability.tracing.chrome_trace` output."""
    base = min((r[START] for r in spans), default=0.0)
    pid = os.getpid()
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": r[NAME],
                "ph": "X",
                "ts": (r[START] - base) * 1e6,
                "dur": _duration(r) * 1e6,
                "pid": pid,
                "tid": r[TID],
            }
            for r in sorted(spans, key=lambda r: r[START])
        ],
    }
