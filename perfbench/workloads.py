"""The benchmark's workloads and the closed-loop pass that drives them.

One *pass* builds a fresh engine, replays a whole generated stream
through it in fixed-size batches, and asks for a spanning forest at
fixed stream positions.  The loop is closed with one client: the next
``ingest_batch`` / ``flush`` / ``list_spanning_forest`` call is made
only after the previous one returned.  Every configuration field is
pinned here, so a later change of the engine's defaults moves no
workload.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.stream import Expected, Stream, check_forest, make_stream, oracle


@dataclass(frozen=True)
class Workload:
    """One named stream plus the engine configuration that ingests it."""

    name: str
    num_nodes: int
    num_components: int
    extra_edges: int
    churn_edges: int
    batch_edges: int
    #: Mid-stream query points; ``None`` queries after every batch.
    mid_queries: Optional[int]
    kernel_backend: str
    #: Shard workers of a ``ShardedIngestor``; 0 ingests serially.
    workers: int
    #: RAM budget as a fraction of ``sketch_bytes()``; ``None`` is in-RAM.
    ram_fraction: Optional[float]

    def stream(self, seed: int) -> Stream:
        return make_stream(
            self.num_nodes, self.num_components, self.extra_edges, self.churn_edges, seed
        )

    def query_positions(self, length: int) -> List[int]:
        """Stream prefix lengths after which the engine is queried."""
        ends = list(range(self.batch_edges, length, self.batch_edges)) + [length]
        if self.mid_queries is None:
            return ends
        mid = ends[:-1]
        picks = np.linspace(0, len(mid), self.mid_queries + 2)[1:-1].astype(int)
        return sorted({mid[min(i, len(mid) - 1)] for i in picks} | {length})


#: Why each workload exists, and which layers it stresses or bypasses, is
#: recorded in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk-ingest",
            num_nodes=10_000,
            num_components=40,
            extra_edges=57_000,
            churn_edges=25_000,
            batch_edges=20_000,
            mid_queries=None,
            kernel_backend="numpy",
            workers=0,
            ram_fraction=None,
        ),
        Workload(
            name="live-queries",
            num_nodes=20_000,
            num_components=40,
            extra_edges=58_500,
            churn_edges=25_000,
            batch_edges=2_000,
            mid_queries=None,
            kernel_backend="native",
            workers=2,
            ram_fraction=None,
        ),
        Workload(
            name="out-of-core",
            num_nodes=2_000,
            num_components=40,
            extra_edges=11_400,
            churn_edges=5_000,
            batch_edges=4_000,
            mid_queries=None,
            kernel_backend="native",
            workers=0,
            ram_fraction=1 / 8,
        ),
    )
}


def engine_config(workload: Workload, seed: int):
    """The pinned :class:`GraphZeppelinConfig` of a workload."""
    from repro.core.config import BufferingMode, GraphZeppelinConfig
    from repro.sketch.sizes import node_sketch_size_bytes

    budget = None
    if workload.ram_fraction is not None:
        sketch_bytes = node_sketch_size_bytes(workload.num_nodes, 0.01) * workload.num_nodes
        budget = int(sketch_bytes * workload.ram_fraction)
    return GraphZeppelinConfig(
        delta=0.01,
        buffering=BufferingMode.LEAF_GUTTERS,
        gutter_fraction=0.5,
        ram_budget_bytes=budget,
        out_of_core_pool="paged",
        nodes_per_page=None,
        num_workers=max(workload.workers, 1),
        parallel_backend="threads",
        num_shards=None,
        validate_stream=False,
        strict_queries=False,
        seed=seed,
        sketch_backend="flat",
        query_backend="vectorized",
        kernel_backend=workload.kernel_backend,
        io_retry_attempts=1,
        io_deadline_seconds=None,
        io_breaker_threshold=None,
    )


def build_engine(workload: Workload, config):
    """Construct the engine (and start its ingestor): what ``setup_s`` times."""
    from repro.core.graph_zeppelin import GraphZeppelin
    from repro.parallel.graph_workers import ShardedIngestor

    engine = GraphZeppelin(workload.num_nodes, config)
    ingestor = None
    if workload.workers:
        ingestor = ShardedIngestor(engine, num_workers=workload.workers, backend="threads")
        ingestor.start()
    return engine, ingestor


def budget_violation(engine) -> str:
    """Why an out-of-core engine is over its RAM budget, or ``""``."""
    memory = engine.memory
    if memory is None or memory.is_unbounded:
        return ""
    held = memory.cached_bytes + memory.reserved_bytes
    if held > memory.ram_bytes:
        return f"cached+reserved {held} B over the {memory.ram_bytes} B budget"
    pool = engine.tensor_pool
    if pool.resident_page_count() > pool.resident_pages:
        return f"{pool.resident_page_count()} pages resident, budget {pool.resident_pages}"
    return ""


@dataclass
class PassResult:
    """What one pass measured and checked."""

    ingest_s: float = 0.0
    wall_s: float = 0.0
    updates: int = 0
    query_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: ``(rounds_used, merges, component_queries, good, failed+invalid)``
    #: of every query's ``last_query_stats``.
    query_stats: List[Tuple[int, int, int, int, int]] = field(default_factory=list)
    io: Dict[str, float] = field(default_factory=dict)
    page: Dict[str, int] = field(default_factory=dict)
    kernel_backend: str = ""


class _Ops:
    """Counts operations and records failures of one pass."""

    def __init__(self, result: PassResult) -> None:
        self.result = result

    def run(self, label: str, call: Callable[[], object]):
        """Call ``call``; returns ``(value, seconds)``, value ``None`` on failure."""
        self.result.attempted += 1
        start = perf_counter()
        try:
            value = call()
        except Exception as exc:  # every failure is counted, none is fatal
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None, perf_counter() - start
        return value, perf_counter() - start

    def fail(self, problem: str) -> None:
        self.result.failed += 1
        if len(self.result.problems) < 8:
            self.result.problems.append(problem)


def run_pass(
    workload: Workload,
    stream: Stream,
    expected: Dict[int, Expected],
    seed: int,
) -> PassResult:
    """Replay ``stream`` through a fresh engine; check every answer."""
    config = engine_config(workload, seed)
    result = PassResult()
    ops = _Ops(result)
    gc.collect()
    engine, ingestor = build_engine(workload, config)
    result.kernel_backend = engine.resolved_kernel_backend
    sink = ingestor if ingestor is not None else engine

    def call(label: str, fn: Callable[[], object]):
        value, seconds = ops.run(label, fn)
        problem = budget_violation(engine)
        if problem:
            ops.fail(f"RAM budget after {label}: {problem}")
        return value, seconds

    unchecked = 0.0
    try:
        wall_start = perf_counter()
        for begin in range(0, len(stream), workload.batch_edges):
            batch = stream.updates[begin : begin + workload.batch_edges]
            _, seconds = call("ingest_batch", lambda: sink.ingest_batch(batch))
            result.ingest_s += seconds
            position = begin + batch.shape[0]
            if position not in expected:
                continue
            _, seconds = call("flush", engine.flush)
            result.ingest_s += seconds
            forest, seconds = call("query", engine.list_spanning_forest)
            result.query_ms.append(seconds * 1e3)
            if forest is None:
                continue
            check_start = perf_counter()
            edges = np.asarray(forest.edges, dtype=np.int64).reshape(-1, 2)
            problem = check_forest(expected[position], workload.num_nodes, edges, forest.complete)
            if problem:
                ops.fail(f"query at {position}: {problem}")
            digest = hashlib.sha256(edges.tobytes() + bytes([forest.complete]))
            result.digests.append(digest.hexdigest()[:16])
            stats = engine.last_query_stats
            result.query_stats.append(
                (
                    stats.rounds_used,
                    stats.merges,
                    stats.component_queries,
                    stats.good_samples,
                    stats.failed_samples + stats.invalid_samples,
                )
            )
            unchecked += perf_counter() - check_start
        result.wall_s = perf_counter() - wall_start - unchecked
        result.updates = len(stream)
        if engine.io_stats is not None:
            result.io = engine.io_stats.snapshot()
            result.page = engine.tensor_pool.page_stats()
    finally:
        if ingestor is not None:
            ingestor.finish()
    return result


def time_setup(workload: Workload, seed: int) -> float:
    """Build and discard one engine; returns the construction seconds."""
    config = engine_config(workload, seed)
    gc.collect()
    start = perf_counter()
    engine, ingestor = build_engine(workload, config)
    seconds = perf_counter() - start
    if ingestor is not None:
        ingestor.finish()
    del engine
    return seconds


def prepare(workload: Workload, seed: int) -> Tuple[Stream, Dict[int, Expected]]:
    """Generate the stream and its oracle answers (never timed)."""
    stream = workload.stream(seed)
    positions = workload.query_positions(len(stream))
    return stream, {answer.position: answer for answer in oracle(stream, positions)}
