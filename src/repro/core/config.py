"""Configuration for a GraphZeppelin instance."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError


class BufferingMode(enum.Enum):
    """Which buffering structure the engine uses for stream ingestion."""

    #: Apply every update to the node sketches immediately (no buffering).
    NONE = "none"
    #: One gutter per node, kept in RAM (paper's default when M > V*B).
    LEAF_GUTTERS = "leaf_gutters"
    #: Full gutter tree, for when even the gutters do not fit in RAM.
    GUTTER_TREE = "gutter_tree"


@dataclass
class GraphZeppelinConfig:
    """Tunable parameters of the GraphZeppelin engine.

    Attributes
    ----------
    delta:
        Per-CubeSketch failure probability (paper default 1/100).
    buffering:
        Buffering structure used during ingestion.
    gutter_fraction:
        Leaf gutter capacity as a fraction of the node-sketch size
        (Figure 15 sweeps this value; the paper default is 0.5).
    ram_budget_bytes:
        RAM available for node sketches.  ``None`` keeps everything in
        RAM; a finite budget routes sketches through the hybrid memory
        substrate so the run pays modelled SSD I/O.
    out_of_core_pool:
        Out-of-core sketch store of a RAM-budgeted engine.  Only
        ``"paged"`` is accepted: the
        :class:`~repro.sketch.paged_pool.PagedTensorPool` of node-group
        pages, columnar page folds, and whole-round queries.  The seed
        design's per-node blob store lives on as a benchmark baseline in
        :mod:`repro.baselines.seed_store`.
    nodes_per_page:
        Page granularity of the paged out-of-core pool (nodes per
        node-group page).  ``None`` (default) sizes pages to a whole
        number of device blocks targeting
        :data:`~repro.sketch.paged_pool.DEFAULT_PAGE_TARGET_BLOCKS`.
    num_workers:
        Workers used by the parallel ingestion path (the
        single-threaded engine ignores this except for work-queue sizing).
    parallel_backend:
        Execution backend of the sharded parallel ingest layer:
        ``"threads"`` (default; numpy releases the GIL inside the fold
        kernels, so a thread pool over disjoint shard slabs scales) or
        ``"processes"`` (pool tensors in shared memory, worker
        processes attach by name and fold in place).
    num_shards:
        Node-range count of the sharded parallel ingest layer.  ``None``
        (default) picks the smallest count that keeps every shard inside
        one radix span of the fold kernel
        (:func:`~repro.sketch.tensor_pool.auto_num_shards`), rounded up
        to a multiple of ``num_workers``.
    validate_stream:
        When true, the engine tracks the exact current edge set and
        rejects illegal updates (inserting a present edge / deleting an
        absent one).  Costs O(E) memory, so it is off by default and
        meant for tests and small streams.
    strict_queries:
        When true, a connectivity query that exhausts its Boruvka rounds
        raises :class:`~repro.exceptions.ConnectivityError`; otherwise
        the partial forest is returned with ``complete=False``.
    seed:
        Root seed from which every hash function is derived.
    sketch_backend:
        Sketch storage layout.  Only ``"flat"`` is accepted: node
        sketches live in contiguous tensors -- one
        :class:`~repro.sketch.tensor_pool.NodeTensorPool` for the whole
        graph in RAM, or a
        :class:`~repro.sketch.paged_pool.PagedTensorPool` under a RAM
        budget.
    io_retry_attempts:
        Total tries for each hybrid-memory device read/write before the
        ``OSError`` surfaces (1 = no retry, the default).  Transient
        device failures -- the kind the fault-injection tests replay --
        are absorbed by retries; persistent ones still raise.
    io_retry_backoff_seconds:
        Base backoff between device-call retries (doubles per retry).
    io_deadline_seconds:
        Per-operation deadline on hybrid-memory device calls: a call
        that runs longer is turned into a
        :class:`~repro.exceptions.DeadlineExceededError` (a
        ``TimeoutError``, hence retried like any transient ``OSError``).
        ``None`` (default) disables the deadline.
    io_breaker_threshold:
        Consecutive *exhausted* device operations (whole retry budget
        failed) after which the engine's circuit breaker opens and
        device calls are rejected with
        :class:`~repro.exceptions.CircuitOpenError` instead of burning
        retries against a dead device.  ``None`` (default) disables the
        breaker.
    io_breaker_reset_seconds:
        How long an open breaker rejects before admitting a half-open
        probe call.
    query_backend:
        Query driver.  Only ``"vectorized"`` is accepted: the
        whole-round Boruvka driver (one segmented XOR-reduce plus one
        batched bucket decode per round).  The per-component reference
        driver stays available as
        :func:`~repro.core.boruvka.sketch_spanning_forest`.
    kernel_backend:
        Which implementation of the three hot kernels (ingest fold,
        whole-round segmented XOR, batched bucket decode) the engine
        runs: ``"numpy"`` (default) uses the pure-numpy kernels,
        ``"native"`` requires the compiled provider (a C library built
        at first use with the host toolchain) and raises when it is not
        usable, ``"auto"`` prefers a compiled
        provider and falls back to numpy silently.  Every provider is
        property-tested bit-identical to numpy under the same seed, so
        this field deliberately stays **out** of
        :meth:`sketch_fingerprint` -- snapshots interchange freely
        across kernel backends.
    """

    delta: float = 0.01
    buffering: BufferingMode = BufferingMode.LEAF_GUTTERS
    gutter_fraction: float = 0.5
    ram_budget_bytes: Optional[int] = None
    out_of_core_pool: str = "paged"
    nodes_per_page: Optional[int] = None
    num_workers: int = 1
    parallel_backend: str = "threads"
    num_shards: Optional[int] = None
    validate_stream: bool = False
    strict_queries: bool = False
    seed: int = 0
    sketch_backend: str = "flat"
    query_backend: str = "vectorized"
    kernel_backend: str = "numpy"
    io_retry_attempts: int = 1
    io_retry_backoff_seconds: float = 0.01
    io_deadline_seconds: Optional[float] = None
    io_breaker_threshold: Optional[int] = None
    io_breaker_reset_seconds: float = 0.25

    def __post_init__(self) -> None:
        if isinstance(self.buffering, str):
            try:
                self.buffering = BufferingMode(self.buffering)
            except ValueError:
                raise ConfigurationError(
                    f"unknown buffering mode {self.buffering!r} (use one of "
                    f"{[mode.value for mode in BufferingMode]})"
                ) from None
        elif not isinstance(self.buffering, BufferingMode):
            raise ConfigurationError(f"unknown buffering mode {self.buffering!r}")
        for name in (
            "delta",
            "gutter_fraction",
            "io_retry_backoff_seconds",
            "io_breaker_reset_seconds",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.io_deadline_seconds is not None and not math.isfinite(
            self.io_deadline_seconds
        ):
            raise ConfigurationError("io_deadline_seconds must be finite or None")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must be in (0, 1)")
        for name, only in (
            ("sketch_backend", "flat"),
            ("query_backend", "vectorized"),
            ("out_of_core_pool", "paged"),
        ):
            if getattr(self, name) != only:
                raise ConfigurationError(
                    f"unknown {name} {getattr(self, name)!r} (only {only!r} remains)"
                )
        if self.kernel_backend not in ("numpy", "native", "auto"):
            raise ConfigurationError(
                f"unknown kernel_backend {self.kernel_backend!r} "
                "(use 'numpy', 'native', or 'auto')"
            )
        if self.gutter_fraction <= 0:
            raise ConfigurationError("gutter_fraction must be positive")
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        if self.parallel_backend not in ("threads", "processes"):
            raise ConfigurationError(
                f"unknown parallel_backend {self.parallel_backend!r} "
                "(use 'threads' or 'processes')"
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1 or None")
        if self.ram_budget_bytes is not None and self.ram_budget_bytes < 0:
            raise ConfigurationError("ram_budget_bytes must be non-negative or None")
        if self.nodes_per_page is not None and self.nodes_per_page < 1:
            raise ConfigurationError("nodes_per_page must be at least 1 or None")
        if self.io_retry_attempts < 1:
            raise ConfigurationError("io_retry_attempts must be at least 1")
        if self.io_retry_backoff_seconds < 0:
            raise ConfigurationError("io_retry_backoff_seconds must be non-negative")
        if self.io_deadline_seconds is not None and self.io_deadline_seconds <= 0:
            raise ConfigurationError("io_deadline_seconds must be positive or None")
        if self.io_breaker_threshold is not None and self.io_breaker_threshold < 1:
            raise ConfigurationError("io_breaker_threshold must be at least 1 or None")
        if self.io_breaker_reset_seconds <= 0:
            raise ConfigurationError("io_breaker_reset_seconds must be positive")

    def sketch_fingerprint(self) -> int:
        """A 64-bit digest of every field that shapes sketch *state*.

        Two engines whose configs share this fingerprint build
        bit-identical sketch state from the same update stream: the
        hash functions (``seed``), the geometry (``delta``), and the
        bucket layout family (always ``"flat"``) all enter the digest,
        while fields that only change *how* the state is computed
        (buffering, RAM budget, workers, page size) deliberately do
        not -- a snapshot written by an in-RAM engine must load into an
        out-of-core one.  Snapshots store the fingerprint and refuse to
        load under a config that would silently misinterpret the
        buckets.
        """
        from repro.hashing.xxhash64 import xxhash64

        # The seed enters masked to 64 bits: hash derivation is
        # mod-2^64 invariant (property-checked in the snapshot tests)
        # and snapshot headers store the masked seed, so a checkpoint
        # written under seed=-1 must fingerprint-match the config
        # rebuilt from its header.
        masked_seed = self.seed & 0xFFFFFFFFFFFFFFFF
        # The layout tag stays in the digest so snapshots written when
        # the engine had more than one layout keep loading.
        blob = f"{self.delta!r}|{masked_seed}|flat".encode("ascii")
        return xxhash64(blob, seed=0x5A45_5050)

    @classmethod
    def in_memory(cls, **overrides) -> "GraphZeppelinConfig":
        """Everything-in-RAM configuration (the Figure 13 setting)."""
        return cls(**overrides)

    @classmethod
    def out_of_core(
        cls, ram_budget_bytes: int, use_gutter_tree: bool = False, **overrides
    ) -> "GraphZeppelinConfig":
        """A configuration with a RAM budget, spilling sketches to SSD."""
        buffering = BufferingMode.GUTTER_TREE if use_gutter_tree else BufferingMode.LEAF_GUTTERS
        return cls(ram_budget_bytes=ram_budget_bytes, buffering=buffering, **overrides)

    @classmethod
    def unbuffered(cls, **overrides) -> "GraphZeppelinConfig":
        """No buffering at all (the f = "1 update" point of Figure 15)."""
        return cls(buffering=BufferingMode.NONE, **overrides)
