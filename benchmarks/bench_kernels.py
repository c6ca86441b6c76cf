"""Native-kernel micro-benchmark: each compiled kernel vs its numpy twin.

The repo's performance ledger for the ``kernel_backend`` plane: the
three hot kernels -- the ingest fold, the whole-round segmented
XOR-reduce, and the batched bucket decode -- are timed head-to-head
against the numpy kernels on the same inputs, asserting bit-identity
and the ISSUE's >= 3x per-kernel speedup floor at full scale.  Two
end-to-end rows (serial ``ingest_batch``, whole-round spanning-forest
query) record what the fused kernels buy at the engine level.

Results land in ``BENCH_kernels.json`` next to the other ledgers; the
``kernel_backend`` field records which provider (``cc``) produced the
numbers.  The whole module skips when no native provider is usable
(the numpy-only environment has nothing to measure).

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the workload
and drops the speedup floor to >1x -- tiny inputs under-amortise the
per-call dispatch overhead and shared CI runners add timing noise.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import print_table

from repro.analysis.tables import render_table
from repro.core.config import GraphZeppelinConfig
from repro.core.graph_zeppelin import GraphZeppelin
from repro.kernels import native_kernels, native_unavailable_reason
from repro.sketch.flat_node_sketch import decode_column_batch, segmented_xor
from repro.sketch.tensor_pool import NodeTensorPool

NATIVE = native_kernels()

pytestmark = pytest.mark.skipif(
    NATIVE is None,
    reason=f"no native kernel provider usable ({native_unavailable_reason()})",
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_NODES = 2_000 if SMOKE else 20_000
NUM_UPDATES = 20_000 if SMOKE else 400_000
NUM_SEGMENTS = 100 if SMOKE else 600
DECODE_COMPONENTS = 2_000 if SMOKE else 20_000
REPEATS = 2 if SMOKE else 5
#: Per-kernel acceptance floor (ISSUE: >= 3x at full scale).  The
#: whole-round query reduce's floor is carried by its kernel row
#: (``segmented XOR-reduce``), the ingest floor by both fold rows.
MIN_KERNEL_SPEEDUP = 1.0 if SMOKE else 3.0
#: End-to-end serial-ingest floor: the fold dominates ingest, so the
#: 3x survives Amdahl at the engine level.
MIN_E2E_INGEST_SPEEDUP = 1.0 if SMOKE else 3.0
#: End-to-end query floor: informational -- the Boruvka merge loop,
#: relabeling, and encoder validation are Python/numpy work outside
#: the kernels, so the engine-level query gain is Amdahl-bound well
#: below the reduce kernel's own speedup (the ledger records both).
MIN_E2E_QUERY_SPEEDUP = 1.0 if SMOKE else 1.2

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _time(run, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


def _row(kernel: str, numpy_seconds: float, native_seconds: float,
         identical: bool, floor: float) -> dict:
    speedup = numpy_seconds / native_seconds
    assert identical, f"{kernel}: native result differs from numpy"
    assert speedup >= floor, (
        f"{kernel}: native only {speedup:.2f}x over numpy (need >= {floor}x)"
    )
    return {
        "kernel": kernel,
        "numpy_seconds": round(numpy_seconds, 5),
        "native_seconds": round(native_seconds, 5),
        "bit_identical": identical,
        "speedup": round(speedup, 2),
    }


def _random_edges(num_nodes: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, count)
    v = rng.integers(0, num_nodes, count)
    keep = u != v
    return np.stack([u[keep], v[keep]], axis=1).astype(np.int64)


def test_kernel_ledger():
    rng = np.random.default_rng(7)
    engine = GraphZeppelin(NUM_NODES, GraphZeppelinConfig(seed=42))
    encoder = engine.encoder
    rows = []

    # --- ingest fold (packed and wide bucket modes) -------------------
    dsts = np.sort(rng.integers(0, NUM_NODES, NUM_UPDATES)).astype(np.int64)
    indices = rng.integers(0, encoder.vector_length, NUM_UPDATES, dtype=np.uint64)
    for mode, force_wide in (("packed", False), ("wide", True)):
        pools = {}

        def fold(kernels=None, _wide=force_wide, _store=pools):
            pool = NodeTensorPool(
                NUM_NODES, encoder, graph_seed=42, force_wide=_wide, kernels=kernels
            )
            pool.apply_updates(dsts, indices)
            _store["native" if kernels else "numpy"] = pool

        t_numpy = _time(lambda: fold())
        t_native = _time(lambda: fold(NATIVE))
        ref_a, ref_g = pools["numpy"].raw_tensors()
        got_a, got_g = pools["native"].raw_tensors()
        identical = np.array_equal(ref_a, got_a) and np.array_equal(
            np.asarray(ref_g, dtype=np.uint64), np.asarray(got_g, dtype=np.uint64)
        )
        rows.append(
            _row(f"ingest fold ({mode})", t_numpy, t_native, identical,
                 MIN_KERNEL_SPEEDUP)
        )

    # --- whole-round segmented XOR-reduce -----------------------------
    pool = NodeTensorPool(NUM_NODES, encoder, graph_seed=42)
    pool.apply_updates(dsts, indices)
    labels = rng.integers(0, NUM_SEGMENTS, NUM_NODES)
    order = np.argsort(labels, kind="stable")
    nodes = order.astype(np.int64)
    seg_starts = np.flatnonzero(
        np.r_[True, np.diff(labels[order]) != 0]
    ).astype(np.int64)
    key = "packed" if pool._packed else "alpha"
    slab = pool._round_view(key, 0)
    cols, bucket_rows = pool.num_columns, pool.num_rows
    width = cols * bucket_rows

    expected = segmented_xor(
        slab[nodes, 0:cols].reshape(nodes.size, width), seg_starts
    )
    got = NATIVE.segment_xor(slab, nodes, seg_starts, 0, cols, bucket_rows)
    t_numpy = _time(
        lambda: segmented_xor(
            slab[nodes, 0:cols].reshape(nodes.size, width), seg_starts
        )
    )
    t_native = _time(
        lambda: NATIVE.segment_xor(slab, nodes, seg_starts, 0, cols, bucket_rows)
    )
    rows.append(
        _row("segmented XOR-reduce", t_numpy, t_native,
             np.array_equal(expected, got), MIN_KERNEL_SPEEDUP)
    )

    # --- batched bucket decode ----------------------------------------
    alpha = rng.integers(
        0, encoder.vector_length, (DECODE_COMPONENTS, bucket_rows), dtype=np.uint64
    )
    gamma = rng.integers(0, 1 << 32, (DECODE_COMPONENTS, bucket_rows), dtype=np.uint64)
    mixed_seed = pool._mixed_checksum[0]
    from repro.hashing.mixers import finalise_hash64_inplace

    planted = alpha[::3, 1].copy()
    gamma[::3, 1] = finalise_hash64_inplace(planted ^ mixed_seed) & np.uint64(
        0xFFFFFFFF
    )
    alpha[::5] = 0
    gamma[::5] = 0
    expected = decode_column_batch(alpha, gamma, encoder.vector_length, mixed_seed)
    got = NATIVE.decode_column(alpha, gamma, encoder.vector_length, mixed_seed)
    t_numpy = _time(
        lambda: decode_column_batch(alpha, gamma, encoder.vector_length, mixed_seed)
    )
    t_native = _time(
        lambda: NATIVE.decode_column(alpha, gamma, encoder.vector_length, mixed_seed)
    )
    rows.append(
        _row("bucket decode", t_numpy, t_native,
             all(np.array_equal(e, g) for e, g in zip(expected, got)),
             MIN_KERNEL_SPEEDUP)
    )

    # --- end to end: serial ingest and whole-round query --------------
    edges = _random_edges(NUM_NODES, NUM_UPDATES // 4, seed=5)
    engines = {}

    def e2e_ingest(backend):
        eng = GraphZeppelin(
            NUM_NODES, GraphZeppelinConfig(seed=42, kernel_backend=backend)
        )
        eng.ingest_batch(edges)
        engines[backend] = eng

    t_numpy = _time(lambda: e2e_ingest("numpy"), repeats=max(REPEATS - 2, 1))
    t_native = _time(lambda: e2e_ingest("native"), repeats=max(REPEATS - 2, 1))
    ref_a, ref_g = engines["numpy"].tensor_pool.raw_tensors()
    got_a, got_g = engines["native"].tensor_pool.raw_tensors()
    identical = np.array_equal(ref_a, got_a) and np.array_equal(
        np.asarray(ref_g, dtype=np.uint64), np.asarray(got_g, dtype=np.uint64)
    )
    rows.append(
        _row("end-to-end serial ingest", t_numpy, t_native, identical,
             MIN_E2E_INGEST_SPEEDUP)
    )

    forests = {}

    def e2e_query(backend):
        eng = engines[backend]
        eng._cached_forest = None
        forests[backend] = eng.list_spanning_forest()

    t_numpy = _time(lambda: e2e_query("numpy"))
    t_native = _time(lambda: e2e_query("native"))
    identical = (
        forests["numpy"].partition_signature()
        == forests["native"].partition_signature()
    ) and sorted(forests["numpy"].edges) == sorted(forests["native"].edges)
    rows.append(
        _row("end-to-end whole-round query", t_numpy, t_native, identical,
             MIN_E2E_QUERY_SPEEDUP)
    )

    print_table(
        render_table(
            rows,
            title=(
                f"Native kernels vs numpy ({NATIVE.name} provider, "
                f"{NUM_NODES} nodes, {NUM_UPDATES} updates"
                f"{', smoke' if SMOKE else ''})"
            ),
        )
    )

    payload = {
        "kernel_backend": NATIVE.name,
        "num_nodes": NUM_NODES,
        "num_updates": NUM_UPDATES,
        "smoke": SMOKE,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
