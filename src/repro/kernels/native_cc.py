"""The compiled-C native kernel provider (gcc + ctypes, zero dependencies).

This module implements the three hot kernels of the columnar engine --
the ingest fold, the query-side segmented XOR-reduce, and the batched
bucket decode -- as a small C library compiled **at first use** with the
host's C compiler and loaded through :mod:`ctypes`.  It is the provider
of the ``native`` kernel backend, property-tested bit-identical to the
numpy path.

Why compiling beats the numpy kernels:

* **fold**: the numpy fold materialises two ``(K, slots)`` uint64 hash
  matrices, argsorts a composite key, and runs ~15 vectorised passes of
  prefix-scan emission machinery.  The C fold fuses hash, depth
  extraction (a ``ctz`` instruction instead of a float ``log2`` round
  trip), and the bucket XOR into one pass with **no temporaries at
  all** -- each update hashes and scatters straight into the pool
  tensor.  XOR folding is order-independent, so the resulting buckets
  are bit-identical to the argsort + prefix-scan emission path.
* **segmented XOR**: ``np.bitwise_xor.reduceat`` runs a scalar inner
  loop (~5 ns/element), and even the blocked two-level scheme pays a
  gather copy of the reordered rows.  The C kernel fuses the gather and
  the reduce: one pass over the segment's rows, auto-vectorised by the
  compiler, writing only the per-segment sums.
* **decode**: the numpy batched decoder makes ~6 full passes over the
  ``(C, rows)`` bucket arrays building masks before it can hash the
  candidates.  The C decoder scans each component's rows once,
  checksum-hashing only candidate buckets inline.

The calls release the GIL (ctypes ``CDLL`` semantics), which is what
finally lets the sharded thread ingest scale past the numpy kernels'
serialised sections.

The shared library is cached under ``$REPRO_KERNEL_CACHE`` (default: a
``repro-ckernels`` directory in the system temp dir) keyed by a source
hash, so each source revision compiles once per machine; concurrent
builds race benignly through an atomic rename.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

/* Bit-identical C twins of repro.hashing.mixers: splitmix64 followed by
 * the xxHash64 avalanche, over pre-mixed (seed-diffused) keys.  All
 * arithmetic is mod 2^64, exactly like numpy uint64 with overflow
 * ignored. */
static inline uint64_t repro_splitmix64(uint64_t v) {
    v += 0x9E3779B97F4A7C15ULL;
    v ^= v >> 30; v *= 0xBF58476D1CE4E5B9ULL;
    v ^= v >> 27; v *= 0x94D049BB133111EBULL;
    v ^= v >> 31;
    return v;
}

static inline uint64_t repro_avalanche(uint64_t v) {
    v ^= v >> 33; v *= 0xC2B2AE3D27D4EB4FULL;
    v ^= v >> 29; v *= 0x165667B19E3779F9ULL;
    v ^= v >> 32;
    return v;
}

static inline uint64_t repro_finalise(uint64_t key) {
    return repro_avalanche(repro_splitmix64(key));
}

/* depth = 1 + trailing-zero bits of the membership hash, clamped to
 * num_rows; an all-zero hash belongs to every row.  Matches
 * hash_to_depth's log2(lowest set bit) formulation bit for bit. */
static inline int64_t repro_depth(uint64_t h, int64_t num_rows) {
    int64_t t;
    if (h == 0) return num_rows;
    t = (int64_t)__builtin_ctzll(h);
    if (t > num_rows - 1) t = num_rows - 1;
    return t + 1;
}

/* ------------------------------------------------------------------ */
/* Ingest folds: fused hash + depth + XOR scatter, no temporaries.     */
/* Loops run slot-outer so one (round, column) hash seed pair stays in */
/* registers and writes cluster inside one round's slab.  `dsts` may   */
/* be NULL for single-destination (whole-bundle) folds.  Bucket        */
/* (dst, slot, row) lands at flat offset                               */
/*   (dst * dst_stride + slot_offsets[s]) * num_rows + row             */
/* -- the same injective segment mapping the numpy kernel emits.       */
/* ------------------------------------------------------------------ */

#define REPRO_FOLD_LOOP(WRITE)                                              \
    int64_t s, i, r;                                                        \
    for (s = 0; s < num_slots; s++) {                                       \
        const uint64_t mms = mm[s];                                         \
        const uint64_t mcs = mc[s];                                         \
        const int64_t off = slot_offsets[s];                                \
        for (i = 0; i < k; i++) {                                           \
            const uint64_t v = idx[i];                                      \
            const uint64_t g = repro_finalise(v ^ mcs) & 0xFFFFFFFFULL;     \
            const int64_t depth =                                           \
                repro_depth(repro_finalise(v ^ mms), num_rows);             \
            const int64_t seg =                                             \
                (dsts ? dsts[i] * dst_stride : 0) + off;                    \
            WRITE                                                           \
        }                                                                   \
    }

void repro_fold_packed(uint64_t *pool, const uint64_t *idx,
                       const int64_t *dsts, int64_t k, const uint64_t *mm,
                       const uint64_t *mc, int64_t num_slots,
                       int64_t num_rows, int64_t dst_stride,
                       const int64_t *slot_offsets) {
    REPRO_FOLD_LOOP({
        uint64_t *base = pool + seg * num_rows;
        const uint64_t val = (v << 32) | g;
        for (r = 0; r < depth; r++) base[r] ^= val;
    })
}

void repro_fold_wide(uint64_t *alpha, uint32_t *gamma, const uint64_t *idx,
                     const int64_t *dsts, int64_t k, const uint64_t *mm,
                     const uint64_t *mc, int64_t num_slots, int64_t num_rows,
                     int64_t dst_stride, const int64_t *slot_offsets) {
    REPRO_FOLD_LOOP({
        uint64_t *abase = alpha + seg * num_rows;
        uint32_t *gbase = gamma + seg * num_rows;
        const uint32_t g32 = (uint32_t)g;
        for (r = 0; r < depth; r++) { abase[r] ^= v; gbase[r] ^= g32; }
    })
}

void repro_fold_sep64(uint64_t *alpha, uint64_t *gamma, const uint64_t *idx,
                      const int64_t *dsts, int64_t k, const uint64_t *mm,
                      const uint64_t *mc, int64_t num_slots, int64_t num_rows,
                      int64_t dst_stride, const int64_t *slot_offsets) {
    REPRO_FOLD_LOOP({
        uint64_t *abase = alpha + seg * num_rows;
        uint64_t *gbase = gamma + seg * num_rows;
        for (r = 0; r < depth; r++) { abase[r] ^= v; gbase[r] ^= g; }
    })
}

/* Mirrored edge fold: both endpoints' bundles receive every edge slot,
 * and the hashes depend only on the slot -- hash once, scatter twice. */

#define REPRO_EDGE_LOOP(WRITE)                                              \
    int64_t s, i, r, e;                                                     \
    for (s = 0; s < num_slots; s++) {                                       \
        const uint64_t mms = mm[s];                                         \
        const uint64_t mcs = mc[s];                                         \
        const int64_t off = slot_offsets[s];                                \
        for (i = 0; i < k; i++) {                                           \
            const uint64_t v = idx[i];                                      \
            const uint64_t g = repro_finalise(v ^ mcs) & 0xFFFFFFFFULL;     \
            const int64_t depth =                                           \
                repro_depth(repro_finalise(v ^ mms), num_rows);             \
            for (e = 0; e < 2; e++) {                                       \
                const int64_t seg =                                         \
                    (e ? hi[i] : lo[i]) * dst_stride + off;                 \
                WRITE                                                       \
            }                                                               \
        }                                                                   \
    }

void repro_fold_edges_packed(uint64_t *pool, const uint64_t *idx,
                             const int64_t *lo, const int64_t *hi, int64_t k,
                             const uint64_t *mm, const uint64_t *mc,
                             int64_t num_slots, int64_t num_rows,
                             int64_t dst_stride,
                             const int64_t *slot_offsets) {
    REPRO_EDGE_LOOP({
        uint64_t *base = pool + seg * num_rows;
        const uint64_t val = (v << 32) | g;
        for (r = 0; r < depth; r++) base[r] ^= val;
    })
}

void repro_fold_edges_wide(uint64_t *alpha, uint32_t *gamma,
                           const uint64_t *idx, const int64_t *lo,
                           const int64_t *hi, int64_t k, const uint64_t *mm,
                           const uint64_t *mc, int64_t num_slots,
                           int64_t num_rows, int64_t dst_stride,
                           const int64_t *slot_offsets) {
    REPRO_EDGE_LOOP({
        uint64_t *abase = alpha + seg * num_rows;
        uint32_t *gbase = gamma + seg * num_rows;
        const uint32_t g32 = (uint32_t)g;
        for (r = 0; r < depth; r++) { abase[r] ^= v; gbase[r] ^= g32; }
    })
}

/* ------------------------------------------------------------------ */
/* Query-side segmented XOR: fused gather + reduce over a round slab.  */
/* Row `nodes[r]` of the slab contributes elements                     */
/* [base_off, base_off + width) (a contiguous column span); segment s  */
/* covers gather rows [seg_starts[s], seg_starts[s+1]).                */
/* ------------------------------------------------------------------ */

#define REPRO_SEG_XOR(T)                                                    \
    int64_t s, r, w;                                                        \
    for (s = 0; s < n_segs; s++) {                                          \
        const int64_t start = seg_starts[s];                                \
        const int64_t end = (s + 1 < n_segs) ? seg_starts[s + 1] : n_rows;  \
        T *o = out + s * width;                                             \
        for (w = 0; w < width; w++) o[w] = 0;                               \
        for (r = start; r < end; r++) {                                     \
            const T *row = slab + nodes[r] * node_stride + base_off;        \
            for (w = 0; w < width; w++) o[w] ^= row[w];                     \
        }                                                                   \
    }

void repro_seg_xor_u64(const uint64_t *slab, int64_t node_stride,
                       int64_t base_off, int64_t width, const int64_t *nodes,
                       int64_t n_rows, const int64_t *seg_starts,
                       int64_t n_segs, uint64_t *out) {
    REPRO_SEG_XOR(uint64_t)
}

void repro_seg_xor_u32(const uint32_t *slab, int64_t node_stride,
                       int64_t base_off, int64_t width, const int64_t *nodes,
                       int64_t n_rows, const int64_t *seg_starts,
                       int64_t n_segs, uint32_t *out) {
    REPRO_SEG_XOR(uint32_t)
}

/* ------------------------------------------------------------------ */
/* Batched bucket decode: one pass over each component's column,       */
/* deepest verified bucket wins (rows ascend by depth, so the last     */
/* verified row is the deepest -- same pick as the numpy decoder).     */
/* ------------------------------------------------------------------ */

void repro_decode_column(const uint64_t *alpha, const uint64_t *gamma,
                         int64_t count, int64_t num_rows, uint64_t veclen,
                         uint64_t mixed_seed, uint8_t *good, uint8_t *zero,
                         int64_t *index) {
    int64_t c, r;
    for (c = 0; c < count; c++) {
        const uint64_t *a = alpha + c * num_rows;
        const uint64_t *g = gamma + c * num_rows;
        int any = 0;
        int64_t best = -1;
        for (r = 0; r < num_rows; r++) {
            const uint64_t av = a[r];
            const uint64_t gv = g[r];
            if (av == 0 && gv == 0) continue;
            any = 1;
            if (av >= veclen) continue;
            if ((repro_finalise(av ^ mixed_seed) & 0xFFFFFFFFULL) == gv)
                best = (int64_t)av;
        }
        good[c] = (uint8_t)(best >= 0);
        zero[c] = (uint8_t)(!any);
        index[c] = best;
    }
}
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)
_U32P = ctypes.POINTER(ctypes.c_uint32)
_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64

_SIGNATURES = {
    "repro_fold_packed": [_U64P, _U64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_wide": [_U64P, _U32P, _U64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_sep64": [_U64P, _U64P, _U64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_edges_packed": [_U64P, _U64P, _I64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_fold_edges_wide": [_U64P, _U32P, _U64P, _I64P, _I64P, _I64, _U64P, _U64P, _I64, _I64, _I64, _I64P],
    "repro_seg_xor_u64": [_U64P, _I64, _I64, _I64, _I64P, _I64, _I64P, _I64, _U64P],
    "repro_seg_xor_u32": [_U32P, _I64, _I64, _I64, _I64P, _I64, _I64P, _I64, _U32P],
    "repro_decode_column": [_U64P, _U64P, _I64, _I64, _U64, _U64, _U8P, _U8P, _I64P],
}


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "repro-ckernels")


def find_compiler() -> Optional[str]:
    """The C compiler the provider would build with, or ``None``."""
    configured = os.environ.get("CC")
    if configured:
        return shutil.which(configured)
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _build_library() -> ctypes.CDLL:
    """Compile (once per source revision) and load the kernel library."""
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC or install gcc/clang)")
    digest = hashlib.sha256(_C_SOURCE.encode("ascii")).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_ckernels_{digest}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as workdir:
            source = os.path.join(workdir, "kernels.c")
            with open(source, "w", encoding="ascii") as handle:
                handle.write(_C_SOURCE)
            built = os.path.join(workdir, "kernels.so")
            base = [compiler, "-O3", "-fPIC", "-shared", source, "-o", built]
            # -march=native unlocks the wide-vector segmented XOR; some
            # toolchains (cross compilers, old clangs) reject it, so
            # fall back to the portable build rather than fail.
            try:
                subprocess.run(
                    base[:1] + ["-march=native"] + base[1:],
                    check=True, capture_output=True,
                )
            except (subprocess.CalledProcessError, OSError):
                subprocess.run(base, check=True, capture_output=True)
            # Atomic publish: concurrent processes race benignly.
            os.replace(built, so_path)
    lib = ctypes.CDLL(so_path)
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    return lib


def _u64(array: np.ndarray):
    return array.ctypes.data_as(_U64P)


def _u32(array: np.ndarray):
    return array.ctypes.data_as(_U32P)


def _i64(array: np.ndarray):
    return array.ctypes.data_as(_I64P)


def _as_i64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.uint64)


class CcKernels:
    """Native kernel provider backed by the runtime-compiled C library.

    One instance per process (see :func:`repro.kernels.native_kernels`);
    the high-level methods translate pool/sketch state into the flat
    pointer-and-stride arguments the C entry points take.  All calls
    release the GIL.
    """

    name = "cc"
    is_native = True

    def __init__(self) -> None:
        self._lib = _build_library()

    # Singletons survive copy/pickle by reference/name: a pool carrying
    # a kernels object must stay deep-copyable and picklable even
    # though a ctypes library handle is neither.
    def __copy__(self) -> "CcKernels":
        return self

    def __deepcopy__(self, memo) -> "CcKernels":
        return self

    def __reduce__(self):
        from repro.kernels import resolve_kernels

        return (resolve_kernels, ("native",))

    # ------------------------------------------------------------------
    # ingest folds
    # ------------------------------------------------------------------
    def fold_pool(self, pool, indices: np.ndarray, dsts: np.ndarray) -> None:
        """Fold a mixed multi-node batch straight into the pool tensors."""
        idx = _as_u64(indices)
        dst = _as_i64(dsts)
        offsets = pool._slot_offsets
        if pool._packed:
            self._lib.repro_fold_packed(
                _u64(pool._buckets), _u64(idx), _i64(dst), idx.size,
                _u64(pool._mixed_membership), _u64(pool._mixed_checksum),
                pool.num_slots, pool.num_rows, pool.num_columns, _i64(offsets),
            )
        else:
            self._lib.repro_fold_wide(
                _u64(pool._alpha), _u32(pool._gamma), _u64(idx), _i64(dst),
                idx.size, _u64(pool._mixed_membership),
                _u64(pool._mixed_checksum), pool.num_slots, pool.num_rows,
                pool.num_columns, _i64(offsets),
            )

    def fold_pool_edges(
        self, pool, indices: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> None:
        """Fold both mirrored halves of a canonical edge batch (hash once)."""
        idx = _as_u64(indices)
        lo64 = _as_i64(lo)
        hi64 = _as_i64(hi)
        offsets = pool._slot_offsets
        if pool._packed:
            self._lib.repro_fold_edges_packed(
                _u64(pool._buckets), _u64(idx), _i64(lo64), _i64(hi64),
                idx.size, _u64(pool._mixed_membership),
                _u64(pool._mixed_checksum), pool.num_slots, pool.num_rows,
                pool.num_columns, _i64(offsets),
            )
        else:
            self._lib.repro_fold_edges_wide(
                _u64(pool._alpha), _u32(pool._gamma), _u64(idx), _i64(lo64),
                _i64(hi64), idx.size, _u64(pool._mixed_membership),
                _u64(pool._mixed_checksum), pool.num_slots, pool.num_rows,
                pool.num_columns, _i64(offsets),
            )

    def fold_page(
        self, pool, entry: Tuple[np.ndarray, ...], indices: np.ndarray,
        local_dsts: np.ndarray,
    ) -> None:
        """Fold one page's column into its pinned tensors (paged pool)."""
        idx = _as_u64(indices)
        dst = _as_i64(local_dsts)
        offsets = pool._combined_offsets
        if pool._packed:
            self._lib.repro_fold_packed(
                _u64(entry[0]), _u64(idx), _i64(dst), idx.size,
                _u64(pool._mixed_membership), _u64(pool._mixed_checksum),
                pool.num_slots, pool.num_rows, pool.num_columns, _i64(offsets),
            )
        else:
            self._lib.repro_fold_wide(
                _u64(entry[0]), _u32(entry[1]), _u64(idx), _i64(dst), idx.size,
                _u64(pool._mixed_membership), _u64(pool._mixed_checksum),
                pool.num_slots, pool.num_rows, pool.num_columns, _i64(offsets),
            )

    def fold_bundle(self, sketch, indices: np.ndarray) -> None:
        """Fold edge slots into one node's whole bundle (FlatNodeSketch)."""
        idx = _as_u64(indices)
        offsets = _bundle_offsets(sketch.num_slots)
        self._lib.repro_fold_sep64(
            _u64(sketch._alpha), _u64(sketch._gamma), _u64(idx), None,
            idx.size, _u64(sketch._mixed_membership),
            _u64(sketch._mixed_checksum), sketch.num_slots, sketch.num_rows,
            0, _i64(offsets),
        )

    # ------------------------------------------------------------------
    # query-side kernels
    # ------------------------------------------------------------------
    def segment_xor(
        self,
        slab: np.ndarray,
        nodes: np.ndarray,
        seg_starts: np.ndarray,
        col_start: int,
        col_stop: int,
        num_rows: int,
    ) -> np.ndarray:
        """Fused gather + per-segment XOR over one round slab.

        ``slab`` is the ``(num_nodes, cols, rows)`` round view (uint64
        packed/alpha or uint32 gamma); returns the
        ``(num_segments, (col_stop - col_start) * rows)`` per-segment
        XOR of rows ``nodes`` grouped by ``seg_starts`` -- bit-identical
        to gathering and reducing with
        :func:`~repro.sketch.flat_node_sketch.segmented_xor`.
        """
        slab = np.ascontiguousarray(slab)
        nodes = _as_i64(nodes)
        starts = _as_i64(seg_starts)
        width = (col_stop - col_start) * num_rows
        node_stride = slab.shape[1] * slab.shape[2]
        base_off = col_start * num_rows
        out = np.empty((starts.size, width), dtype=slab.dtype)
        if slab.dtype == np.uint64:
            self._lib.repro_seg_xor_u64(
                _u64(slab), node_stride, base_off, width, _i64(nodes),
                nodes.size, _i64(starts), starts.size, _u64(out),
            )
        else:
            self._lib.repro_seg_xor_u32(
                _u32(slab), node_stride, base_off, width, _i64(nodes),
                nodes.size, _i64(starts), starts.size, _u32(out),
            )
        return out

    def decode_column(
        self,
        alpha: np.ndarray,
        gamma: np.ndarray,
        vector_length: int,
        mixed_seed: np.uint64,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode one column's buckets for many components at once.

        Same contract (and bit-identical results) as
        :func:`~repro.sketch.flat_node_sketch.decode_column_batch`.
        """
        alpha = _as_u64(alpha)
        gamma = _as_u64(gamma)
        count, num_rows = alpha.shape
        good = np.empty(count, dtype=np.uint8)
        zero = np.empty(count, dtype=np.uint8)
        index = np.empty(count, dtype=np.int64)
        self._lib.repro_decode_column(
            _u64(alpha), _u64(gamma), count, num_rows,
            np.uint64(vector_length), np.uint64(mixed_seed),
            good.ctypes.data_as(_U8P), zero.ctypes.data_as(_U8P), _i64(index),
        )
        return good.view(np.bool_), zero.view(np.bool_), index


_OFFSET_CACHE: dict = {}


def _bundle_offsets(num_slots: int) -> np.ndarray:
    """Identity slot offsets for single-bundle (slot-major) folds."""
    cached = _OFFSET_CACHE.get(num_slots)
    if cached is None:
        cached = np.arange(num_slots, dtype=np.int64)
        _OFFSET_CACHE[num_slots] = cached
    return cached
