"""The benchmark's own checks: stream rules, the oracle gate, the tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.  The
workloads here are shrunk to a few hundred nodes so the file takes a
few seconds.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench.stream import Stream, edge_keys, oracle
from perfbench.tracer import LAYER_ENTRY_POINTS, Tracer, _resolve, layer_table
from perfbench.workloads import WORKLOADS, prepare, run_pass

ROOT = Path(__file__).resolve().parents[2]


def small(name: str, **overrides):
    """A named workload shrunk to test size (same layers, same config)."""
    sizes = dict(num_nodes=400, num_components=8, extra_edges=900, churn_edges=400)
    sizes["batch_edges"] = 300 if WORKLOADS[name].batch_edges > 2_000 else 100
    return replace(WORKLOADS[name], **{**sizes, **overrides})


def test_same_seed_same_stream():
    workload = small("bulk-ingest")
    one, two, other = workload.stream(5), workload.stream(5), workload.stream(6)
    assert np.array_equal(one.updates, two.updates)
    assert np.array_equal(one.is_delete, two.is_delete)
    assert not np.array_equal(one.updates, other.updates)


def test_stream_follows_the_update_rules():
    stream = small("bulk-ingest").stream(3)
    n = stream.num_nodes
    assert (stream.updates[:, 0] != stream.updates[:, 1]).all()
    keys = edge_keys(n, stream.updates)
    inserts, deletes = keys[~stream.is_delete], keys[stream.is_delete]
    assert np.unique(inserts).size == inserts.size  # no edge inserted twice
    assert np.unique(deletes).size == deletes.size
    first_insert = {key: i for i, key in reversed(list(enumerate(keys)))}
    for position in np.flatnonzero(stream.is_delete):
        assert first_insert[keys[position]] < position
    # Every deleted edge joins two planted groups; the final graph is
    # exactly the planted partition.
    lo, hi = deletes // n, deletes % n
    assert (stream.groups[lo] != stream.groups[hi]).all()
    smallest = np.full(stream.groups.max() + 1, n)
    np.minimum.at(smallest, stream.groups, np.arange(n))
    assert np.array_equal(oracle(stream, [len(stream)])[0].labels, smallest[stream.groups])


@pytest.mark.parametrize("name", ["bulk-ingest", "out-of-core"])
def test_full_stream_is_answered_correctly(name):
    workload = small(name, kernel_backend="numpy")
    stream, expected = prepare(workload, 2)
    result = run_pass(workload, stream, expected, 2)
    assert result.failed == 0, result.problems
    assert len(result.query_ms) == len(expected)


def test_dropped_deletions_give_a_nonzero_error_rate():
    workload = small("bulk-ingest")
    full = workload.stream(4)
    truth = oracle(full, [len(full)])[0]
    kept = ~full.is_delete
    lossy = Stream(full.num_nodes, full.updates[kept], full.is_delete[kept], full.groups)
    result = run_pass(workload, lossy, {len(lossy): truth}, 4)
    assert result.failed / result.attempted > 0
    assert any("oracle" in p or "not live" in p for p in result.problems)


@pytest.mark.parametrize("name", ["live-queries", "out-of-core"])
def test_traced_pass_is_bit_identical_and_unwrapped_after(name):
    workload = small(name, kernel_backend="numpy")
    stream, expected = prepare(workload, 7)
    originals = [
        _resolve(path).__dict__[attr] if ":" in path else getattr(_resolve(path), attr)
        for path, attr, _, _ in LAYER_ENTRY_POINTS
    ]
    plain = run_pass(workload, stream, expected, 7)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, stream, expected, 7)
    finally:
        tracer.remove()
    assert plain.failed == traced.failed == 0
    assert traced.digests == plain.digests
    assert tracer.budget_breaches == 0
    table = layer_table(tracer.spans, main_tid=threading.get_ident())
    assert table["core.query"]["count"] == len(expected)
    assert table["sketch.fold"]["units"] > 0
    for row in table.values():
        assert row["self_s"] <= row["busy_s"] + 1e-9
    restored = [
        _resolve(path).__dict__[attr] if ":" in path else getattr(_resolve(path), attr)
        for path, attr, _, _ in LAYER_ENTRY_POINTS
    ]
    assert all(a is b for a, b in zip(originals, restored))


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
