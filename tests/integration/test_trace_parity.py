"""Trace parity: identical span trees across backends and shard counts.

The trace of one deterministic workload is a *semantic* artifact: the
same user action must traverse the same causal hops — lock wait, floor,
receive, broadcast, remote apply — whether the deployment runs on the
in-memory simulator or the asyncio runtime, and however many shards the
cluster has.  Canonical trees
(:meth:`SpanRecorder.canonical_tree`) strip timestamps and endpoints,
keeping only names and causal structure, so they must compare equal.
"""

import time

import pytest

from repro.obs.tracing import CLUSTER_ROUTE
from repro.session import Session

from conftest import make_demo_tree

FIELD = "/app/form/name"

BACKENDS = ("memory", "aio")
SHARD_COUNTS = (1, 2, 4)

N_EDITS = 3


def settle_spans(sess, timeout=15.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        sess.pump()
        stats = sess.obs.spans.stats()
        if stats["spans"] and stats["open"] == 0:
            return True
        if sess.backend != "memory":
            time.sleep(0.01)
    stats = sess.obs.spans.stats()
    return stats["spans"] and stats["open"] == 0


def run_workload(backend, shards):
    """One coupled field, three writer edits; returns canonical trees."""
    sess = Session(backend, shards=shards, observability=True)
    try:
        a = sess.create_instance("a", user="alice")
        b = sess.create_instance("b", user="bob")
        ta, tb = make_demo_tree(), make_demo_tree()
        a.add_root(ta)
        b.add_root(tb)
        a.couple(ta.find(FIELD), ("b", FIELD))
        sess.pump()
        field = ta.find(FIELD)
        for n in range(N_EDITS):
            # One character per edit: type_text fires one key_press (and
            # so one trace) per keystroke.
            field.type_text(str(n))
            assert settle_spans(sess), f"spans did not settle ({backend})"
        recorder = sess.obs.spans
        trees = [
            recorder.canonical_tree(trace_id)
            for trace_id in recorder.trace_ids()
        ]
        return trees
    finally:
        sess.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_span_trees_identical_across_backends(shards):
    reference = run_workload("memory", shards)
    assert len(reference) == N_EDITS
    for backend in BACKENDS[1:]:
        trees = run_workload(backend, shards)
        assert trees == reference, (
            f"{backend}/{shards} shards diverged from memory/{shards}"
        )


def test_span_trees_identical_across_shard_counts():
    per_count = {n: run_workload("memory", n) for n in SHARD_COUNTS}
    reference = per_count[SHARD_COUNTS[0]]
    for shards, trees in per_count.items():
        assert trees == reference, f"{shards} shards diverged"


def test_edits_have_same_tree_and_distinct_traces():
    trees = run_workload("memory", 2)
    assert len(set(trees)) == 1  # every edit takes the same causal path
    flat = str(trees[0])
    assert CLUSTER_ROUTE in flat  # router hop present in sharded runs
