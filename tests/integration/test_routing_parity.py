"""Interest-aware routing and delta sync must be semantically invisible.

The optimizations cut *traffic*, never *meaning*: the same deterministic
workload — coupling churn, multi-writer coupled edits, repeated CopyTo
transfers — must land on the identical final UI state and per-replica
event order whether routing is scope-"all" broadcast or interest-scoped,
delta sync on or off, across memory/aio backends and 1/2/4 shards.
"""

import time

import pytest

from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED

from conftest import make_demo_tree

FIELD = "/app/form/name"
ZOOM = "/app/board/zoom"
ROOT = "/app"

N_INSTANCES = 4


def settle(session, predicate, timeout=30.0):
    if session.backend == "memory":
        session.pump()
        return predicate()
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def ui_snapshot(trees):
    return {
        instance_id: {
            widget.pathname: widget.relevant_state()
            for widget in tree.walk()
        }
        for instance_id, tree in trees.items()
    }


def field_event_order(instance):
    return [
        (event.user, event.params.get("value"))
        for event in instance.trace.events(VALUE_CHANGED)
        if event.source_path.endswith("/form/name")
    ]


def run_workload(session):
    """Coupling churn + coupled edits + repeated CopyTo, deterministic."""
    instances, trees = {}, {}
    for i in range(N_INSTANCES):
        instance_id = f"i{i}"
        instances[instance_id] = session.create_instance(
            instance_id, user=f"u{i}"
        )
        trees[instance_id] = instances[instance_id].add_root(make_demo_tree())
    assert settle(
        session,
        lambda: all(
            len(inst.roster) == N_INSTANCES for inst in instances.values()
        ),
    )

    # Sparse coupling: FIELD couples i0-i1-i2 (i3 stays out), ZOOM couples
    # only i2-i3.  Interest-scoped updates must still keep every replica
    # correct.
    instances["i0"].couple(trees["i0"].find(FIELD), ("i1", FIELD))
    instances["i0"].couple(trees["i0"].find(FIELD), ("i2", FIELD))
    instances["i2"].couple(trees["i2"].find(ZOOM), ("i3", ZOOM))
    assert settle(
        session,
        lambda: all(instances[i].is_coupled(FIELD) for i in ("i0", "i1", "i2"))
        and instances["i3"].is_coupled(ZOOM),
    )

    for writer, value in (("i0", "alpha"), ("i2", "bravo"), ("i1", "charlie")):
        trees[writer].find(FIELD).commit(value)
        assert settle(
            session,
            lambda v=value: all(
                trees[i].find(FIELD).value == v for i in ("i0", "i1", "i2")
            ),
        )

    trees["i2"].find(ZOOM).set_value(5)
    assert settle(session, lambda: trees["i3"].find(ZOOM).value == 5)

    # Coupling churn: i1 leaves the FIELD group, edits no longer reach it.
    instances["i1"].decouple_object(trees["i1"].find(FIELD))
    assert settle(session, lambda: not instances["i1"].is_coupled(FIELD))
    trees["i0"].find(FIELD).commit("post-churn")
    assert settle(
        session,
        lambda: trees["i2"].find(FIELD).value == "post-churn"
        and trees["i1"].find(FIELD).value == "charlie",
    )

    # Repeated CopyTo i0 -> i3: exercises full-then-delta on every
    # backend (a no-op under delta_sync=False).
    trees["i0"].find("/app/form/flag").set_value(True)
    instances["i0"].copy_to(ROOT, ("i3", ROOT))
    trees["i0"].find("/app/board/zoom").set_value(9)
    instances["i0"].copy_to(ROOT, ("i3", ROOT))
    assert settle(
        session,
        lambda: trees["i3"].find("/app/form/flag").get("set") is True
        and trees["i3"].find(ZOOM).value == 9,
    )

    snapshot = ui_snapshot(trees)
    order = {i: field_event_order(instances[i]) for i in instances}
    return snapshot, order


def run_on(backend, shards, **knobs):
    with Session(backend=backend, shards=shards, **knobs) as session:
        result = run_workload(session)
        stats = session.server.stats()
    return result, stats


#: The pre-change semantics: full broadcast, no delta encoding.
def reference():
    return run_on("memory", 0, couple_scope="all", delta_sync=False)


@pytest.mark.parametrize(
    "shards", [0, 2, 4], ids=["1-shard", "2-shard", "4-shard"]
)
class TestScopedRoutingParity:
    def test_memory_scoped_matches_broadcast_reference(self, shards):
        ref, _ = reference()
        scoped, stats = run_on(
            "memory", shards, couple_scope="group", delta_sync=True
        )
        assert scoped == ref
        assert stats["routing"]["suppressed_messages"] > 0

    def test_memory_scoped_no_delta_matches_too(self, shards):
        ref, _ = reference()
        scoped, _ = run_on(
            "memory", shards, couple_scope="group", delta_sync=False
        )
        assert scoped == ref


class TestCrossBackendParity:
    @pytest.mark.parametrize(
        "backend,shards",
        [("aio", 0), ("aio", 4)],
        ids=["aio-1shard", "aio-4shard"],
    )
    def test_socket_backends_match_reference(self, backend, shards):
        ref, _ = reference()
        result, _ = run_on(
            backend, shards, couple_scope="group", delta_sync=True
        )
        assert result == ref

    def test_reference_is_nontrivial(self):
        (snapshot, order), _ = reference()
        assert snapshot["i2"]["/app/form/name"]["value"] == "post-churn"
        assert snapshot["i1"]["/app/form/name"]["value"] == "charlie"
        assert snapshot["i3"]["/app/board/zoom"]["value"] == 9
        assert snapshot["i3"]["/app/form/flag"]["set"] is True
        for member in ("i0", "i2"):
            assert [v for _, v in order[member]] == [
                "alpha",
                "bravo",
                "charlie",
                "post-churn",
            ]
        assert [v for _, v in order["i1"]] == ["alpha", "bravo", "charlie"]
