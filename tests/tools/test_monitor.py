"""Tests for the server monitoring snapshot/dashboard."""

import json

import pytest

from repro.session import Session
from repro.tools.monitor import format_dashboard, snapshot

from conftest import make_demo_tree

FIELD = "/app/form/name"


@pytest.fixture
def busy_session():
    session = Session()
    a = session.create_instance("a", user="alice", app_type="editor")
    b = session.create_instance("b", user="bob", app_type="editor")
    ta = a.add_root(make_demo_tree())
    tb = b.add_root(make_demo_tree())
    a.couple(ta.find(FIELD), ("b", FIELD))
    session.pump()
    # One state copy to populate history, one held floor.
    a.copy_from(ta.find(FIELD), ("b", FIELD))
    grant = a.acquire_floor(ta.find(FIELD))
    yield session, a, b, grant
    session.close()


class TestSnapshot:
    def test_structure(self, busy_session):
        session, a, b, _ = busy_session
        snap = snapshot(session.server)
        assert {r["instance_id"] for r in snap["registered"]} == {"a", "b"}
        assert snap["couple_links"] == 1
        assert snap["couple_groups"] == [[f"a:{FIELD}", f"b:{FIELD}"]]
        assert len(snap["locks"]) == 2
        assert all(l["holder"] == "a" for l in snap["locks"])
        assert snap["histories"][f"a:{FIELD}"] == (1, 0)

    def test_json_safe(self, busy_session):
        session, *_ = busy_session
        json.dumps(snapshot(session.server))  # must not raise

    def test_lock_stats(self, busy_session):
        session, a, b, grant = busy_session
        snap = snapshot(session.server)
        assert snap["lock_stats"]["acquisitions"] >= 1


class TestDashboard:
    def test_mentions_everything(self, busy_session):
        session, *_ = busy_session
        text = format_dashboard(session.server)
        for fragment in ("alice", "bob", "Couple groups", "Floors held",
                         "Historical UI states", f"a:{FIELD}"):
            assert fragment in text

    def test_empty_server_renders(self):
        session = Session()
        text = format_dashboard(session.server)
        assert "Floors held: none" in text
        assert "Historical UI states: none" in text
        session.close()


class TestClusterMonitor:
    @pytest.fixture
    def cluster_session(self):
        session = Session(shards=2)
        a = session.create_instance("a", user="alice")
        b = session.create_instance("b", user="bob")
        ta = a.add_root(make_demo_tree())
        tb = b.add_root(make_demo_tree())
        a.couple(ta.find(FIELD), ("b", FIELD))
        session.pump()
        yield session
        session.close()

    def test_cluster_snapshot_structure(self, cluster_session):
        from repro.tools.monitor import cluster_snapshot

        snap = cluster_snapshot(cluster_session.cluster)
        assert snap["shards"] == 2
        assert snap["registered"] == 2
        assert snap["couple_links"] == 1
        assert snap["couple_groups"] == 1
        assert set(snap["per_shard"]) == {"shard-0", "shard-1"}
        # The two coupled objects are pinned to the same home shard.
        assert len(set(snap["homes"].values())) == 1
        assert set(snap["homes"]) == {f"a:{FIELD}", f"b:{FIELD}"}
        # Exactly one shard holds the link; per-shard snapshots agree.
        links = [s["couple_links"] for s in snap["per_shard"].values()]
        assert sorted(links) == [0, 1]

    def test_cluster_snapshot_json_safe(self, cluster_session):
        from repro.tools.monitor import cluster_snapshot

        json.dumps(cluster_snapshot(cluster_session.cluster))

    def test_cluster_dashboard_mentions_everything(self, cluster_session):
        from repro.tools.monitor import format_cluster_dashboard

        text = format_cluster_dashboard(cluster_session.cluster)
        for fragment in ("COSOFT cluster", "2 shards", "shard-0", "shard-1",
                         "Group homes", f"a:{FIELD}"):
            assert fragment in text

    def test_empty_cluster_dashboard_renders(self):
        from repro.cluster import ShardedCosoftCluster
        from repro.tools.monitor import format_cluster_dashboard

        text = format_cluster_dashboard(ShardedCosoftCluster(3))
        assert "3 shards" in text
        assert "Group homes: none pinned" in text
