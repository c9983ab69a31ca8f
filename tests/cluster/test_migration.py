"""Migration state transfer: export/import round-trips and live moves."""

from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import ROUTER_ID
from repro.server.couples import CoupleLink
from repro.server.history import HistoricalState
from repro.server.locks import LockOwner
from repro.server.server import CosoftServer
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField


def seeded_server():
    """A server holding one two-object group with a lock and history."""
    server = CosoftServer()
    left = ("a", "/ui/f")
    right = ("b", "/ui/f")
    server.couples.add_link(CoupleLink(source=left, target=right, creator="a"))
    owner = LockOwner(instance_id="a", token=7)
    server.locks.acquire(left, owner)
    server.locks.acquire(right, owner)
    server.history.push(
        HistoricalState(obj=right, state={"value": "old"}, by_user="bob",
                        timestamp=1.0)
    )
    return server, left, right, owner


class TestExportImportRoundTrip:
    def test_export_strips_the_source_server(self):
        server, left, right, owner = seeded_server()
        data = server.export_group([left, right])
        assert len(server.couples) == 0
        assert len(server.locks) == 0
        assert len(server.history) == 0
        assert len(data["links"]) == 1
        assert len(data["locks"]) == 2
        assert len(data["history"]) == 1

    def test_import_restores_everything_on_the_target(self):
        server, left, right, owner = seeded_server()
        data = server.export_group([left, right])
        target = CosoftServer()
        target.import_group(data)
        assert target.couples.has_link(left, right)
        assert target.locks.holder(left) == owner
        assert target.locks.holder(right) == owner
        assert target.history.depth(right) == (1, 0)

    def test_export_is_scoped_to_the_requested_objects(self):
        server, left, right, owner = seeded_server()
        other = ("c", "/ui/z")
        server.history.push(
            HistoricalState(obj=other, state={"value": "keep"}, by_user="c",
                            timestamp=2.0)
        )
        server.export_group([left, right])
        assert server.history.depth(other) == (1, 0)


class TestMigrateMessages:
    def test_shard_answers_the_router_with_its_state(self):
        server, left, right, owner = seeded_server()
        replies = []

        class Capture:
            local_id = "server"
            closed = False

            def send(self, message):
                replies.append(message)

            def drive(self, predicate, timeout=5.0):
                return bool(predicate())

            def close(self):
                pass

        server.bind(Capture())
        server.handle_message(
            Message(
                kind=kinds.MIGRATE_EXPORT,
                sender=ROUTER_ID,
                payload={"objects": [["a", "/ui/f"], ["b", "/ui/f"]]},
            )
        )
        assert replies[-1].kind == kinds.MIGRATE_STATE
        assert len(replies[-1].payload["links"]) == 1

        importer = CosoftServer()
        importer.bind(Capture())
        importer.handle_message(
            Message(
                kind=kinds.MIGRATE_IMPORT,
                sender=ROUTER_ID,
                payload=dict(replies[-1].payload),
            )
        )
        assert replies[-1].kind == kinds.MIGRATE_ACK
        assert importer.couples.has_link(("a", "/ui/f"), ("b", "/ui/f"))

    def test_client_sender_is_refused(self):
        server, *_ = seeded_server()
        replies = []

        class Capture:
            local_id = "server"
            closed = False

            def send(self, message):
                replies.append(message)

            def drive(self, predicate, timeout=5.0):
                return bool(predicate())

            def close(self):
                pass

        server.bind(Capture())
        server.handle_message(
            Message(
                kind=kinds.MIGRATE_EXPORT,
                sender="mallory",
                payload={"objects": [["a", "/ui/f"]]},
            )
        )
        assert replies[-1].kind == kinds.ERROR
        assert len(server.couples) == 1  # nothing was extracted


class TestLiveHistoryMigration:
    def test_undo_history_survives_a_group_move(self):
        """Merging a 2-group into a 3-group moves its history with it."""
        session = Session(shards=2)
        cluster = session.cluster
        instances = {}
        trees = {}
        for i in range(5):
            iid = f"inst-{i}"
            instances[iid] = session.create_instance(iid, user=f"u{i}")
            tree = instances[iid].add_root(Shell("ui"))
            TextField("f", parent=tree)
            trees[iid] = tree

        def field(iid):
            return trees[iid].find("/ui/f")

        # History for inst-1's field: a copy_from backs up the overwritten
        # state ("one") on inst-1's home shard.
        field("inst-1").commit("one")
        session.pump()
        instances["inst-1"].copy_from(field("inst-1"), ("inst-0", "/ui/f"))
        session.pump()
        start_home = cluster.shard_of(("inst-1", "/ui/f"))
        assert len(cluster.shards[start_home].history) == 1

        # Small group {0,1}; the couple may already move inst-1's object.
        instances["inst-0"].couple(field("inst-0"), ("inst-1", "/ui/f"))
        session.pump()
        small_home = cluster.shard_of(("inst-0", "/ui/f"))
        assert cluster.shard_of(("inst-1", "/ui/f")) == small_home
        assert len(cluster.shards[small_home].history) == 1

        # Big group {2,3,4}.
        instances["inst-2"].couple(field("inst-2"), ("inst-3", "/ui/f"))
        instances["inst-2"].couple(field("inst-2"), ("inst-4", "/ui/f"))
        session.pump()
        big_home = cluster.shard_of(("inst-2", "/ui/f"))

        # Merge: the smaller group {0,1} moves to the bigger group's home,
        # carrying its couple rows and history.
        migrations_before = cluster.migrations
        instances["inst-1"].couple(field("inst-1"), ("inst-2", "/ui/f"))
        session.pump()
        if small_home != big_home:
            assert cluster.migrations == migrations_before + 1
            assert len(cluster.shards[small_home].history) == 0
        for iid in instances:
            assert cluster.shard_of((iid, "/ui/f")) == big_home
        assert len(cluster.shards[big_home].history) == 1
        assert len(cluster.shards[big_home].couples) == 4

        # The moved history still drives undo after two potential moves.
        assert instances["inst-1"].undo(field("inst-1"))
        assert field("inst-1").value == "one"
        session.close()
