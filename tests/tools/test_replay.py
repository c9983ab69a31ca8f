"""Tests for session recording and replay."""

import pytest

from repro.session import Session
from repro.tools.replay import SessionRecorder, loads, replay, replay_locally
from repro.toolkit.builder import build
from repro.toolkit.tree import subtree_state

from conftest import make_demo_tree

FIELD = "/app/form/name"
FLAG = "/app/form/flag"


@pytest.fixture
def pair():
    session = Session()
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    ta = a.add_root(make_demo_tree())
    tb = b.add_root(make_demo_tree())
    yield session, a, b, ta, tb
    session.close()


class TestRecorder:
    def test_records_local_events_only(self, pair):
        session, a, b, ta, tb = pair
        a.couple(ta.find(FIELD), ("b", FIELD))
        session.pump()
        recorder_a = SessionRecorder(a)
        recorder_b = SessionRecorder(b)
        ta.find(FIELD).commit("from a")
        session.pump()
        assert len(recorder_a.cut()) == 1
        # b saw the remote re-execution, but it is not a *local* input.
        assert recorder_b.cut() == []

    def test_cut_advances_mark(self, pair):
        session, a, _, ta, _ = pair
        recorder = SessionRecorder(a)
        ta.find(FIELD).commit("one")
        assert len(recorder.cut()) == 1
        assert recorder.cut() == []
        ta.find(FIELD).commit("two")
        assert len(recorder.cut()) == 1

    def test_dumps_loads_roundtrip(self, pair):
        session, a, _, ta, _ = pair
        recorder = SessionRecorder(a)
        ta.find(FIELD).commit("serialized")
        ta.find(FLAG).toggle()
        log = loads(recorder.dumps())
        assert len(log) == 2
        assert log[0]["params"]["value"] == "serialized"

    def test_loads_rejects_non_array(self):
        with pytest.raises(ValueError):
            loads('{"not": "a list"}')


class TestReplay:
    def test_replay_reproduces_state(self, pair):
        session, a, b, ta, tb = pair
        recorder = SessionRecorder(a)
        ta.find(FIELD).commit("first")
        ta.find(FLAG).toggle()
        ta.find(FIELD).commit("second")
        log = recorder.cut()
        # A completely fresh instance replays the log.
        c = session.create_instance("c", user="carol")
        tc = c.add_root(make_demo_tree())
        fired = replay(log, c)
        assert fired == 3
        assert tc.find(FIELD).value == "second"
        assert tc.find(FLAG).value is True

    def test_replay_through_coupling_reaches_peers(self, pair):
        session, a, b, ta, tb = pair
        recorder = SessionRecorder(a)
        ta.find(FIELD).commit("replayed value")
        log = recorder.cut()
        # Couple c's field to b's, then replay a's log through c.
        c = session.create_instance("c", user="carol")
        tc = c.add_root(make_demo_tree())
        c.couple(tc.find(FIELD), ("b", FIELD))
        session.pump()
        replay(log, c)
        session.pump()
        assert tb.find(FIELD).value == "replayed value"

    def test_replay_strict_missing_widget(self, pair):
        session, a, _, ta, _ = pair
        recorder = SessionRecorder(a)
        ta.find(FIELD).commit("x")
        log = recorder.cut()
        c = session.create_instance("c", user="carol")
        c.add_root(build({"type": "shell", "name": "other"}))
        with pytest.raises(LookupError):
            replay(log, c)
        assert replay(log, c, strict=False) == 0

    def test_replay_locally_offline(self, pair):
        session, a, _, ta, _ = pair
        recorder = SessionRecorder(a)
        ta.find(FIELD).commit("offline")
        ta.find(FLAG).toggle()
        log = recorder.cut()
        fresh = make_demo_tree()
        applied = replay_locally(log, fresh)
        assert applied == 2
        assert subtree_state(fresh) == subtree_state(ta)
