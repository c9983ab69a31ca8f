"""Thread-safety of the coupling runtime over TCP.

Over the plain TCP client, each instance's inbound messages arrive on a
reader thread while the application fires events from its own thread; the
transport's guard serializes them.  These tests hammer that boundary,
against the asyncio server runtime.
"""

import threading
import time


from repro.session import Session
from repro.toolkit.widgets import Canvas, Shell, TextField

from conftest import join_tcp

FIELD = "/ui/field"
CANVAS = "/ui/canvas"


def build_tree():
    root = Shell("ui")
    TextField("field", parent=root)
    Canvas("canvas", parent=root, width=40, height=10)
    return root


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestTcpConcurrency:
    def test_two_threads_firing_concurrently_converge_as_sets(self):
        with Session(backend="aio") as session:
            a = join_tcp(session, "a", user="u1")
            b = join_tcp(session, "b", user="u2")
            ta = a.add_root(build_tree())
            tb = b.add_root(build_tree())
            a.couple(ta.find(CANVAS), ("b", CANVAS))
            assert wait_until(lambda: b.is_coupled(CANVAS))

            denials = {"a": 0, "b": 0}

            def drawer(name, instance, tree, rows):
                for i in range(rows):
                    tree.find(CANVAS).draw_stroke([(i, 0), (i, 1)])
                    result = instance.last_execution
                    if result is not None and result.lock_denied:
                        denials[name] += 1
                    time.sleep(0.001)

            t1 = threading.Thread(target=drawer, args=("a", a, ta, 20))
            t2 = threading.Thread(target=drawer, args=("b", b, tb, 20))
            t1.start(); t2.start()
            t1.join(15.0); t2.join(15.0)
            assert not t1.is_alive() and not t2.is_alive()

            accepted = 40 - denials["a"] - denials["b"]
            assert wait_until(
                lambda: ta.find(CANVAS).stroke_count == accepted
                and tb.find(CANVAS).stroke_count == accepted
            ), (
                f"accepted={accepted}, a={ta.find(CANVAS).stroke_count}, "
                f"b={tb.find(CANVAS).stroke_count}"
            )

            def key(stroke):
                return tuple(map(tuple, stroke["points"]))

            strokes_a = sorted(map(key, ta.find(CANVAS).strokes))
            strokes_b = sorted(map(key, tb.find(CANVAS).strokes))
            assert strokes_a == strokes_b

    def test_single_writer_many_events_under_reader_thread(self):
        with Session(backend="aio") as session:
            a = join_tcp(session, "a", user="u1")
            b = join_tcp(session, "b", user="u2")
            ta = a.add_root(build_tree())
            tb = b.add_root(build_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            assert wait_until(lambda: b.is_coupled(FIELD))
            for i in range(100):
                ta.find(FIELD).commit(f"v{i}")
            assert wait_until(lambda: tb.find(FIELD).value == "v99")
            assert a.stats["lock_denials"] == 0

    def test_bidirectional_commands_during_events(self):
        with Session(backend="aio") as session:
            a = join_tcp(session, "a", user="u1")
            b = join_tcp(session, "b", user="u2")
            ta = a.add_root(build_tree())
            b.add_root(build_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            assert wait_until(lambda: b.is_coupled(FIELD))
            b.on_command("sum", lambda data, sender: sum(data))

            results = []

            def commander():
                for _ in range(10):
                    results.append(
                        a.send_command("sum", [1, 2, 3], targets=["b"],
                                       want_reply=True)
                    )

            def typist():
                for i in range(10):
                    ta.find(FIELD).commit(f"t{i}")
                    time.sleep(0.002)

            t1 = threading.Thread(target=commander)
            t2 = threading.Thread(target=typist)
            t1.start(); t2.start()
            t1.join(15.0); t2.join(15.0)
            assert not t1.is_alive() and not t2.is_alive()
            assert results == [6] * 10
