"""Protocol fuzzing: malformed messages must never crash an endpoint.

A production server cannot die because one client sent garbage; neither
may a client's event loop.  These tests feed randomly shaped payloads of
every message kind into the sans-I/O cores and require that (a) no
exception escapes, and (b) the endpoint keeps serving well-formed traffic
afterwards.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.net import kinds
from repro.net.message import ALL_KINDS, Message
from repro.server.server import SERVER_ID, CosoftServer
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField


class SinkTransport:
    closed = False
    local_id = SERVER_ID

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def drive(self, predicate, timeout=5.0):
        return predicate()

    def close(self):
        pass


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=10,
)
# Payloads biased toward the field names the handlers actually read, so
# the fuzz reaches deep into each handler rather than failing fast.
field_names = st.sampled_from(
    [
        "source", "target", "object", "token", "event", "targets", "owner",
        "state", "structure", "mode", "command", "data", "rule", "action",
        "user", "roster", "link", "group", "current_state", "redo",
        "release", "want_reply", "origin", "origin_msg_id", "reason",
    ]
    + list(string.ascii_lowercase[:6])
)
payloads = st.dictionaries(field_names, json_values, max_size=6)

messages = st.builds(
    Message,
    kind=st.sampled_from(sorted(ALL_KINDS)),
    sender=st.sampled_from(["a", "b", "ghost", "server", ""]),
    to=st.just(""),
    payload=payloads,
    reply_to=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
)


class TestServerFuzz:
    @given(batch=st.lists(messages, min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_server_survives_garbage(self, batch):
        server = CosoftServer()
        transport = SinkTransport()
        server.bind(transport)
        # One honest client so handlers with registry lookups get past the
        # registration check and into their payload parsing.
        server.handle_message(
            Message(kind=kinds.REGISTER, sender="a", payload={"user": "u"})
        )
        for message in batch:
            server.handle_message(message)  # must not raise
        # The server still serves well-formed requests afterwards.
        before = len(transport.sent)
        server.handle_message(
            Message(kind=kinds.REGISTER, sender="fresh", payload={"user": "v"})
        )
        replies = transport.sent[before:]
        assert any(m.kind == kinds.REGISTER_ACK for m in replies)

    @given(batch=st.lists(messages, min_size=1, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_client_survives_garbage(self, batch):
        session = Session()
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(Shell("ui"))
            TextField("f", parent=ta)
            tb = b.add_root(Shell("ui"))
            TextField("f", parent=tb)
            a.couple(ta.find("/ui/f"), ("b", "/ui/f"))
            session.pump()
            for message in batch:
                # Deliver garbage straight into the client core.
                b.handle_message(message)
            # The replica keeps working end to end.
            ta.find("/ui/f").commit("still alive")
            session.pump()
            assert tb.find("/ui/f").value == "still alive"
        finally:
            session.close()
