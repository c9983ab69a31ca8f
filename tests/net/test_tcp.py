"""Tests for the plain TCP client transport (real localhost sockets).

Every client here runs against the asyncio host, the one socket server:
the plain client is the interop path a foreign instance uses to join it.
"""

import threading
import time

import pytest

from repro.errors import TransportClosedError
from repro.net import kinds
from repro.net.aio import AioHostTransport
from repro.net.message import Message
from repro.net.tcp import TcpClientTransport


def msg(sender, to="", **payload):
    return Message(kind=kinds.COMMAND, sender=sender, to=to, payload=payload)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class Collector:
    def __init__(self):
        self.received = []
        self.event = threading.Event()

    def __call__(self, message):
        self.received.append(message)
        self.event.set()


@pytest.fixture
def host():
    inbox = Collector()
    transport = AioHostTransport(inbox, port=0)
    yield transport, inbox
    transport.close()


class TestTcpTransport:
    def test_client_to_host(self, host):
        transport, inbox = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            client.send(msg("c1", data="hello"))
            assert inbox.event.wait(5.0)
            assert inbox.received[0].payload == {"data": "hello"}
        finally:
            client.close()

    def test_host_to_client_after_first_message(self, host):
        transport, inbox = host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg("c1"))  # associates the connection with "c1"
            assert inbox.event.wait(5.0)
            transport.send(msg("server", to="c1", pong=True))
            assert client_inbox.event.wait(5.0)
            assert client_inbox.received[0].payload == {"pong": True}
        finally:
            client.close()

    def test_many_messages_preserve_order(self, host):
        transport, inbox = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            for i in range(200):
                client.send(msg("c1", i=i))
            deadline = time.monotonic() + 5.0
            while len(inbox.received) < 200 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [m.payload["i"] for m in inbox.received] == list(range(200))
        finally:
            client.close()

    def test_drive_waits_for_predicate(self, host):
        transport, inbox = host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg("c1"))
            assert inbox.event.wait(5.0)

            def reply_later():
                time.sleep(0.05)
                transport.send(msg("server", to="c1", late=True))

            threading.Thread(target=reply_later, daemon=True).start()
            assert client.drive(lambda: bool(client_inbox.received), timeout=5.0)
        finally:
            client.close()

    def test_drive_timeout_returns_false(self, host):
        transport, _ = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            assert not client.drive(lambda: False, timeout=0.1)
        finally:
            client.close()

    def test_send_after_close_raises(self, host):
        transport, _ = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        client.close()
        with pytest.raises(TransportClosedError):
            client.send(msg("c1"))

    def test_two_clients_roundtrip_via_host(self, host):
        transport, inbox = host
        _, port = transport.address
        inbox_a, inbox_b = Collector(), Collector()
        a = TcpClientTransport("a", inbox_a, "127.0.0.1", port)
        b = TcpClientTransport("b", inbox_b, "127.0.0.1", port)
        try:
            a.send(msg("a"))
            b.send(msg("b"))
            deadline = time.monotonic() + 5.0
            while len(inbox.received) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            # Host relays a message from a to b.
            transport.send(msg("server", to="b", relayed=True))
            assert inbox_b.event.wait(5.0)
            assert inbox_b.received[0].payload == {"relayed": True}
        finally:
            a.close()
            b.close()

    def test_stats_recorded(self, host):
        transport, inbox = host
        _, port = transport.address
        client = TcpClientTransport("c1", lambda m: None, "127.0.0.1", port)
        try:
            client.send(msg("c1"))
            assert inbox.event.wait(5.0)
            assert client.stats.messages == 1
            assert client.stats.bytes > 0
        finally:
            client.close()


class TestWireBatchingBurst:
    """With ``wire_batching`` on, replies the host handler emits while
    dispatching one inbound read coalesce into a single batch-envelope
    write, which the plain client decodes transparently."""

    def test_handler_replies_leave_as_one_envelope(self):
        transport = None

        def fan_out(message):
            # Every handler send during this read lands in the burst
            # buffer and flushes once the dispatch loop finishes.
            for i in range(4):
                transport.send(
                    Message(
                        kind=kinds.COMMAND,
                        sender="server",
                        to=message.sender,
                        payload={"seq": i},
                    )
                )

        transport = AioHostTransport(fan_out, port=0, wire_batching=True)
        client_inbox = Collector()
        client = None
        try:
            _, port = transport.address
            client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
            client.send(msg("c1", ping=True))
            deadline = time.monotonic() + 5.0
            while len(client_inbox.received) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [m.payload["seq"] for m in client_inbox.received] == [
                0, 1, 2, 3,
            ]
            stats = transport.stats
            # Accounting lands right after the write, a beat after the
            # client can observe delivery — wait for it.
            assert wait_until(lambda: stats.batched_messages == 4)
            assert stats.envelopes == 1
            assert stats.envelope_messages == 4
            assert stats.batches == 1
            assert stats.batched_messages == 4
            assert sum(stats.bytes_by_kind.values()) == stats.bytes
        finally:
            if client is not None:
                client.close()
            transport.close()

    def test_off_by_default_sends_plain_frames(self):
        transport = None

        def echo_twice(message):
            for i in range(2):
                transport.send(
                    Message(
                        kind=kinds.COMMAND,
                        sender="server",
                        to=message.sender,
                        payload={"seq": i},
                    )
                )

        transport = AioHostTransport(echo_twice, port=0)
        client_inbox = Collector()
        client = None
        try:
            _, port = transport.address
            client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
            client.send(msg("c1", ping=True))
            deadline = time.monotonic() + 5.0
            while len(client_inbox.received) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(client_inbox.received) == 2
            assert wait_until(lambda: transport.stats.batched_messages == 2)
            assert transport.stats.envelopes == 0
        finally:
            if client is not None:
                client.close()
            transport.close()
