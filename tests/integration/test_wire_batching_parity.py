"""Wire batching must be semantically invisible.

Batch envelopes (docs/PROTOCOL.md) change how flushed messages are
*framed*, never what they mean: the deterministic routing-parity
workload must land on the identical final UI state and per-replica
event order with ``wire_batching`` on or off, across memory/aio backends
and 1/2/4 shards.  Mixed fleets need no handshake either — a peer that
wraps every frame in a batch envelope and a legacy peer that speaks
per-message frames interoperate on the same port.
"""

import struct

import pytest

from repro.core.instance import ApplicationInstance
from repro.net.codec import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    HEADER_SIZE,
    _write_uvarint,
)
from repro.net.tcp import TcpClientTransport
from repro.session import Session

from conftest import join_tcp, make_demo_tree
from test_codec_interop import wait_until
from test_routing_parity import run_on

FIELD = "/app/form/name"

_reference_cache = {}


def reference():
    """Per-message frames on the deterministic memory backend."""
    if "ref" not in _reference_cache:
        _reference_cache["ref"] = run_on("memory", 0, wire_batching=False)[0]
    return _reference_cache["ref"]


# ---------------------------------------------------------------------------
# Parity across backends and shard counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shards", [0, 2, 4], ids=["1-shard", "2-shard", "4-shard"]
)
class TestMemoryParity:
    def test_batching_matches_per_message_reference(self, shards):
        result, _ = run_on("memory", shards, wire_batching=True)
        assert result == reference()


class TestSocketParity:
    @pytest.mark.parametrize(
        "backend,shards",
        [("aio", 0), ("aio", 4)],
        ids=["aio-1shard", "aio-4shard"],
    )
    def test_socket_backends_match_reference(self, backend, shards):
        result, _ = run_on(backend, shards, wire_batching=True)
        assert result == reference()


# ---------------------------------------------------------------------------
# Mixed fleet: envelope speaker + legacy per-message peer, one port
# ---------------------------------------------------------------------------


class EnvelopeSpeakingClient(TcpClientTransport):
    """A client that wraps *every* outbound frame in a batch envelope.

    ``encode_batch`` deliberately degenerates single-message batches to
    plain frames, so this builds the count=1 envelope by hand — proving
    the server splits envelopes from any peer with no handshake and no
    mode bit, even interleaved with legacy peers on the same port.
    """

    def _send_on(self, sock, message):
        frame = self._codec.encode(message)
        inner = bytearray((ENVELOPE_MAGIC, ENVELOPE_VERSION))
        _write_uvarint(inner, 1)
        _write_uvarint(inner, len(frame) - HEADER_SIZE)
        inner += frame[HEADER_SIZE:]
        payload = struct.pack(">I", len(inner)) + bytes(inner)
        sock.sendall(payload)
        return len(payload)


@pytest.mark.parametrize("client", ["tcp", "aio"])
@pytest.mark.parametrize("peer_codec", ["json", "binary"])
def test_envelope_and_legacy_peers_share_a_port(client, peer_codec):
    with Session(backend="aio", wire_batching=True) as session:
        # Peer "a": a legacy per-message client — the plain TCP interop
        # client or a stock session-managed loop client.
        if client == "tcp":
            a = join_tcp(session, "a", "u1")
        else:
            a = session.create_instance("a", user="u1")
        tree_a = a.add_root(make_demo_tree())

        # Peer "b": every frame arrives inside a batch envelope.
        b = ApplicationInstance("b", "u2")
        b.bind(
            EnvelopeSpeakingClient(
                "b", b.handle_message, session.host, session.port,
                codec=peer_codec,
            )
        )
        b.register()
        tree_b = b.add_root(make_demo_tree())
        try:
            assert wait_until(lambda: "b" in a.roster and "a" in b.roster)

            a.couple(tree_a.find(FIELD), ("b", FIELD))
            assert wait_until(lambda: b.is_coupled(FIELD))

            tree_a.find(FIELD).commit("from-legacy")
            assert wait_until(lambda: tree_b.find(FIELD).value == "from-legacy")

            tree_b.find(FIELD).commit("from-envelope")
            assert wait_until(lambda: tree_a.find(FIELD).value == "from-envelope")
        finally:
            b.close()


def test_envelope_peer_negotiates_codec():
    """The decoder reports the envelope's member codec, so a binary
    envelope speaker is answered in binary like any binary peer."""
    with Session(backend="aio", codec="json", wire_batching=True) as session:
        b = ApplicationInstance("b", "u2")
        b.bind(
            EnvelopeSpeakingClient(
                "b", b.handle_message, session.host, session.port,
                codec="binary",
            )
        )
        b.register()
        try:
            host = session.runtime.transport
            assert wait_until(
                lambda: host._peer_codecs.get("b") is not None
            )
            assert host._peer_codecs["b"].name == "binary"
        finally:
            b.close()


# ---------------------------------------------------------------------------
# Memory-backend byte accounting
# ---------------------------------------------------------------------------


def test_memory_batching_accounts_fewer_bytes():
    """The simulator prices envelope framing: amortized headers cost
    fewer bytes than one 4-byte header per message."""

    def run(wire_batching):
        with Session(wire_batching=wire_batching) as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            tree_a = a.add_root(make_demo_tree())
            b.add_root(make_demo_tree())
            session.pump()
            a.couple(tree_a.find(FIELD), ("b", FIELD))
            session.pump()
            tree_a.find(FIELD).commit("payload-bytes")
            session.pump()
            return session.traffic()["bytes"]

    assert run(True) < run(False)
