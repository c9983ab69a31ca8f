"""Tests for the asyncio host transport: batching, backpressure, retry.

The sans-I/O cores (:class:`SendQueue`, :class:`RetryPolicy`) are driven
with explicit fake times; the socket-level tests run a real
:class:`AioHostTransport` against the plain :class:`TcpClientTransport`.
"""

import threading
import time

import pytest

from repro.errors import TransportClosedError
from repro.net import kinds
from repro.net.aio import AioHostTransport, BatchConfig, RetryPolicy, SendQueue
from repro.net.message import Message
from repro.net.tcp import TcpClientTransport
from repro.net.transport import (
    DROP_BACKPRESSURE,
    DROP_DISCONNECTED,
    DROP_UNDELIVERABLE,
)


def msg(sender="server", to="c1", **payload):
    return Message(kind=kinds.COMMAND, sender=sender, to=to, payload=payload)


def wait_until(predicate, timeout=5.0, interval=0.005):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class Collector:
    def __init__(self):
        self.received = []
        self.event = threading.Event()

    def __call__(self, message):
        self.received.append(message)
        self.event.set()


# ---------------------------------------------------------------------------
# BatchConfig validation
# ---------------------------------------------------------------------------


class TestBatchConfig:
    def test_defaults_are_valid(self):
        config = BatchConfig()
        assert config.max_batch >= 1
        assert config.backpressure == "drop"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_queue": 0},
            {"max_delay": -0.1},
            {"backpressure": "explode"},
            {"retry_limit": 0},
            {"retry_backoff": 0.5},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            BatchConfig(**kwargs)


# ---------------------------------------------------------------------------
# RetryPolicy (pure arithmetic, fake attempts)
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(
            BatchConfig(
                retry_initial=0.1,
                retry_backoff=2.0,
                retry_limit=5,
                retry_max_delay=10.0,
            )
        )
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.8]

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(
            BatchConfig(
                retry_initial=0.1,
                retry_backoff=10.0,
                retry_limit=6,
                retry_max_delay=0.5,
            )
        )
        assert policy.delay(1) == 0.1
        assert policy.delay(2) == 0.5  # 1.0 capped
        assert policy.delay(5) == 0.5

    def test_budget_exhaustion_returns_none(self):
        policy = RetryPolicy(BatchConfig(retry_limit=3))
        assert policy.delay(2) is not None
        assert policy.delay(3) is None
        assert policy.delay(7) is None


# ---------------------------------------------------------------------------
# SendQueue (sans-I/O, fake clock)
# ---------------------------------------------------------------------------


class TestSendQueue:
    def make(self, **kwargs):
        return SendQueue("c1", BatchConfig(**kwargs))

    def test_push_outcomes(self):
        queue = self.make(max_batch=3, max_queue=4)
        assert queue.push(msg(), now=0.0) == SendQueue.QUEUED
        assert queue.push(msg(), now=0.0) == SendQueue.QUEUED
        assert queue.push(msg(), now=0.0) == SendQueue.FLUSH
        assert queue.push(msg(), now=0.0) == SendQueue.FLUSH
        assert queue.push(msg(), now=0.0) == SendQueue.OVERFLOW
        assert len(queue) == 4  # the overflowing message was not kept

    def test_deadline_tracks_first_enqueue(self):
        queue = self.make(max_batch=100, max_delay=0.5)
        assert queue.deadline() is None
        queue.push(msg(), now=10.0)
        queue.push(msg(), now=10.4)  # later pushes don't move it
        assert queue.deadline() == pytest.approx(10.5)
        assert not queue.due(now=10.49)
        assert queue.due(now=10.5)

    def test_deadline_recomputed_after_partial_pop(self):
        """A partial pop must not leave the tail with the popped head's
        (stale, already-elapsed) deadline — the oldest *remaining* item
        anchors the coalescing window."""
        queue = self.make(max_batch=100, max_queue=10, max_delay=1.0)
        queue.push(msg(seq=0), now=0.0)
        queue.push(msg(seq=1), now=0.5)
        queue.push(msg(seq=2), now=0.8)
        assert queue.deadline() == pytest.approx(1.0)
        items = queue.pop_batch(max_messages=1)
        assert [m.payload["seq"] for m, _ in items] == [0]
        # seq=1 (enqueued at 0.5) is now the oldest remaining item.
        assert queue.deadline() == pytest.approx(1.5)
        assert not queue.due(now=1.2)
        assert queue.due(now=1.5)
        queue.pop_batch(max_messages=1)
        assert queue.deadline() == pytest.approx(1.8)

    def test_due_on_full_batch_regardless_of_deadline(self):
        queue = self.make(max_batch=2, max_delay=999.0)
        queue.push(msg(), now=0.0)
        assert not queue.due(now=0.0)
        queue.push(msg(), now=0.0)
        assert queue.due(now=0.0)

    def test_pop_batch_returns_enqueue_pairs(self):
        queue = self.make(max_batch=10, max_delay=0.5)
        messages = [msg(seq=i) for i in range(3)]
        for i, m in enumerate(messages):
            queue.push(m, now=float(i))
        items = queue.pop_batch()
        assert [m.payload["seq"] for m, _ in items] == [0, 1, 2]
        assert [at for _, at in items] == [0.0, 1.0, 2.0]
        assert len(queue) == 0
        assert queue.deadline() is None

    def test_pop_batch_respects_max_batch(self):
        queue = self.make(max_batch=2, max_queue=10)
        for _ in range(5):
            queue.push(msg(), now=0.0)
        items = queue.pop_batch()
        assert len(items) == 2
        assert len(queue) == 3

    def test_requeue_front_preserves_fifo(self):
        queue = self.make(max_batch=2, max_queue=10)
        messages = [msg(seq=i) for i in range(4)]
        for m in messages:
            queue.push(m, now=0.0)
        items = queue.pop_batch()  # seq 0, 1
        queue.requeue_front(items)
        items2 = queue.pop_batch()
        assert [m.payload["seq"] for m, _ in items2] == [0, 1]
        items3 = queue.pop_batch()
        assert [m.payload["seq"] for m, _ in items3] == [2, 3]

    def test_requeue_front_restores_deadline(self):
        """Requeued items bring their original enqueue times back, so a
        failed write doesn't grant the batch a fresh coalescing window."""
        queue = self.make(max_batch=2, max_queue=10, max_delay=1.0)
        queue.push(msg(seq=0), now=5.0)
        queue.push(msg(seq=1), now=5.2)
        items = queue.pop_batch()
        assert queue.deadline() is None
        queue.requeue_front(items)
        assert queue.deadline() == pytest.approx(6.0)

    def test_drain_all_resets(self):
        queue = self.make(max_batch=2, max_queue=10)
        for _ in range(3):
            queue.push(msg(), now=0.0)
        queue.attempts = 2
        drained = queue.drain_all()
        assert len(drained) == 3
        assert all(isinstance(m, Message) for m in drained)
        assert len(queue) == 0
        assert queue.attempts == 0

    def test_force_push_exceeds_bound(self):
        queue = self.make(max_queue=1, max_batch=10)
        queue.push(msg(), now=0.0)
        assert queue.push(msg(), now=0.0) == SendQueue.OVERFLOW
        queue.force_push(msg(), now=0.0)
        assert len(queue) == 2

    def test_below_resume_level(self):
        queue = self.make(max_queue=4, max_batch=100)
        for _ in range(4):
            queue.push(msg(), now=0.0)
        assert not queue.below_resume_level()
        queue.pop_batch(max_messages=2)
        assert queue.below_resume_level()


# ---------------------------------------------------------------------------
# AioHostTransport over real sockets
# ---------------------------------------------------------------------------


@pytest.fixture
def aio_host(request):
    config = getattr(request, "param", None) or BatchConfig()
    inbox = Collector()
    transport = AioHostTransport(inbox, port=0, config=config)
    yield transport, inbox
    transport.close()


class TestAioHostTransport:
    def test_client_roundtrip(self, aio_host):
        transport, inbox = aio_host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg(sender="c1", to="", ping=True))
            assert inbox.event.wait(5.0)
            assert inbox.received[0].payload == {"ping": True}
            transport.send(msg(to="c1", pong=True))
            assert client_inbox.event.wait(5.0)
            assert client_inbox.received[0].payload == {"pong": True}
        finally:
            client.close()

    def test_send_after_close_raises(self):
        transport = AioHostTransport(lambda m: None, port=0)
        transport.close()
        with pytest.raises(TransportClosedError):
            transport.send(msg())

    @pytest.mark.parametrize(
        "aio_host",
        [BatchConfig(max_batch=100, max_delay=0.05)],
        indirect=True,
    )
    def test_deadline_flush_coalesces_burst(self, aio_host):
        """Messages sent within the window leave as one batched write."""
        transport, _ = aio_host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg(sender="c1", to="", hello=True))
            assert wait_until(lambda: "c1" in transport.connections())
            for i in range(5):
                transport.send(msg(to="c1", seq=i))
            assert wait_until(lambda: len(client_inbox.received) == 5)
            # FIFO order survives batching.
            assert [m.payload["seq"] for m in client_inbox.received] == list(
                range(5)
            )
            # Accounting lands after the write is drained, a beat after
            # the client can observe delivery — wait for it.
            stats = transport.stats
            assert wait_until(lambda: stats.batched_messages == 5)
            assert stats.batches < 5  # coalesced, not one write per message
        finally:
            client.close()

    @pytest.mark.parametrize(
        "aio_host",
        [BatchConfig(max_batch=2, max_delay=60.0)],
        indirect=True,
    )
    def test_full_batch_flushes_before_deadline(self, aio_host):
        """max_batch fires immediately even with a huge coalescing delay."""
        transport, _ = aio_host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg(sender="c1", to="", hello=True))
            assert wait_until(lambda: "c1" in transport.connections())
            transport.send(msg(to="c1", seq=0))
            transport.send(msg(to="c1", seq=1))
            assert wait_until(lambda: len(client_inbox.received) == 2, timeout=5.0)
        finally:
            client.close()

    def test_wire_batching_flushes_as_envelope(self):
        """With wire_batching on, a coalesced burst leaves as one batch
        envelope — counted in the envelope stats — and the legacy client
        decodes it transparently, order intact."""
        inbox = Collector()
        transport = AioHostTransport(
            inbox,
            port=0,
            config=BatchConfig(max_batch=100, max_delay=0.05),
            wire_batching=True,
        )
        client_inbox = Collector()
        client = None
        try:
            _, port = transport.address
            client = TcpClientTransport("c1", client_inbox, "127.0.0.1", port)
            client.send(msg(sender="c1", to="", hello=True))
            assert wait_until(lambda: "c1" in transport.connections())
            for i in range(5):
                transport.send(msg(to="c1", seq=i))
            assert wait_until(lambda: len(client_inbox.received) == 5)
            assert [m.payload["seq"] for m in client_inbox.received] == list(
                range(5)
            )
            stats = transport.stats
            assert stats.envelopes >= 1
            assert stats.envelope_messages >= 2
            assert stats.envelope_bytes > 0
            # Byte accounting is conserved: per-kind totals still sum to
            # the envelope payload bytes actually written.
            assert sum(stats.bytes_by_kind.values()) == stats.bytes
        finally:
            if client is not None:
                client.close()
            transport.close()

    @pytest.mark.parametrize(
        "aio_host",
        [
            BatchConfig(
                max_queue=3,
                backpressure="drop",
                retry_initial=30.0,  # park the writer in backoff
                retry_limit=5,
            )
        ],
        indirect=True,
    )
    def test_backpressure_drop_policy(self, aio_host):
        """Overflowing a ghost destination's queue drops with attribution."""
        transport, _ = aio_host
        for i in range(8):
            transport.send(msg(to="ghost", seq=i))
        assert wait_until(
            lambda: transport.stats.drops_by_reason[DROP_BACKPRESSURE] >= 4
        )
        assert transport.pending("ghost") <= 3

    @pytest.mark.parametrize(
        "aio_host",
        [
            BatchConfig(
                max_queue=3,
                backpressure="disconnect",
                retry_initial=30.0,
                retry_limit=5,
            )
        ],
        indirect=True,
    )
    def test_backpressure_disconnect_policy_evicts(self, aio_host):
        """A slow consumer is evicted and its whole queue dropped."""
        transport, inbox = aio_host
        _, port = transport.address
        client_inbox = Collector()
        client = TcpClientTransport("slow", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg(sender="slow", to="", hello=True))
            assert inbox.event.wait(5.0)
            assert wait_until(lambda: "slow" in transport.connections())
            # Stall the writer by making every flush fail: close the
            # kernel-level socket from the client side first.
            client.close()
            assert wait_until(lambda: "slow" not in transport.connections())
            for i in range(8):
                transport.send(msg(to="slow", seq=i))
            # Sends reach the loop one callback at a time: the 4th
            # overflows and evicts 1-4, then 5-7 refill the queue until
            # the 8th evicts again.  Only the final state is stable, so
            # wait for all eight drops before looking at the queue.
            drops = transport.stats.drops_by_reason
            assert wait_until(lambda: drops[DROP_DISCONNECTED] == 8)
            assert transport.pending("slow") == 0  # queue drained on evict
        finally:
            client.close()

    @pytest.mark.parametrize(
        "aio_host",
        [
            BatchConfig(
                max_queue=2,
                backpressure="block",
                retry_initial=0.02,
                retry_backoff=2.0,
                retry_limit=3,
            )
        ],
        indirect=True,
    )
    def test_backpressure_block_policy_gates_reads_then_recovers(self, aio_host):
        """``block`` pauses intake, keeps the messages, and reopens the
        gate once the stuck batch is dropped as undeliverable."""
        transport, _ = aio_host
        for i in range(5):
            transport.send(msg(to="ghost", seq=i))
        # Intake gate closes while the queue is past its bound...
        assert wait_until(lambda: not transport._read_gate.is_set())
        assert wait_until(lambda: transport.pending("ghost") >= 3)
        # ...and reopens once retries exhaust and the batch is dropped.
        assert wait_until(
            lambda: transport.stats.drops_by_reason[DROP_UNDELIVERABLE] >= 1
        )
        assert wait_until(lambda: transport._read_gate.is_set())

    @pytest.mark.parametrize(
        "aio_host",
        [
            BatchConfig(
                retry_initial=0.01,
                retry_backoff=2.0,
                retry_limit=3,
                retry_max_delay=0.05,
            )
        ],
        indirect=True,
    )
    def test_retry_budget_then_undeliverable(self, aio_host):
        """No connection: per-hop retry backs off, then drops the batch."""
        transport, _ = aio_host
        transport.send(msg(to="ghost", data="x"))
        assert wait_until(
            lambda: transport.stats.drops_by_reason[DROP_UNDELIVERABLE] >= 1
        )
        assert transport.stats.retries >= 2  # retry_limit - 1 backoffs
        assert transport.pending("ghost") == 0

    @pytest.mark.parametrize(
        "aio_host",
        [BatchConfig(retry_initial=0.05, retry_limit=4)],
        indirect=True,
    )
    def test_retry_delivers_to_late_connection(self, aio_host):
        """A message queued before its client connects arrives after."""
        transport, inbox = aio_host
        _, port = transport.address
        transport.send(msg(to="late", data="early-bird"))
        time.sleep(0.08)  # let at least one delivery attempt fail
        client_inbox = Collector()
        client = TcpClientTransport("late", client_inbox, "127.0.0.1", port)
        try:
            client.send(msg(sender="late", to="", hello=True))
            assert inbox.event.wait(5.0)
            assert client_inbox.event.wait(5.0)
            assert client_inbox.received[0].payload == {"data": "early-bird"}
            assert transport.stats.retries >= 1
        finally:
            client.close()
