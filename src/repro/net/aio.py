"""Asyncio server transport: batching, backpressure and per-hop retry.

The *server* side of every socket deployment is a single-threaded
:mod:`asyncio` protocol speaking the length-prefixed codec
(:mod:`repro.net.codec`).  By default batched frames are just
concatenated frames, which any client's
:class:`~repro.net.codec.StreamDecoder` already handles; with
``wire_batching`` on, each flush instead leaves as **one batch-envelope
frame** (:meth:`Codec.encode_batch`), which the same decoder splits
transparently — either way the change is wire-compatible and
protocol-transparent: :class:`CosoftServer` and
:class:`ShardedCosoftCluster` run under it unchanged, and the plain
:class:`~repro.net.tcp.TcpClientTransport` interoperates freely.
:class:`AioClientTransport` is the loop-serviced client counterpart: any
number of instances share one event loop instead of running a reader
thread each.

Three disciplines are layered on the outbound path (docs/RUNTIME.md):

**Batching (Nagle-style).**  Outbound messages are coalesced *per
destination* into one write.  A batch flushes when it reaches
``max_batch`` messages, or when ``max_delay`` elapses after the first
enqueue (``max_delay=0`` flushes at the end of the current event-loop
burst — one write per destination per inbound chunk, adding no latency).

**Backpressure.**  Every destination has a bounded send queue
(``max_queue`` messages).  A slow consumer overflows it; the
``backpressure`` policy decides what happens: ``"drop"`` discards the
overflowing message (attributed in ``TrafficStats.drops_by_reason``),
``"block"`` pauses inbound reading until the queue drains (classic
end-to-end backpressure), ``"disconnect"`` evicts the slow consumer.

**Per-hop retry.**  A flush that finds no live connection for its
destination (or a failed write) is retried with exponential backoff
(``retry_initial`` · ``retry_backoff``ᵃᵗᵗᵉᵐᵖᵗ, capped at
``retry_max_delay``) up to ``retry_limit`` attempts, then dropped as
``undeliverable``.  Retries can duplicate delivery; that is safe because
every message carries an idempotent ``msg_id`` and event broadcasts carry
per-origin sequence numbers the instances deduplicate on
(:meth:`ApplicationInstance.accept_remote_event`).

The batching and retry cores (:class:`SendQueue`, :class:`RetryPolicy`)
are **sans-I/O** and take explicit ``now`` arguments, so unit tests drive
them with a fake clock and never open a socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import socket
import threading
import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import DeliveryError, TransportClosedError
from repro.net.codec import Codec, StreamDecoder, get_codec
from repro.net.message import Message
from repro.obs.log import get_logger, log_event
from repro.net.tcp import TcpTransportBase
from repro.net.transport import (
    DROP_BACKPRESSURE,
    DROP_DISCONNECTED,
    DROP_UNDELIVERABLE,
    MessageHandler,
    TrafficStats,
    Transport,
)

#: Valid overflow policies for a bounded send queue.
BACKPRESSURE_POLICIES = ("drop", "block", "disconnect")

_log = get_logger("net.aio")

#: Kernel write-buffer size past which the inline end-of-burst flush
#: defers to a writer task (which awaits ``drain()``), so a slow
#: consumer backs pressure up into the bounded send queue instead of an
#: unbounded transport buffer.
_INLINE_BUFFER_LIMIT = 1 << 16


@dataclass(frozen=True)
class BatchConfig:
    """Tuning knobs of the asyncio runtime (see docs/RUNTIME.md).

    Attributes
    ----------
    max_batch:
        Flush a destination's queue once it holds this many messages.
    max_delay:
        Seconds after the first enqueue before a partial batch flushes.
        ``0`` means "end of the current event-loop burst": everything a
        handler burst produced for one destination leaves in one write,
        with no added latency.
    max_queue:
        Bound of the per-destination send queue, in messages.
    backpressure:
        Overflow policy: ``"drop"``, ``"block"`` or ``"disconnect"``.
    retry_initial:
        First per-hop retry delay, seconds.
    retry_backoff:
        Multiplier applied to the delay after every failed attempt.
    retry_limit:
        Delivery attempts before the batch is dropped as undeliverable.
    retry_max_delay:
        Upper bound on one backoff delay, seconds.
    """

    max_batch: int = 64
    max_delay: float = 0.0
    max_queue: int = 1024
    backpressure: str = "drop"
    retry_initial: float = 0.05
    retry_backoff: float = 2.0
    retry_limit: int = 5
    retry_max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")


class RetryPolicy:
    """Exponential backoff schedule for per-hop delivery retries.

    Pure arithmetic over an attempt counter — no clocks, no sockets —
    so tests can table the whole schedule.
    """

    def __init__(self, config: BatchConfig):
        self._initial = config.retry_initial
        self._backoff = config.retry_backoff
        self._limit = config.retry_limit
        self._max_delay = config.retry_max_delay

    def delay(self, attempt: int) -> Optional[float]:
        """Backoff before retry number *attempt* (1-based).

        Returns ``None`` once the attempt budget is exhausted — the
        caller must drop the batch as undeliverable.
        """
        if attempt >= self._limit:
            return None
        return min(
            self._initial * self._backoff ** (attempt - 1), self._max_delay
        )

    def schedule(self) -> List[float]:
        """The full backoff schedule (for documentation and tests)."""
        out = []
        for attempt in range(1, self._limit):
            delay = self.delay(attempt)
            assert delay is not None
            out.append(delay)
        return out


class SendQueue:
    """One destination's bounded outbound queue (sans-I/O).

    Holds ``(message, enqueued_at)`` pairs — encoding happens at flush
    time, where the whole batch is in hand and can leave as one batch
    envelope — and answers the flush-trigger questions — *is a full
    batch ready?*, *has the deadline passed?* — against an explicit
    ``now`` so a fake clock can drive it.
    """

    #: push() outcomes.
    QUEUED = "queued"
    FLUSH = "flush"        # queue reached max_batch: flush immediately
    OVERFLOW = "overflow"  # queue is full: apply the backpressure policy

    def __init__(self, destination: str, config: BatchConfig):
        self.destination = destination
        self.config = config
        self._items: List[Tuple[Message, float]] = []
        #: Failed delivery attempts for the batch currently at the head.
        self.attempts = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, message: Message, now: float) -> str:
        """Append one message; returns the flush decision."""
        if len(self._items) >= self.config.max_queue:
            return self.OVERFLOW
        self._items.append((message, now))
        if len(self._items) >= self.config.max_batch:
            return self.FLUSH
        return self.QUEUED

    def force_push(self, message: Message, now: float) -> None:
        """Append past the bound (the ``block`` policy keeps the message
        and throttles intake instead of discarding)."""
        self._items.append((message, now))

    def deadline(self) -> Optional[float]:
        """When the pending partial batch must flush (None when empty).

        Computed from the oldest *remaining* item's enqueue time: after
        a partial pop the tail gets its own full coalescing window
        instead of inheriting the popped head's (stale) one.
        """
        if not self._items:
            return None
        return self._items[0][1] + self.config.max_delay

    def due(self, now: float) -> bool:
        """True when the queue should flush: full batch or deadline hit."""
        if not self._items:
            return False
        if len(self._items) >= self.config.max_batch:
            return True
        deadline = self.deadline()
        return deadline is not None and now >= deadline

    def pop_batch(
        self, max_messages: Optional[int] = None
    ) -> List[Tuple[Message, float]]:
        """Remove and return up to *max_messages* (message, enqueued_at)
        pairs; the caller encodes them (:meth:`requeue_front` restores
        them verbatim on a failed write)."""
        limit = max_messages if max_messages is not None else self.config.max_batch
        taken = self._items[:limit]
        del self._items[:limit]
        return taken

    def requeue_front(self, items: List[Tuple[Message, float]]) -> None:
        """Put a failed batch back at the head, preserving FIFO order."""
        self._items[:0] = items

    def drain_all(self) -> List[Message]:
        """Empty the queue, returning the abandoned messages."""
        out = [message for message, _ in self._items]
        self._items.clear()
        self.attempts = 0
        return out

    def below_resume_level(self) -> bool:
        """True once a blocked queue has drained enough to resume intake."""
        return len(self._items) <= self.config.max_queue // 2


class _Conn:
    """One accepted client connection."""

    __slots__ = ("peer_id", "reader", "writer")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_id: Optional[str] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.peer_id = peer_id


class AioHostTransport(Transport):
    """The server's asyncio transport: one event loop, zero per-connection
    threads, batched writes.

    Parameters
    ----------
    handler:
        The bound endpoint's ``handle_message`` (a sans-I/O state
        machine).  Invoked only from the event-loop thread, serialized
        with application threads through :meth:`guard`.
    host / port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    config:
        The :class:`BatchConfig` governing batching, backpressure and
        retry.
    loop:
        A running event loop to join (the
        :class:`~repro.server.runtime.AsyncServerRuntime` passes its
        own); ``None`` starts a private loop thread.
    wire_batching:
        When true, every multi-message flush leaves as one batch
        envelope (:meth:`Codec.encode_batch`) instead of concatenated
        per-message frames — one header and one length check amortized
        over the batch.  Defaults off for byte-exact compatibility.
    """

    def __init__(
        self,
        handler: MessageHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        local_id: str = "server",
        config: Optional[BatchConfig] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        codec: object = "json",
        wire_batching: bool = False,
    ):
        self._local_id = local_id
        self._handler = handler
        self._codec: Codec = get_codec(codec)
        self._wire_batching = bool(wire_batching)
        #: Per-peer codec negotiation: each peer is answered in the codec
        #: of its own frames (detected by its connection's StreamDecoder).
        self._peer_codecs: Dict[str, Codec] = {}
        self.config = config if config is not None else BatchConfig()
        self._retry = RetryPolicy(self.config)
        self._stats = TrafficStats()
        self._cond = threading.Condition(threading.RLock())
        self._closed = False

        self._conns: Dict[str, _Conn] = {}
        self._queues: Dict[str, SendQueue] = {}
        #: Wakes a writer sleeping out its coalescing window when the
        #: queue reaches a full batch early (loop-thread only).
        self._flush_events: Dict[str, asyncio.Event] = {}
        self._writer_tasks: Dict[str, asyncio.Task] = {}
        self._reader_tasks: set = set()
        #: Destinations touched since the last inline flush, drained by
        #: one scheduled ``_flush_dirty`` per loop burst (loop-thread
        #: only).  Writer tasks are the fallback for the slow paths:
        #: missing connection, retry backoff, coalescing deadline, or a
        #: kernel write buffer past :data:`_INLINE_BUFFER_LIMIT`.
        self._dirty: set = set()
        self._flush_scheduled = False
        #: Identity of the loop thread, for a cheap "am I on the loop?"
        #: check on the send hot path (set from the loop at bootstrap).
        self._loop_tid: Optional[int] = None

        self._owns_loop = loop is None
        if loop is None:
            self._loop = asyncio.new_event_loop()
            self._loop_thread = threading.Thread(
                target=self._loop.run_forever, name="aio-host-loop", daemon=True
            )
            self._loop_thread.start()
        else:
            self._loop = loop
            self._loop_thread = None

        # Created on the loop; events must be born there.
        async def _bootstrap() -> Tuple[asyncio.AbstractServer, asyncio.Event]:
            self._loop_tid = threading.get_ident()
            server = await asyncio.start_server(self._serve_connection, host, port)
            gate = asyncio.Event()
            gate.set()
            return server, gate

        self._server, self._read_gate = asyncio.run_coroutine_threadsafe(
            _bootstrap(), self._loop
        ).result(timeout=10.0)
        self.address = self._server.sockets[0].getsockname()

    # ------------------------------------------------------------------
    # Transport contract
    # ------------------------------------------------------------------

    @property
    def local_id(self) -> str:
        return self._local_id

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    @contextlib.contextmanager
    def guard(self) -> Iterator[None]:
        """Serialize application threads with event-loop dispatch."""
        with self._cond:
            yield

    def recv(self, message: Message) -> None:
        """Dispatch one inbound message into the endpoint handler."""
        with self._cond:
            if self._closed:
                return
            self._handler(message)
            self._cond.notify_all()

    def send(self, message: Message) -> None:
        """Queue *message* for its destination's next batch.

        Never blocks and never raises for an unreachable destination —
        delivery is attempted with per-hop retry and accounted in
        :attr:`stats` either way.  Encoding happens at flush time, where
        the whole batch is in hand (and the peer's answer codec is
        freshest).
        """
        if self._closed:
            raise TransportClosedError("aio host transport is closed")
        if self._on_loop():
            self._enqueue(message)
        else:
            self._loop.call_soon_threadsafe(self._enqueue, message)

    def drive(self, predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
        """Wait (wall clock) until *predicate* is true; the condition is
        notified after every inbound dispatch."""
        end = _time.monotonic() + timeout
        with self._cond:
            while not predicate():
                remaining = end - _time.monotonic()
                if remaining <= 0:
                    return bool(predicate())
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True

        def _shutdown() -> None:
            for task in list(self._writer_tasks.values()):
                task.cancel()
            for task in list(self._reader_tasks):
                task.cancel()
            for conn in list(self._conns.values()):
                with contextlib.suppress(Exception):
                    conn.writer.close()
            self._conns.clear()
            self._server.close()
            if self._owns_loop:
                self._loop.call_soon(self._loop.stop)

        if self._loop.is_running():
            self._loop.call_soon_threadsafe(_shutdown)
            if self._owns_loop and self._loop_thread is not None:
                self._loop_thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Event-loop internals
    # ------------------------------------------------------------------

    def _on_loop(self) -> bool:
        return threading.get_ident() == self._loop_tid

    def _now(self) -> float:
        return self._loop.time()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(reader, writer)
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
        decoder = StreamDecoder()
        codec_name: Optional[str] = None
        try:
            while not self._closed:
                # Backpressure policy "block": stop reading while any
                # destination queue is past its bound.
                if not self._read_gate.is_set():
                    await self._read_gate.wait()
                data = await reader.read(65536)
                if not data:
                    break
                messages = decoder.feed(data)
                if not messages:
                    continue
                # Dispatch the whole chunk under one guard acquisition:
                # same serialization as per-message recv(), without
                # paying the lock round-trip per message.
                with self._cond:
                    if self._closed:
                        break
                    if conn.peer_id is None:
                        conn.peer_id = messages[0].sender
                        self._conns[conn.peer_id] = conn
                        self._kick_writer(conn.peer_id)
                    if decoder.last_codec != codec_name:
                        # Negotiation: answer the peer in its own codec.
                        codec_name = decoder.last_codec
                        self._peer_codecs[conn.peer_id] = get_codec(codec_name)
                    for message in messages:
                        self._handler(message)
                    self._cond.notify_all()
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            log_event(
                _log,
                logging.WARNING,
                "connection_error",
                peer=conn.peer_id,
                error=type(exc).__name__,
            )
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._reader_tasks.discard(task)
            if conn.peer_id is not None and self._conns.get(conn.peer_id) is conn:
                del self._conns[conn.peer_id]
                self._peer_codecs.pop(conn.peer_id, None)
                log_event(
                    _log, logging.DEBUG, "connection_closed", peer=conn.peer_id
                )
            with contextlib.suppress(Exception):
                writer.close()

    def _enqueue(self, message: Message) -> None:
        """Loop-thread only: queue one message and poke the writer."""
        if self._closed:
            return
        dest = message.to
        queue = self._queues.get(dest)
        if queue is None:
            queue = SendQueue(dest, self.config)
            self._queues[dest] = queue
        # Burst mode never consults the coalescing deadline, so skip the
        # clock read on the hot path.
        now = self._now() if self.config.max_delay > 0 else 0.0
        outcome = queue.push(message, now)
        if outcome == SendQueue.OVERFLOW:
            self._on_overflow(queue, message)
            return
        if outcome == SendQueue.FLUSH:
            event = self._flush_events.get(dest)
            if event is not None:
                event.set()
        self._dirty.add(dest)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush_dirty)

    def _codec_for(self, dest: str) -> Codec:
        codec = self._peer_codecs.get(dest)
        return codec if codec is not None else self._codec

    def _encode_payload(
        self, dest: str, items: List[Tuple[Message, float]]
    ) -> Tuple[bytes, Optional[List[int]]]:
        """One popped batch as wire bytes (loop-thread only).

        Returns ``(payload, sizes)``: per-message frame sizes when the
        batch leaves as concatenated frames, or ``None`` when it leaves
        as one batch envelope (whose shared header bytes have no exact
        per-message attribution).
        """
        codec = self._codec_for(dest)
        if self._wire_batching and len(items) > 1:
            batch = getattr(codec, "encode_batch", None)
            if batch is not None:
                return batch([message for message, _ in items]), None
        frames = [codec.encode(message) for message, _ in items]
        return b"".join(frames), [len(frame) for frame in frames]

    def _record_flush(
        self,
        dest: str,
        items: List[Tuple[Message, float]],
        payload: bytes,
        sizes: Optional[List[int]],
    ) -> None:
        """Account one successfully written batch in :attr:`stats`."""
        if sizes is None:
            messages = [message for message, _ in items]
            self._stats.record_many(messages, len(payload), dest)
            self._stats.record_envelope(len(messages), len(payload))
        else:
            for (message, _), size in zip(items, sizes):
                self._stats.record(message, size, dest)
        self._stats.record_batch(len(items))

    def _drop_size(self, dest: str, message: Message) -> int:
        """Byte accounting for a message dropped before any write (cold
        path; the per-codec frame memo makes repeats cheap)."""
        return self._codec_for(dest).wire_size(message)

    def _flush_dirty(self) -> None:
        """End-of-burst inline flush (loop-thread only).

        ``_enqueue`` collects touched destinations and schedules one run
        of this per loop burst: every send the current handler burst
        produced is already queued by the time the callback fires, so
        each destination's accumulation is written with a plain
        non-blocking ``write()`` — no per-destination task spawn, no
        extra scheduler hops.  Destinations that need to wait (no
        connection yet, retry backoff in progress, a coalescing window
        still open, or a swollen kernel write buffer) are handed to a
        writer task instead, which is where all sleeping happens.
        """
        self._flush_scheduled = False
        dirty, self._dirty = self._dirty, set()
        for dest in dirty:
            queue = self._queues.get(dest)
            if queue is None or not len(queue):
                continue
            if queue.attempts:
                self._kick_writer(dest)
                continue
            if (
                self.config.max_delay > 0
                and len(queue) < self.config.max_batch
            ):
                self._kick_writer(dest)  # wait out the deadline
                continue
            conn = self._conns.get(dest)
            if conn is None:
                self._kick_writer(dest)  # park in retry backoff
                continue
            while len(queue) and (
                self.config.max_delay <= 0
                or len(queue) >= self.config.max_batch
            ):
                if (
                    conn.writer.transport.get_write_buffer_size()
                    > _INLINE_BUFFER_LIMIT
                ):
                    self._kick_writer(dest)  # drain under backpressure
                    break
                items = queue.pop_batch()
                payload, sizes = self._encode_payload(dest, items)
                try:
                    conn.writer.write(payload)
                except (ConnectionError, OSError) as exc:
                    queue.requeue_front(items)
                    self._kick_writer(dest)
                    log_event(
                        _log,
                        logging.INFO,
                        "write_failed",
                        destination=dest,
                        batch=len(items),
                        error=type(exc).__name__,
                    )
                    break
                self._record_flush(dest, items, payload, sizes)
            else:
                if len(queue):
                    self._kick_writer(dest)  # deadline remainder
            if not self._read_gate.is_set() and queue.below_resume_level():
                self._read_gate.set()

    def _on_overflow(self, queue: SendQueue, message: Message) -> None:
        policy = self.config.backpressure
        dest = queue.destination
        if policy == "drop":
            self._stats.record_drop(
                message, self._drop_size(dest, message), reason=DROP_BACKPRESSURE
            )
            log_event(
                _log,
                logging.WARNING,
                "send_queue_overflow",
                destination=queue.destination,
                policy=policy,
                kind=message.kind,
            )
        elif policy == "block":
            # Keep the message, throttle intake until the queue drains.
            queue.force_push(message, self._now())
            self._read_gate.clear()
            self._kick_writer(queue.destination)
            log_event(
                _log,
                logging.INFO,
                "read_gate_closed",
                destination=queue.destination,
                queued=len(queue),
            )
        else:  # disconnect: evict the slow consumer
            self._stats.record_drop(
                message, self._drop_size(dest, message), reason=DROP_DISCONNECTED
            )
            dropped_count = 1
            for dropped in queue.drain_all():
                self._stats.record_drop(
                    dropped, self._drop_size(dest, dropped), reason=DROP_DISCONNECTED
                )
                dropped_count += 1
            conn = self._conns.pop(queue.destination, None)
            if conn is not None:
                with contextlib.suppress(Exception):
                    conn.writer.close()
            log_event(
                _log,
                logging.WARNING,
                "slow_consumer_evicted",
                destination=queue.destination,
                dropped=dropped_count,
            )

    def _kick_writer(self, dest: str) -> None:
        """Ensure a writer task is draining *dest*'s queue."""
        task = self._writer_tasks.get(dest)
        if task is not None and not task.done():
            return
        queue = self._queues.get(dest)
        if queue is None or not len(queue):
            return
        self._writer_tasks[dest] = self._loop.create_task(
            self._writer_loop(dest, queue)
        )

    async def _writer_loop(self, dest: str, queue: SendQueue) -> None:
        """Drain one destination's queue: batch, write, retry, drop.

        The task exits when the queue empties; the next enqueue spawns a
        fresh one.  ``await writer.drain()`` propagates the kernel's TCP
        backpressure up into the queue bound.
        """
        try:
            while len(queue) and not self._closed:
                if (
                    self.config.max_delay > 0
                    and len(queue) < self.config.max_batch
                ):
                    # Nagle-style deadline: wait out the coalescing window
                    # (or until a full batch accumulates).
                    deadline = queue.deadline()
                    remaining = (
                        deadline - self._now() if deadline is not None else 0
                    )
                    if remaining > 0:
                        # Sleep out the window, but let a full batch cut
                        # it short (a push to max_batch sets the event).
                        event = self._flush_events.setdefault(
                            dest, asyncio.Event()
                        )
                        event.clear()
                        with contextlib.suppress(asyncio.TimeoutError):
                            await asyncio.wait_for(event.wait(), remaining)
                else:
                    # Burst mode: yield once so the handler burst that is
                    # currently running can finish filling the queue.
                    await asyncio.sleep(0)
                conn = self._conns.get(dest)
                if conn is None:
                    if not await self._backoff_or_drop(queue):
                        continue  # dropped everything; queue may refill
                    continue
                items = queue.pop_batch()
                payload, sizes = self._encode_payload(dest, items)
                try:
                    conn.writer.write(payload)
                    await conn.writer.drain()
                except (ConnectionError, OSError) as exc:
                    # The write may have partially left: retrying can
                    # duplicate delivery, which idempotent msg ids make
                    # safe.  Put the batch back and back off.
                    log_event(
                        _log,
                        logging.INFO,
                        "write_failed",
                        destination=dest,
                        batch=len(items),
                        error=type(exc).__name__,
                    )
                    queue.requeue_front(items)
                    if not await self._backoff_or_drop(queue):
                        continue
                    continue
                queue.attempts = 0
                self._record_flush(dest, items, payload, sizes)
                if not self._read_gate.is_set() and queue.below_resume_level():
                    self._read_gate.set()
        except asyncio.CancelledError:
            pass
        finally:
            self._writer_tasks.pop(dest, None)
            # A race window: messages enqueued after the final emptiness
            # check but before the pop above would strand; re-kick.
            if not self._closed and len(queue):
                self._kick_writer(dest)

    async def _backoff_or_drop(self, queue: SendQueue) -> bool:
        """Handle one failed delivery attempt for *queue*'s head batch.

        Returns True when the batch was dropped (budget exhausted); False
        when a backoff was slept and delivery should be retried.
        """
        queue.attempts += 1
        delay = self._retry.delay(queue.attempts)
        if delay is None:
            dropped = 0
            for message in queue.drain_all():
                self._stats.record_drop(
                    message,
                    self._drop_size(queue.destination, message),
                    reason=DROP_UNDELIVERABLE,
                )
                dropped += 1
            if not self._read_gate.is_set():
                self._read_gate.set()
            log_event(
                _log,
                logging.WARNING,
                "batch_undeliverable",
                destination=queue.destination,
                dropped=dropped,
                attempts=queue.attempts,
            )
            return True
        self._stats.record_retry()
        log_event(
            _log,
            logging.DEBUG,
            "delivery_retry",
            destination=queue.destination,
            attempt=queue.attempts,
            delay=delay,
        )
        await asyncio.sleep(delay)
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def connections(self) -> Tuple[str, ...]:
        """Peer ids with a live connection (loop-thread consistent view)."""
        return tuple(self._conns)

    def pending(self, destination: str) -> int:
        """Messages queued but not yet written for *destination*."""
        queue = self._queues.get(destination)
        return len(queue) if queue is not None else 0


class AioClientTransport(TcpTransportBase):
    """An application instance's server connection, serviced by a shared
    event loop.

    The thread-per-connection client (:class:`~repro.net.tcp.TcpClientTransport`)
    costs one reader thread per instance; a 64-instance in-process
    deployment therefore runs 64 reader threads beside the host's.  This
    client instead parks its connection on an event loop — normally the
    :class:`~repro.server.runtime.AsyncServerRuntime`'s own, so one
    thread services every connection of the whole deployment.

    The serialization contract is unchanged: the endpoint handler runs
    under the transport condition (:meth:`TcpTransportBase.recv` shape),
    application threads synchronize through ``guard``/``drive``, and the
    wire format is the shared length-prefixed codec.  :meth:`send` may be
    called from any thread, including the loop thread itself (a handler
    answering a broadcast): frames are always handed to the loop and
    written there, never from the caller.

    Must be constructed from outside the loop thread (the constructor
    blocks on the connection being established).
    """

    def __init__(
        self,
        local_id: str,
        handler: MessageHandler,
        host: str,
        port: int,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        connect_timeout: float = 5.0,
        codec: object = "json",
    ):
        super().__init__(local_id, handler, codec=codec)
        self._owns_loop = loop is None
        if loop is None:
            self._loop = asyncio.new_event_loop()
            self._loop_thread: Optional[threading.Thread] = threading.Thread(
                target=self._loop.run_forever,
                name=f"aio-client-{local_id}",
                daemon=True,
            )
            self._loop_thread.start()
        else:
            self._loop = loop
            self._loop_thread = None

        async def _bootstrap() -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            reader, writer = await asyncio.open_connection(host, port)
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return reader, writer

        self._stream_reader, self._writer = asyncio.run_coroutine_threadsafe(
            _bootstrap(), self._loop
        ).result(connect_timeout)
        self._reader_future = asyncio.run_coroutine_threadsafe(
            self._read_loop(), self._loop
        )

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosedError(
                f"client transport {self._local_id!r} is closed"
            )
        frame = self._codec.encode(message)
        try:
            self._loop.call_soon_threadsafe(self._write_frame, frame)
        except RuntimeError as exc:  # loop shut down underneath us
            raise DeliveryError(f"send to server failed: {exc}") from exc
        self.stats.record(message, len(frame), "server")

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()

        def _shutdown() -> None:
            with contextlib.suppress(Exception):
                self._writer.close()
            if self._owns_loop:
                self._loop.call_soon(self._loop.stop)

        if self._loop.is_running():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(_shutdown)
            if self._owns_loop and self._loop_thread is not None:
                self._loop_thread.join(timeout=5.0)

    # Loop internals ----------------------------------------------------

    def _write_frame(self, frame: bytes) -> None:
        if self._closed:
            return
        with contextlib.suppress(ConnectionError, OSError):
            self._writer.write(frame)

    async def _read_loop(self) -> None:
        decoder = StreamDecoder()
        try:
            while not self._closed:
                data = await self._stream_reader.read(65536)
                if not data:
                    break
                messages = decoder.feed(data)
                if not messages:
                    continue
                # One guard acquisition per chunk (same dispatch shape as
                # the host side): the instance handler never sees
                # concurrent calls, and application threads waiting in
                # ``drive`` wake once per burst.
                with self._cond:
                    if self._closed:
                        break
                    for message in messages:
                        self._handler(message)
                    self._cond.notify_all()
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            if not self._closed:
                log_event(
                    _log,
                    logging.WARNING,
                    "client_connection_lost",
                    local_id=self._local_id,
                    error=type(exc).__name__,
                )
        except asyncio.CancelledError:
            pass
        finally:
            with self._cond:
                self._cond.notify_all()
