"""Plain-socket client transport: the protocol over TCP.

Topology is a star, exactly like the paper's implementation: every
application instance holds one TCP connection to the central server; all
communication is mediated by the server ("these messages are directly
handled by our communication server", §3.4).  The server side is the
asyncio runtime (:mod:`repro.server.runtime`); this module is the
interop client that joins it over a plain socket and a reader thread
(:meth:`~repro.core.instance.ApplicationInstance.connect_tcp`).

Threading model
---------------
* The client runs one reader thread.
* Each endpoint's message handler is *serialized*: the transport owns a
  condition variable and invokes the handler under its lock, so the sans-IO
  cores never see concurrent calls.  Application threads synchronize with
  the same lock through :meth:`TcpTransportBase.guard` and block in
  :meth:`drive`, which waits on the condition (released while waiting, so
  the reader thread can make progress).
"""

from __future__ import annotations

import contextlib
import logging
import socket
import threading
import time
from typing import Callable, Iterator

from repro.errors import DeliveryError, TransportClosedError
from repro.net.codec import Codec, StreamDecoder, get_codec
from repro.net.message import Message
from repro.net.transport import MessageHandler, TrafficStats, Transport
from repro.obs.log import get_logger, log_event

_log = get_logger("net.tcp")


class TcpTransportBase(Transport):
    """Shared machinery of the socket client transports (plain and aio)."""

    def __init__(
        self,
        local_id: str,
        handler: MessageHandler,
        *,
        codec: object = "json",
    ):
        self._local_id = local_id
        self._handler = handler
        self._codec: Codec = get_codec(codec)
        self._cond = threading.Condition(threading.RLock())
        self._closed = False
        self._stats = TrafficStats()

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
        """Serialize application-thread access with the reader thread(s)."""
        with self._cond:
            yield

    def recv(self, message: Message) -> None:
        """Run the endpoint handler under the serialization lock."""
        with self._cond:
            if self._closed:
                return
            self._handler(message)
            self._cond.notify_all()

    def drive(self, predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
        end = time.monotonic() + timeout
        with self._cond:
            while not predicate():
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return bool(predicate())
                self._cond.wait(remaining)
            return True

    @property
    def codec(self) -> Codec:
        """This endpoint's outbound codec (inbound is auto-detected)."""
        return self._codec

    def _send_on(self, sock: socket.socket, message: Message) -> int:
        frame = self._codec.encode(message)
        sock.sendall(frame)
        return len(frame)


class TcpClientTransport(TcpTransportBase):
    """An application instance's connection to the central server."""

    def __init__(
        self,
        local_id: str,
        handler: MessageHandler,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        codec: object = "json",
    ):
        super().__init__(local_id, handler, codec=codec)
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = threading.Thread(
            target=self._reader_loop, name=f"tcp-client-{local_id}", daemon=True
        )
        self._reader.start()

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosedError(
                f"client transport {self._local_id!r} is closed"
            )
        try:
            size = self._send_on(self._sock, message)
        except OSError as exc:
            raise DeliveryError(f"send to server failed: {exc}") from exc
        self.stats.record(message, size, "server")

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()

    # Internal ----------------------------------------------------------

    def _reader_loop(self) -> None:
        decoder = StreamDecoder()
        try:
            while not self._closed:
                data = self._sock.recv(65536)
                if not data:
                    break
                for message in decoder.feed(data):
                    self.recv(message)
        except OSError as exc:
            if not self._closed:
                log_event(
                    _log,
                    logging.WARNING,
                    "client_connection_lost",
                    local_id=self._local_id,
                    error=type(exc).__name__,
                )
        finally:
            with self._cond:
                self._cond.notify_all()
