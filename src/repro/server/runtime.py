"""The asyncio server runtime: an event loop hosting a sans-I/O endpoint.

The paper's central server (Figure 4) serializes every callback event and
couple update through one dispatch loop.  :class:`AsyncServerRuntime` is
that loop: the endpoint's ``handle_message`` only ever runs on the
event-loop thread, which accepts, reads, dispatches and writes for every
connection, with outbound batching, bounded send queues
and per-hop retry supplied by
:class:`~repro.net.aio.AioHostTransport` (see docs/RUNTIME.md).

The runtime is **protocol-transparent**: any endpoint with the
``handle_message(Message)`` / ``bind(transport)`` contract runs under it
unchanged — both :class:`~repro.server.server.CosoftServer` and
:class:`~repro.cluster.ShardedCosoftCluster` do.

Example::

    from repro.server.runtime import AsyncServerRuntime
    from repro.server.server import CosoftServer

    runtime = AsyncServerRuntime(CosoftServer())
    host, port = runtime.address
    ...                      # clients connect with TcpClientTransport
    runtime.close()
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Any, Awaitable, Dict, Optional, Tuple, TypeVar

from repro.net.aio import AioHostTransport, BatchConfig
from repro.obs.log import get_logger, log_event

T = TypeVar("T")

_log = get_logger("server.runtime")


class EventLoopThread:
    """A dedicated thread running one asyncio event loop forever.

    The loop is the runtime's single point of serialization: connection
    handling, message dispatch and batched writes are all callbacks on
    it.  Application threads talk to it through :meth:`run` /
    :meth:`call_soon`.
    """

    def __init__(self, name: str = "repro-aio-runtime"):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._main, name=name, daemon=True)
        self._thread.start()

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()
        # Drain cancellations scheduled during shutdown, then close.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self.loop.close()

    def run(self, coro: Awaitable[T], timeout: float = 10.0) -> T:
        """Run *coro* on the loop and block for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def call_soon(self, callback, *args) -> None:
        self.loop.call_soon_threadsafe(callback, *args)

    def stop(self, timeout: float = 5.0) -> None:
        if self.loop.is_running():
            self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=timeout)


class AsyncServerRuntime:
    """Run a sans-I/O central endpoint on an asyncio event loop.

    Parameters
    ----------
    endpoint:
        A :class:`CosoftServer`, :class:`ShardedCosoftCluster`, or any
        object with the same ``handle_message`` / ``bind`` contract.
    host / port:
        Listen address; port 0 picks a free port.
    config:
        Batching / backpressure / retry knobs (:class:`BatchConfig`).
    codec:
        The outbound wire codec (name or instance) for peers that have
        not yet negotiated one; inbound frames are auto-detected and
        each peer is answered in its own codec (docs/PROTOCOL.md).
    wire_batching:
        When true, multi-message flushes leave as batch envelopes
        (:meth:`~repro.net.codec.Codec.encode_batch`) instead of
        concatenated per-message frames (docs/PROTOCOL.md).
    """

    def __init__(
        self,
        endpoint: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: Optional[BatchConfig] = None,
        codec: object = "json",
        wire_batching: bool = False,
    ):
        self.endpoint = endpoint
        self.config = config if config is not None else BatchConfig()
        self._loop_thread = EventLoopThread()
        self.transport = AioHostTransport(
            endpoint.handle_message,
            host,
            port,
            config=self.config,
            loop=self._loop_thread.loop,
            codec=codec,
            wire_batching=wire_batching,
        )
        endpoint.bind(self.transport)
        self._closed = False
        addr = self.transport.address
        log_event(
            _log,
            logging.INFO,
            "runtime_started",
            host=addr[0],
            port=addr[1],
            endpoint=type(endpoint).__name__,
            backpressure=self.config.backpressure,
        )

    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) clients connect to."""
        addr = self.transport.address
        return addr[0], addr[1]

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop_thread.loop

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, Any]:
        """Runtime-level counters: traffic, batching, queues, endpoint."""
        transport = self.transport
        snapshot: Dict[str, Any] = {
            "traffic": transport.stats.snapshot(),
            "connections": len(transport.connections()),
            "backpressure": self.config.backpressure,
            "max_batch": self.config.max_batch,
            "max_delay": self.config.max_delay,
        }
        endpoint_stats = getattr(self.endpoint, "stats", None)
        if callable(endpoint_stats):
            snapshot["endpoint"] = endpoint_stats()
        return snapshot

    def close(self) -> None:
        """Stop accepting, drop connections, stop the loop thread."""
        if self._closed:
            return
        self._closed = True
        connections = len(self.transport.connections())
        self.transport.close()
        self._loop_thread.stop()
        log_event(
            _log, logging.INFO, "runtime_stopped", connections=connections
        )

    def __enter__(self) -> "AsyncServerRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
