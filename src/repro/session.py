"""The unified :class:`Session` facade: one-call wiring of a deployment.

Tests, benchmarks and examples all need the same setup — a central
endpoint (server or sharded cluster), a network, and N application
instances — so this module packages it behind **one** class::

    session = Session()                              # simulated network
    session = Session(backend="aio")                 # real sockets,
                                                     # asyncio runtime
    session = Session(backend="aio", shards=4)       # same, 4-shard cluster

Backends
--------
``"memory"``
    Deterministic discrete-event simulation with a latency model — the
    default for tests and benchmarks.  :meth:`Session.pump` delivers all
    in-flight messages; time is simulated.
``"aio"``
    Real localhost TCP sockets under the asyncio server runtime
    (:mod:`repro.server.runtime`): one event loop, outbound batching,
    bounded send queues with backpressure, and per-hop retry — see
    docs/RUNTIME.md.  Session-created instances join the runtime's loop
    through :class:`~repro.net.aio.AioClientTransport` (no reader thread
    per instance); plain TCP clients
    (:meth:`~repro.core.instance.ApplicationInstance.connect_tcp`) speak
    the same wire protocol and interoperate.

Every backend accepts ``shards=N`` to swap the single
:class:`~repro.server.server.CosoftServer` for a
:class:`~repro.cluster.ShardedCosoftCluster`; instances are wired
identically either way because the cluster speaks the same protocol on
the same endpoint.

All knobs live on :class:`SessionConfig`; keyword arguments to
:class:`Session` are conveniences that build one::

    session = Session(backend="aio", max_batch=128, backpressure="block")
    session = Session(config=SessionConfig(backend="memory", loss_rate=0.01))
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cluster import ShardedCosoftCluster
from repro.core.compat import CorrespondenceRegistry
from repro.core.instance import ApplicationInstance
from repro.net.aio import BatchConfig
from repro.net.clock import SimClock
from repro.net.codec import default_codec_name, default_wire_batching, get_codec
from repro.net.memory import MemoryNetwork
from repro.net.registry import BACKENDS, get_communicator
from repro.net.transport import TrafficStats
from repro.obs import (
    Observability,
    ObservabilityConfig,
    build_observability,
)
from repro.persist import PersistenceConfig
from repro.server.permissions import AccessControl
from repro.server.runtime import AsyncServerRuntime
from repro.server.server import SERVER_ID, CosoftServer

#: Either kind of central endpoint a session can front.
ServerLike = Union[CosoftServer, ShardedCosoftCluster]

# ``BACKENDS`` (re-exported from :mod:`repro.net.registry`) is a *live*
# view of the communicator registry: the built-in pair plus anything
# registered via ``register_communicator`` or the ``repro.communicators``
# entry-point group (docs/COMMUNICATORS.md).

#: BatchConfig field names accepted as Session(...) keyword conveniences.
_BATCH_FIELDS = (
    "max_batch",
    "max_delay",
    "max_queue",
    "backpressure",
    "retry_initial",
    "retry_backoff",
    "retry_limit",
    "retry_max_delay",
)


def _default_observability() -> Union[bool, None]:
    """Default for ``SessionConfig.observability``: the environment knob.

    ``REPRO_OBSERVABILITY=1`` enables the full layer for every Session
    built without an explicit setting — how CI runs the whole tier-1
    suite instrumented without touching any test.
    """
    value = os.environ.get("REPRO_OBSERVABILITY", "").strip().lower()
    return value in ("1", "true", "yes", "on") or None


def _default_persistence() -> Union[None, bool, str]:
    """Default for ``SessionConfig.persistence``: the environment knob.

    ``REPRO_PERSISTENCE=1`` journals every Session into an ephemeral
    directory (removed at close) — how CI runs the integration suite as
    a recovery-chaos pass without touching any test.  A path value
    journals into that directory and keeps it.
    """
    value = os.environ.get("REPRO_PERSISTENCE", "").strip()
    if not value or value.lower() in ("0", "false", "no", "off"):
        return None
    if value.lower() in ("1", "true", "yes", "on"):
        return True
    return value


def _resolve_persistence(
    setting: Union[None, bool, str, PersistenceConfig],
) -> Tuple[Optional[PersistenceConfig], Optional[str]]:
    """Normalize the persistence knob to ``(config, ephemeral_dir)``.

    *ephemeral_dir* is a tempdir the session owns and removes at close —
    only created for the bare ``True`` setting, where the caller asked
    for journaling but named no place to keep it.
    """
    if setting is None or setting is False:
        return None, None
    if isinstance(setting, PersistenceConfig):
        return setting, None
    if setting is True:
        ephemeral = tempfile.mkdtemp(prefix="repro-persist-")
        return PersistenceConfig(directory=ephemeral), ephemeral
    return PersistenceConfig(directory=str(setting)), None


@dataclass
class SessionConfig:
    """Everything a :class:`Session` needs to build a deployment."""

    backend: str = "memory"
    #: 0 = single server; N >= 1 = sharded cluster with N shards.
    shards: int = 0
    #: Run each shard as a supervised OS process (docs/CLUSTER.md): the
    #: router spawns one ``repro.cluster.worker`` per shard, each with
    #: its own journal, heartbeat-monitored and restarted-with-recovery
    #: on crash.  Requires ``backend="aio"`` and ``shards >= 1``.  The
    #: journals live under the ``persistence`` directory when one is
    #: named, else in an ephemeral directory removed at close.
    processes: bool = False
    #: Wire codec for every transport of the deployment: ``"json"`` (the
    #: debugging-friendly historical format), ``"binary"`` (struct-packed
    #: envelope, interned names, varint lengths — docs/PROTOCOL.md), any
    #: registered codec name, or a ready :class:`~repro.net.codec.Codec`.
    #: Codecs negotiate per connection, so sessions with different codecs
    #: interoperate.  Defaults honour the ``REPRO_CODEC`` environment
    #: variable.
    codec: object = field(default_factory=default_codec_name)
    #: Batch-envelope wire path (docs/PROTOCOL.md): when true, every
    #: multi-message flush on the aio backend leaves as one batch
    #: envelope instead of concatenated per-message frames, and the
    #: memory backend prices bytes accordingly.  Decoding is always
    #: transparent, so sessions with different settings interoperate.
    #: Defaults honour the ``REPRO_WIRE_BATCHING`` environment variable;
    #: off keeps the wire byte-identical to previous releases.
    wire_batching: bool = field(default_factory=default_wire_batching)

    # Central endpoint ------------------------------------------------
    default_allow: bool = True
    admin_users: Tuple[str, ...] = ()
    ack_release: bool = True
    #: COUPLE_UPDATE delivery: "all" replicates coupling info to every
    #: registered instance (the paper's literal semantics), "group"
    #: scopes it to the affected couple group (docs/PERF.md).
    couple_scope: str = "all"
    #: Incremental CopyTo: send only attributes changed since the last
    #: acknowledged transfer to the same target (docs/PERF.md).
    delta_sync: bool = True
    correspondences: Optional[CorrespondenceRegistry] = None
    vnodes: int = 64
    #: Observability: ``None``/``False`` (disabled, the default), ``True``
    #: (enabled with defaults), an :class:`ObservabilityConfig`, or a
    #: ready :class:`Observability` instance to share across sessions.
    #: Defaults honour the ``REPRO_OBSERVABILITY`` environment variable.
    observability: Union[None, bool, ObservabilityConfig, Observability] = (
        field(default_factory=_default_observability)
    )
    #: Serve this deployment's metrics over HTTP (docs/OBSERVABILITY.md):
    #: ``None`` (off, the default) or a port for a stdlib ``/metrics``
    #: endpoint (``0`` binds an ephemeral port — read it back from
    #: ``session.metrics_address``).  Each scrape re-collects, so on a
    #: multi-process cluster it transparently delta-pulls every worker.
    metrics_port: Optional[int] = None
    #: Event-sourced persistence (docs/PERSISTENCE.md): ``None``/``False``
    #: (off, the default — frames and hot paths stay byte-identical),
    #: ``True`` (journal into an ephemeral directory removed at close), a
    #: directory path, or a ready :class:`~repro.persist.PersistenceConfig`.
    #: Defaults honour the ``REPRO_PERSISTENCE`` environment variable.
    persistence: Union[None, bool, str, PersistenceConfig] = (
        field(default_factory=_default_persistence)
    )
    #: Ring-buffer capacity of each instance's :class:`EventTrace`
    #: (``None`` keeps the class default of 100 000 events).
    trace_maxlen: Optional[int] = None

    # Simulated network model (memory backend) ------------------------
    base_latency: float = 0.001
    per_byte_latency: float = 0.0
    jitter: float = 0.0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    seed: int = 0
    service_time: float = 0.0

    # Socket backend (aio) -------------------------------------------
    host: str = "127.0.0.1"
    port: int = 0

    # Asyncio runtime (aio backend) -----------------------------------
    batch: BatchConfig = field(default_factory=BatchConfig)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            from repro.errors import UnknownCommunicatorError

            raise UnknownCommunicatorError(self.backend, tuple(BACKENDS))
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
        if self.processes:
            if self.backend != "aio":
                raise ValueError(
                    'processes=True requires backend="aio" '
                    "(shard workers attach over the asyncio transport)"
                )
            if self.shards < 1:
                raise ValueError("processes=True requires shards >= 1")
        get_codec(self.codec)  # fail fast on an unknown codec name


def _observability_enabled(
    value: Union[None, bool, ObservabilityConfig, Observability],
) -> bool:
    """Whether a ``SessionConfig.observability`` value enables the layer.

    Decided *without* building anything — the multi-process cluster needs
    the answer before it spawns workers (their instrumentation rides in
    the spawn command line), which happens before the session's own
    observability object exists.
    """
    if isinstance(value, Observability):
        return value.enabled
    return bool(value)


def _build_server(
    config: SessionConfig, clock=None
) -> Tuple[ServerLike, Optional[str]]:
    """The central endpoint: one server, or a cluster when ``shards``.

    Returns ``(endpoint, ephemeral_persistence_dir)`` — the directory is
    ``None`` unless the session must clean up a tempdir-backed journal
    at close (the bare ``persistence=True`` setting).
    """
    persist_config, ephemeral = _resolve_persistence(config.persistence)
    if config.processes:
        from repro.cluster.proc import ProcCluster

        # A multi-process cluster always journals (crash recovery needs
        # the per-shard op logs); sessions that named no directory get an
        # ephemeral one, removed at close like any other True setting.
        if persist_config is None or persist_config.directory is None:
            ephemeral = tempfile.mkdtemp(prefix="repro-proc-")
            directory = ephemeral
            snapshot_every = 500
        else:
            directory = persist_config.directory
            snapshot_every = persist_config.snapshot_every
        return (
            ProcCluster(
                config.shards,
                directory=directory,
                link_codec=get_codec(config.codec).name,
                link_wire_batching=config.wire_batching,
                snapshot_every=snapshot_every,
                vnodes=config.vnodes,
                default_allow=config.default_allow,
                admin_users=config.admin_users,
                ack_release=config.ack_release,
                couple_scope=config.couple_scope,
                # Workers spawn before configure_observability runs, so
                # the session's setting must ride in the spawn env/flags.
                observability=_observability_enabled(config.observability),
            ),
            ephemeral,
        )
    if config.shards:
        kwargs = dict(
            vnodes=config.vnodes,
            default_allow=config.default_allow,
            admin_users=config.admin_users,
            ack_release=config.ack_release,
            couple_scope=config.couple_scope,
            persistence=persist_config,
            codec=config.codec,
        )
        if clock is not None:
            kwargs["clock"] = clock
            kwargs["service_time"] = config.service_time
        return ShardedCosoftCluster(config.shards, **kwargs), ephemeral
    kwargs = dict(
        access=AccessControl(default_allow=config.default_allow),
        admin_users=config.admin_users,
        ack_release=config.ack_release,
        couple_scope=config.couple_scope,
        persistence=(
            persist_config.build() if persist_config is not None else None
        ),
    )
    if clock is not None:
        kwargs["clock"] = clock
    return CosoftServer(**kwargs), ephemeral


class _BackendBase:
    """Shared machinery of the session backends."""

    config: SessionConfig
    server: ServerLike
    instances: Dict[str, ApplicationInstance]
    obs: Observability
    #: Tempdir backing an ephemeral journal (``persistence=True``), if any.
    _persist_ephemeral: Optional[str] = None
    #: The HTTP /metrics endpoint (``metrics_port``), if any.
    _metrics_http: Optional[Any] = None

    def _init_observability(
        self, transport_stats: Optional[TrafficStats] = None
    ) -> None:
        """Build the deployment's observability and wire the collectors.

        Called by each backend once the central endpoint is bound.  With
        observability disabled this installs the shared no-op instance
        and registers nothing.
        """
        self.obs = build_observability(self.config.observability)
        if self.obs.enabled:
            self.server.configure_observability(self.obs)
            if self.obs.registry.enabled:
                if transport_stats is not None:
                    transport_stats.register_into(
                        self.obs.registry, transport=self.config.backend
                    )
                from repro.core.compat import (
                    DEFAULT_MAPPING_CACHE,
                    GLOBAL_MATCH_STATS,
                )

                GLOBAL_MATCH_STATS.register_into(self.obs.registry)
                DEFAULT_MAPPING_CACHE.register_into(self.obs.registry)
        if self.config.metrics_port is not None:
            from repro.obs.http import MetricsHTTPServer

            self._metrics_http = MetricsHTTPServer(
                self.obs, self.config.host, self.config.metrics_port
            )

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the /metrics endpoint, if serving."""
        server = self._metrics_http
        return server.address if server is not None else None

    @property
    def cluster(self) -> Optional[ShardedCosoftCluster]:
        """The sharded cluster, when this session runs one (else None)."""
        server = self.server
        return server if isinstance(server, ShardedCosoftCluster) else None

    def _persistences(self) -> List[Any]:
        """Every live journal of this deployment (one per shard)."""
        server = self.server
        if isinstance(server, ShardedCosoftCluster):
            found = [shard.persistence for shard in server.shards.values()]
        else:
            found = [getattr(server, "persistence", None)]
        return [p for p in found if p is not None]

    def _close_persistence(self) -> None:
        """Flush and close the journals; drop an ephemeral directory."""
        for persist in self._persistences():
            try:
                persist.close()
            except Exception:
                pass
        if self._persist_ephemeral is not None:
            shutil.rmtree(self._persist_ephemeral, ignore_errors=True)
            self._persist_ephemeral = None

    def drop_instance(self, instance_id: str) -> None:
        """Close and forget one instance."""
        instance = self.instances.pop(instance_id, None)
        if instance is not None:
            instance.close()
            self.pump()

    def close(self) -> None:
        if self._metrics_http is not None:
            try:
                self._metrics_http.close()
            except Exception:
                pass
            self._metrics_http = None
        for instance in list(self.instances.values()):
            try:
                instance.close()
            except Exception:
                pass
        self.instances.clear()

    def create_instance(
        self,
        instance_id: str,
        user: str,
        *,
        app_type: str = "",
        register: bool = True,
        lock_timeout: float = 5.0,
        request_timeout: float = 5.0,
        replica_fast_path: bool = True,
        delta_sync: Optional[bool] = None,
    ) -> ApplicationInstance:
        """Create, connect and (by default) register an instance."""
        instance = self._connect(
            ApplicationInstance(
                instance_id,
                user,
                app_type=app_type,
                correspondences=self.config.correspondences,
                lock_timeout=lock_timeout,
                request_timeout=request_timeout,
                replica_fast_path=replica_fast_path,
                delta_sync=(
                    self.config.delta_sync if delta_sync is None else delta_sync
                ),
                observability=self.obs,
                trace_maxlen=self.config.trace_maxlen,
            )
        )
        self.instances[instance_id] = instance
        if register:
            instance.register()
        return instance

    # Subclass responsibilities ---------------------------------------

    def _connect(self, instance: ApplicationInstance) -> ApplicationInstance:
        raise NotImplementedError

    def pump(self) -> int:
        raise NotImplementedError

    def traffic(self) -> Dict[str, object]:
        raise NotImplementedError

    @property
    def now(self) -> float:
        raise NotImplementedError


class _MemoryBackend(_BackendBase):
    """A complete deployment on the simulated network."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.clock = SimClock()
        self.network = MemoryNetwork(
            self.clock,
            base_latency=config.base_latency,
            per_byte_latency=config.per_byte_latency,
            jitter=config.jitter,
            loss_rate=config.loss_rate,
            duplicate_rate=config.duplicate_rate,
            seed=config.seed,
            codec=config.codec,
            wire_batching=config.wire_batching,
        )
        self.server, self._persist_ephemeral = _build_server(
            config, clock=self.clock
        )
        self.server.bind(self.network.attach(SERVER_ID, self.server.handle_message))
        self.instances: Dict[str, ApplicationInstance] = {}
        self._init_observability(self.network.stats)

    def _connect(self, instance: ApplicationInstance) -> ApplicationInstance:
        return instance.connect(self.network)

    def pump(self) -> int:
        """Deliver all in-flight messages; returns the delivery count."""
        return self.network.pump()

    @property
    def now(self) -> float:
        return self.clock.now()

    def traffic(self) -> Dict[str, object]:
        """Network traffic counters (messages, bytes, per kind/link)."""
        return self.network.stats.snapshot()

    def close(self) -> None:
        super().close()
        self.network.pump()
        self._close_persistence()


class _AioBackend(_BackendBase):
    """A deployment over real localhost sockets under the asyncio server
    runtime (batching, backpressure, per-hop retry — docs/RUNTIME.md)."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.server, self._persist_ephemeral = _build_server(config)
        self.runtime = AsyncServerRuntime(
            self.server,
            config.host,
            config.port,
            config=config.batch,
            codec=config.codec,
            wire_batching=config.wire_batching,
        )
        self.host, self.port = self.runtime.address
        self.instances: Dict[str, ApplicationInstance] = {}
        self._init_observability(self.runtime.transport.stats)

    def _connect(self, instance: ApplicationInstance) -> ApplicationInstance:
        # Instances join the runtime's own loop: the whole deployment —
        # host plus every client connection — is serviced by one thread
        # instead of a reader thread per endpoint.
        return instance.connect_aio(
            self.host,
            self.port,
            loop=self.runtime.loop,
            codec=self.config.codec,
        )

    def pump(self, idle: float = 0.02, timeout: float = 2.0) -> int:
        """Settle the deployment: wait until traffic is quiescent.

        Real sockets cannot enumerate in-flight messages the way the
        simulator can, so "pump" polls the server transport's counters
        until they have been stable for *idle* seconds (or *timeout*
        elapses).  Returns the number of server-side messages that moved
        while settling.
        """
        stats = self.runtime.transport.stats

        def probe() -> Tuple[int, int]:
            return stats.messages, stats.dropped

        start = probe()
        last_change = time.monotonic()
        last = start
        deadline = last_change + timeout
        while time.monotonic() < deadline:
            time.sleep(0.002)
            current = probe()
            if current != last:
                last = current
                last_change = time.monotonic()
            elif time.monotonic() - last_change >= idle:
                break
        return last[0] - start[0]

    @property
    def now(self) -> float:
        return time.monotonic()

    def traffic(self) -> Dict[str, object]:
        """Server-side traffic counters (same fields as the simulator)."""
        return self.runtime.transport.stats.snapshot()

    def close(self) -> None:
        super().close()
        self.runtime.close()
        # A multi-process cluster owns worker subprocesses: shut the
        # supervisor down before dropping any ephemeral journal dir.
        shutdown = getattr(self.server, "close", None)
        if shutdown is not None:
            shutdown()
        self._close_persistence()


class Session:
    """A complete COSOFT deployment behind one constructor.

    Example::

        session = Session()                      # simulated, single server
        teacher = session.create_instance("teacher", user="ms-lin")
        student = session.create_instance("student-1", user="kim")
        ...
        session.pump()                           # drain in-flight messages
        session.close()

    Parameters
    ----------
    backend:
        ``"memory"`` (default), ``"aio"``, or any name registered with
        :func:`~repro.net.registry.register_communicator`.
    config:
        A ready-made :class:`SessionConfig`.  Mutually exclusive with the
        keyword conveniences below.
    **knobs:
        Any :class:`SessionConfig` field (``shards``, ``loss_rate``,
        ``ack_release``, …) or :class:`~repro.net.aio.BatchConfig` field
        (``max_batch``, ``backpressure``, …).
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        *,
        config: Optional[SessionConfig] = None,
        **knobs: object,
    ):
        if config is not None:
            if knobs:
                raise TypeError(
                    "pass either a SessionConfig or keyword knobs, not both"
                )
            if backend is not None and backend != config.backend:
                config = replace(config, backend=backend)
        else:
            batch_knobs = {
                key: knobs.pop(key) for key in _BATCH_FIELDS if key in knobs
            }
            if batch_knobs:
                knobs["batch"] = BatchConfig(**batch_knobs)  # type: ignore[arg-type]
            if backend is not None:
                knobs["backend"] = backend
            config = SessionConfig(**knobs)  # type: ignore[arg-type]
        self.config = config
        # Resolve through the communicator registry: third-party backends
        # registered under this name build here without any core edits.
        self._impl: _BackendBase = get_communicator(config.backend)(config)

    # ------------------------------------------------------------------
    # The common facade
    # ------------------------------------------------------------------

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def server(self) -> ServerLike:
        return self._impl.server

    @property
    def cluster(self) -> Optional[ShardedCosoftCluster]:
        """The sharded cluster, when this session runs one (else None)."""
        return self._impl.cluster

    @property
    def instances(self) -> Dict[str, ApplicationInstance]:
        return self._impl.instances

    @property
    def persistence(self):
        """The journal: one object (single server), per-shard dict
        (cluster), or ``None``/empty when persistence is off."""
        server = self._impl.server
        if isinstance(server, ShardedCosoftCluster):
            return {
                shard_id: shard.persistence
                for shard_id, shard in server.shards.items()
                if shard.persistence is not None
            }
        return server.persistence

    @property
    def now(self) -> float:
        """Simulated seconds (memory) or wall-clock seconds (aio)."""
        return self._impl.now

    def create_instance(
        self, instance_id: str, user: str, **kwargs: object
    ) -> ApplicationInstance:
        """Create, connect and (by default) register an instance."""
        return self._impl.create_instance(instance_id, user, **kwargs)

    def drop_instance(self, instance_id: str) -> None:
        """Close and forget one instance."""
        self._impl.drop_instance(instance_id)

    def pump(self, **kwargs: object) -> int:
        """Drain in-flight messages (memory) / settle traffic (aio)."""
        return self._impl.pump(**kwargs)

    def traffic(self) -> Dict[str, object]:
        """Traffic counters with the same fields on every backend."""
        return self._impl.traffic()

    # ------------------------------------------------------------------
    # Observability (see docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------

    @property
    def obs(self) -> Observability:
        """This deployment's observability (the no-op one when disabled)."""
        return self._impl.obs

    def metrics_text(self) -> str:
        """Prometheus text exposition of every registered metric."""
        return self._impl.obs.metrics_text()

    def metrics_json(self, *, include_spans: bool = False) -> str:
        """All metrics (and optionally spans) as one JSON document."""
        return self._impl.obs.metrics_json(include_spans=include_spans)

    def span_dump(self) -> str:
        """Human-readable dump of every buffered trace tree."""
        return self._impl.obs.span_dump()

    def trace_stats(self) -> Dict[str, Any]:
        """Occupancy of the bounded trace buffers.

        Per-instance :class:`~repro.toolkit.events.EventTrace` counters
        plus the shared span ring buffer — the operator's check that
        nothing unbounded is growing in a long-running deployment.
        """
        return {
            "instances": {
                instance_id: instance.trace.stats()
                for instance_id, instance in self.instances.items()
            },
            "spans": self._impl.obs.spans.stats(),
        }

    def close(self) -> None:
        self._impl.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session(backend={self.backend!r}, shards={self.config.shards}, "
            f"instances={len(self.instances)})"
        )

    # Backend-specific attributes (``network``, ``clock``, ``host``,
    # ``port``, ``runtime``, …) fall through to the implementation.
    def __getattr__(self, name: str):
        impl = self.__dict__.get("_impl")
        if impl is None:
            raise AttributeError(name)
        try:
            return getattr(impl, name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__} (backend={self.backend!r}) has no "
                f"attribute {name!r}"
            ) from None


#: The supported public surface of this module (README "Public API").
__all__ = [
    "BACKENDS",
    "ServerLike",
    "Session",
    "SessionConfig",
]
