"""The pluggable communicator registry (docs/COMMUNICATORS.md).

The paper's central claim is that one flexible communication substrate
serves heterogeneous clients — which means the set of transports cannot
be a closed list baked into :class:`~repro.session.Session`.  This
module is the open end: backends register under a string name, and
``Session(backend=<name>)`` resolves through the registry, so a
websocket, gRPC or browser backend is a third-party install, not a core
edit.

A *communicator* is a factory ``factory(config: SessionConfig) ->
backend`` where the backend implements the small surface
``repro.session._BackendBase`` documents (``create_instance`` /
``pump`` / ``traffic`` / ``close`` / ``now``).  Three registration
paths, in resolution order:

1. **Built-ins** — ``memory`` / ``aio`` are pre-seeded as
   lazy targets into :mod:`repro.session` (never imported from here, to
   keep the module import-cycle-free).
2. **API** — :func:`register_communicator`, directly or as a decorator::

       @register_communicator("inproc")
       class InprocBackend: ...

       register_communicator("websocket", "mypkg.ws:WsBackend",
                             extra="websocket")

3. **Entry points** — packages advertise backends under the
   ``repro.communicators`` group in their own metadata::

       [project.entry-points."repro.communicators"]
       websocket = "mypkg.ws:WsBackend"

   Entry points are scanned once, lazily, the first time a name misses.

Lazy string targets (``"module:attr"``) are imported only when the
backend is first constructed.  A target whose import fails raises
:class:`~repro.errors.CommunicatorDependencyError` naming the pip extra
to install (pass ``extra=`` at registration); an unknown name raises
:class:`~repro.errors.UnknownCommunicatorError` listing what *is*
registered.  Both are ``ValueError``/``ImportError`` subclasses, so
pre-registry ``except ValueError`` callers keep working.

:data:`BACKENDS` is a live, ordered view of the registered names —
``repro.session.BACKENDS`` is this very object, so third-party
registrations show up there immediately.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro.errors import CommunicatorDependencyError, UnknownCommunicatorError

#: Entry-point group third-party packages use to advertise backends.
ENTRY_POINT_GROUP = "repro.communicators"


@dataclass
class CommunicatorSpec:
    """One registry entry: where a backend comes from and how to load it."""

    #: Registry name (``Session(backend=<name>)``).
    name: str
    #: A ready factory, or a lazy ``"module:attr"`` import target.
    target: Union[Callable[..., Any], str]
    #: Pip extra that provides the target's dependencies, for the
    #: actionable import-failure message (``pip install "repro[extra]"``).
    extra: Optional[str] = None
    #: Where the entry came from: ``"builtin"`` / ``"api"`` /
    #: ``"entry-point"`` — surfaced by :func:`communicator_specs`.
    source: str = "api"

    def resolve(self) -> Callable[..., Any]:
        """The factory — importing the lazy target on first use."""
        target = self.target
        if not isinstance(target, str):
            return target
        module_name, _, attr = target.partition(":")
        if not module_name or not attr:
            raise CommunicatorDependencyError(
                self.name, target, "target must look like 'module:attr'",
                self.extra,
            )
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise CommunicatorDependencyError(
                self.name, target, str(exc), self.extra
            ) from exc
        try:
            factory = getattr(module, attr)
        except AttributeError as exc:
            raise CommunicatorDependencyError(
                self.name, target, str(exc), self.extra
            ) from exc
        # Memoize so later constructions skip the getattr dance.
        self.target = factory
        return factory


#: The process-wide registry, in registration order (builtins first).
#: The built-in backends are seeded as lazy targets into
#: :mod:`repro.session` — never imported from here, so the registry can
#: be imported (and extended) without pulling in the whole stack.
_REGISTRY: Dict[str, CommunicatorSpec] = {
    name: CommunicatorSpec(
        name=name, target=f"repro.session:{attr}", source="builtin"
    )
    for name, attr in (
        ("memory", "_MemoryBackend"),
        ("aio", "_AioBackend"),
    )
}

#: Entry points are scanned at most once per process, on first miss.
_ENTRY_POINTS_SCANNED = False


def register_communicator(
    name: str,
    target: Union[Callable[..., Any], str, None] = None,
    *,
    extra: Optional[str] = None,
    replace: bool = False,
    _source: str = "api",
):
    """Register a communicator backend under *name*.

    *target* is a factory ``factory(config) -> backend`` or a lazy
    ``"module:attr"`` string imported on first use.  With *target*
    omitted this returns a class decorator.  Re-registering a name
    raises unless *replace* — two packages must not silently fight over
    one name.  *extra* names the pip extra whose absence explains an
    import failure.
    """
    if target is None:
        def _decorator(factory):
            register_communicator(
                name, factory, extra=extra, replace=replace, _source=_source
            )
            return factory

        return _decorator
    existing = _REGISTRY.get(name)
    if existing is not None and not replace and existing.target is not target:
        raise ValueError(
            f"communicator {name!r} is already registered "
            f"(source: {existing.source}); pass replace=True to override"
        )
    _REGISTRY[name] = CommunicatorSpec(
        name=name, target=target, extra=extra, source=_source
    )
    return target


def unregister_communicator(name: str) -> bool:
    """Remove *name* from the registry; True if it was present."""
    return _REGISTRY.pop(name, None) is not None


def _scan_entry_points() -> None:
    """Fold ``repro.communicators`` entry points into the registry.

    Runs at most once per process, and never overrides an existing name
    (builtins and explicit registrations win over metadata).
    """
    global _ENTRY_POINTS_SCANNED
    if _ENTRY_POINTS_SCANNED:
        return
    _ENTRY_POINTS_SCANNED = True
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py3.8 fallback path
        return
    try:
        found = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - py3.9 API shape
        found = entry_points().get(ENTRY_POINT_GROUP, ())
    for point in found:
        if point.name not in _REGISTRY:
            _REGISTRY[point.name] = CommunicatorSpec(
                name=point.name,
                target=point.value,
                source="entry-point",
            )


def get_communicator(name: str) -> Callable[..., Any]:
    """Resolve *name* to its backend factory.

    Raises :class:`UnknownCommunicatorError` (a ``ValueError``) for a
    name nobody registered, :class:`CommunicatorDependencyError` (an
    ``ImportError``) for a registered name whose module will not import.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        _scan_entry_points()
        spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownCommunicatorError(name, communicator_names())
    return spec.resolve()


def has_communicator(name: str) -> bool:
    """Whether *name* resolves — without importing its module."""
    if name in _REGISTRY:
        return True
    _scan_entry_points()
    return name in _REGISTRY


def communicator_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order (builtins first)."""
    _scan_entry_points()
    return tuple(_REGISTRY)


def communicator_specs() -> Tuple[CommunicatorSpec, ...]:
    """The registry entries themselves (for tooling and diagnostics)."""
    _scan_entry_points()
    return tuple(_REGISTRY.values())


class _BackendsView:
    """A live, tuple-like view of the registered communicator names.

    ``repro.session.BACKENDS`` is an instance of this class, so code
    that iterates, indexes, or membership-tests the historical tuple
    keeps working while third-party registrations appear immediately.
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[str]:
        return iter(communicator_names())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and has_communicator(name)

    def __len__(self) -> int:
        return len(_REGISTRY) if _ENTRY_POINTS_SCANNED else len(
            communicator_names()
        )

    def __getitem__(self, index):
        return communicator_names()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _BackendsView):
            return True
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:  # views are interchangeable singletons
        return hash(_BackendsView)

    def __repr__(self) -> str:
        return repr(communicator_names())


#: The live view ``repro.session`` re-exports as ``BACKENDS``.
BACKENDS = _BackendsView()


__all__ = [
    "BACKENDS",
    "ENTRY_POINT_GROUP",
    "CommunicatorSpec",
    "communicator_names",
    "communicator_specs",
    "get_communicator",
    "has_communicator",
    "register_communicator",
    "unregister_communicator",
]
