"""Unit tests for the communicator registry (repro.net.registry)."""

import pytest

from repro.errors import (
    CommunicatorDependencyError,
    NetworkError,
    UnknownCommunicatorError,
)
from repro.net import registry
from repro.net.registry import (
    BACKENDS,
    communicator_names,
    communicator_specs,
    get_communicator,
    has_communicator,
    register_communicator,
    unregister_communicator,
)
from repro.session import Session, SessionConfig


@pytest.fixture
def scratch_name():
    """A registry name that is guaranteed cleaned up after the test."""
    name = "scratch-backend"
    yield name
    unregister_communicator(name)


class TestBuiltins:
    def test_builtins_registered(self):
        assert communicator_names()[:2] == ("memory", "aio")
        assert not has_communicator("tcp")

    def test_builtins_resolve_lazily_to_session_backends(self):
        import repro.session as session_mod

        assert get_communicator("memory") is session_mod._MemoryBackend
        assert get_communicator("aio") is session_mod._AioBackend

    def test_specs_expose_sources(self):
        by_name = {spec.name: spec for spec in communicator_specs()}
        assert by_name["memory"].source == "builtin"


class TestErrorPaths:
    def test_unknown_backend_is_value_error(self):
        with pytest.raises(UnknownCommunicatorError) as excinfo:
            get_communicator("carrier-pigeon")
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, NetworkError)
        assert "memory" in str(excinfo.value)

    def test_missing_extra_is_actionable_import_error(self, scratch_name):
        register_communicator(
            scratch_name,
            "definitely_not_installed_pkg.backend:Backend",
            extra="websocket",
        )
        with pytest.raises(CommunicatorDependencyError) as excinfo:
            get_communicator(scratch_name)
        assert isinstance(excinfo.value, ImportError)
        assert 'pip install "repro[websocket]"' in str(excinfo.value)

    def test_missing_module_without_extra_hints_package(self, scratch_name):
        register_communicator(scratch_name, "definitely_not_installed_pkg:B")
        with pytest.raises(CommunicatorDependencyError, match="installed"):
            get_communicator(scratch_name)

    def test_missing_attribute_raises_dependency_error(self, scratch_name):
        register_communicator(scratch_name, "repro.session:_NoSuchBackend")
        with pytest.raises(CommunicatorDependencyError):
            get_communicator(scratch_name)

    def test_malformed_target_rejected_at_resolution(self, scratch_name):
        register_communicator(scratch_name, "no_colon_in_here")
        with pytest.raises(CommunicatorDependencyError, match="module:attr"):
            get_communicator(scratch_name)

    def test_session_config_rejects_unknown_backend(self):
        with pytest.raises(UnknownCommunicatorError):
            SessionConfig(backend="carrier-pigeon")


class TestRegistrationApi:
    def test_register_and_resolve_factory(self, scratch_name):
        factory = object()
        register_communicator(scratch_name, lambda config: factory)
        assert get_communicator(scratch_name)(None) is factory

    def test_decorator_form(self, scratch_name):
        @register_communicator(scratch_name)
        class ScratchBackend:
            def __init__(self, config):
                self.config = config

        assert get_communicator(scratch_name) is ScratchBackend

    def test_duplicate_registration_raises(self, scratch_name):
        register_communicator(scratch_name, lambda config: None)
        with pytest.raises(ValueError, match="already registered"):
            register_communicator(scratch_name, lambda config: None)

    def test_replace_overrides(self, scratch_name):
        register_communicator(scratch_name, lambda config: "first")
        register_communicator(
            scratch_name, lambda config: "second", replace=True
        )
        assert get_communicator(scratch_name)(None) == "second"

    def test_unregister(self, scratch_name):
        register_communicator(scratch_name, lambda config: None)
        assert unregister_communicator(scratch_name)
        assert not has_communicator(scratch_name)
        assert not unregister_communicator(scratch_name)


class TestLiveBackendsView:
    def test_view_reflects_registration_immediately(self, scratch_name):
        assert scratch_name not in BACKENDS
        register_communicator(scratch_name, lambda config: None)
        assert scratch_name in BACKENDS
        assert scratch_name in tuple(BACKENDS)
        unregister_communicator(scratch_name)
        assert scratch_name not in BACKENDS

    def test_session_exports_the_same_view(self):
        import repro.session as session_mod

        assert session_mod.BACKENDS is BACKENDS

    def test_tuple_compat(self):
        assert len(BACKENDS) >= 2
        assert BACKENDS[0] == "memory"
        assert BACKENDS == tuple(BACKENDS)


class _NullBackend:
    """The minimal communicator surface a Session needs."""

    def __init__(self, config):
        self.config = config
        self.instances = {}
        self.server = None
        self.closed = False

    def create_instance(self, instance_id, user, **kwargs):
        raise NotImplementedError

    def pump(self):
        return 0

    def traffic(self):
        return {}

    @property
    def now(self):
        return 0.0

    def close(self):
        self.closed = True


class TestSessionResolution:
    def test_session_builds_third_party_backend(self, scratch_name):
        register_communicator(scratch_name, _NullBackend)
        session = Session(backend=scratch_name)
        try:
            assert session.backend == scratch_name
            assert isinstance(session._impl, _NullBackend)
            assert session.config.backend == scratch_name
        finally:
            session.close()
        assert session._impl.closed

    def test_session_lazy_target_error_is_actionable(self, scratch_name):
        register_communicator(
            scratch_name, "missing_mod.ws:WsBackend", extra="ws"
        )
        with pytest.raises(CommunicatorDependencyError, match="repro\\[ws\\]"):
            Session(backend=scratch_name)


class TestEntryPoints:
    def test_entry_point_scan_registers_new_names(self, monkeypatch):
        class FakeEntryPoint:
            name = "fake-ep-backend"
            value = "fake_mod:Backend"

        def fake_entry_points(group=None):
            assert group == registry.ENTRY_POINT_GROUP
            return [FakeEntryPoint()]

        monkeypatch.setattr(registry, "_ENTRY_POINTS_SCANNED", False)
        import importlib.metadata as ilm

        monkeypatch.setattr(ilm, "entry_points", fake_entry_points)
        try:
            assert has_communicator("fake-ep-backend")
            spec = {s.name: s for s in communicator_specs()}["fake-ep-backend"]
            assert spec.source == "entry-point"
            assert spec.target == "fake_mod:Backend"
        finally:
            unregister_communicator("fake-ep-backend")

    def test_entry_points_never_override_builtins(self, monkeypatch):
        class FakeEntryPoint:
            name = "memory"
            value = "evil_mod:Backend"

        monkeypatch.setattr(registry, "_ENTRY_POINTS_SCANNED", False)
        import importlib.metadata as ilm

        monkeypatch.setattr(
            ilm, "entry_points", lambda group=None: [FakeEntryPoint()]
        )
        spec = {s.name: s for s in communicator_specs()}["memory"]
        assert spec.source == "builtin"

    def test_entry_points_never_override_explicit_registrations(
        self, monkeypatch, scratch_name
    ):
        # An installed package advertising the same name as an explicit
        # register_communicator() call must lose: explicit wins.
        marker = object()
        register_communicator(scratch_name, lambda config: marker)

        class FakeEntryPoint:
            name = scratch_name
            value = "hijack_mod:Backend"

        monkeypatch.setattr(registry, "_ENTRY_POINTS_SCANNED", False)
        import importlib.metadata as ilm

        monkeypatch.setattr(
            ilm, "entry_points", lambda group=None: [FakeEntryPoint()]
        )
        spec = {s.name: s for s in communicator_specs()}[scratch_name]
        assert spec.source == "api"
        assert get_communicator(scratch_name)(None) is marker


class TestErrorPathDetails:
    """The error surfaces the ISSUE pins down, asserted precisely."""

    def test_unknown_name_error_lists_every_registered_name(
        self, scratch_name
    ):
        register_communicator(scratch_name, lambda config: None)
        with pytest.raises(UnknownCommunicatorError) as excinfo:
            get_communicator("carrier-pigeon")
        text = str(excinfo.value)
        assert "carrier-pigeon" in text
        # The listing is live: builtins *and* the just-registered
        # third-party name all appear.
        for name in communicator_names():
            assert name in text

    def test_import_failure_names_the_pip_extra_and_keeps_cause(
        self, scratch_name
    ):
        register_communicator(
            scratch_name,
            "definitely_not_installed_pkg.ws:Backend",
            extra="websocket",
        )
        with pytest.raises(CommunicatorDependencyError) as excinfo:
            get_communicator(scratch_name)
        assert 'pip install "repro[websocket]"' in str(excinfo.value)
        # The original ImportError is chained, not swallowed.
        assert isinstance(excinfo.value.__cause__, ImportError)

    def test_import_failure_without_extra_mentions_no_extra(
        self, scratch_name
    ):
        register_communicator(
            scratch_name, "definitely_not_installed_pkg.ws:Backend"
        )
        with pytest.raises(CommunicatorDependencyError) as excinfo:
            get_communicator(scratch_name)
        assert "pip install \"repro[" not in str(excinfo.value)

    def test_failed_lazy_target_is_not_memoized(self, scratch_name):
        register_communicator(
            scratch_name, "definitely_not_installed_pkg.ws:Backend"
        )
        with pytest.raises(CommunicatorDependencyError):
            get_communicator(scratch_name)
        # Recovery: replacing the broken target takes effect immediately.
        register_communicator(
            scratch_name, lambda config: "fixed", replace=True
        )
        assert get_communicator(scratch_name)(None) == "fixed"

    def test_has_communicator_never_imports_the_target(self, scratch_name):
        register_communicator(
            scratch_name, "definitely_not_installed_pkg.ws:Backend"
        )
        # A broken lazy target is still *registered* — presence checks
        # must not trigger the import.
        assert has_communicator(scratch_name)
