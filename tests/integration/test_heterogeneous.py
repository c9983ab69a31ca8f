"""Heterogeneous application coupling — the paper's headline feature.

"Collaboration among participants in a CSCW system is usually only
supported for a set of instances of one application. ... it is indeed
desirable to support (partial) synchronization between functionally
different applications." (§2.2)
"""

import pytest

from repro.core.compat import CorrespondenceRegistry
from repro.session import Session
from repro.toolkit.builder import build
from repro.toolkit.widgets import Form, Label, Scale, Shell, TextField


@pytest.fixture
def corr():
    registry = CorrespondenceRegistry()
    registry.declare("label", "textfield", {"text": "value"})
    return registry


@pytest.fixture
def session(corr):
    sess = Session(correspondences=corr)
    yield sess
    sess.close()


def editor_app():
    """Application type 1: a text editor."""
    root = Shell("editor", title="Editor")
    Form("main", parent=root)
    TextField("body", parent=root.find("main"), width=40)
    return root


def monitor_app():
    """Application type 2: a read-only monitor showing labels."""
    root = Shell("monitor", title="Monitor")
    Form("view", parent=root)
    Label("display", parent=root.find("view"))
    return root


class TestCrossApplicationCoupling:
    def test_same_type_different_apps(self, session):
        editor = session.create_instance("ed", user="u1", app_type="editor")
        monitor = session.create_instance("mon", user="u2", app_type="monitor")
        ed_tree = editor.add_root(editor_app())
        mon_tree = monitor.add_root(Shell("monitor"))
        TextField("mirror", parent=mon_tree)
        editor.couple(ed_tree.find("main/body"), ("mon", "/monitor/mirror"))
        session.pump()
        ed_tree.find("main/body").commit("typed in the editor")
        session.pump()
        assert mon_tree.find("/monitor/mirror").value == "typed in the editor"

    def test_cross_type_state_copy_with_correspondence(self, session):
        editor = session.create_instance("ed", user="u1", app_type="editor")
        monitor = session.create_instance("mon", user="u2", app_type="monitor")
        ed_tree = editor.add_root(editor_app())
        mon_tree = monitor.add_root(monitor_app())
        ed_tree.find("main/body").commit("status: ready")
        # Pull the editor's field into the monitor's label.
        monitor.copy_from(
            mon_tree.find("view/display"), ("ed", "/editor/main/body")
        )
        assert mon_tree.find("view/display").get("text") == "status: ready"

    def test_cross_type_copy_without_correspondence_fails(self):
        session = Session()  # no correspondences declared
        try:
            editor = session.create_instance("ed", user="u1")
            monitor = session.create_instance("mon", user="u2")
            ed_tree = editor.add_root(editor_app())
            mon_tree = monitor.add_root(monitor_app())
            from repro.errors import IncompatibleObjectsError

            with pytest.raises(IncompatibleObjectsError):
                monitor.copy_from(
                    mon_tree.find("view/display"),
                    ("ed", "/editor/main/body"),
                )
        finally:
            session.close()

    def test_complex_heterogeneous_copy(self, session):
        """Whole forms with different component types, via correspondence."""
        a = session.create_instance("a", user="u1", app_type="teacher")
        b = session.create_instance("b", user="u2", app_type="student")
        src = a.add_root(
            build(
                {
                    "type": "shell",
                    "name": "t",
                    "children": [
                        {
                            "type": "form",
                            "name": "panel",
                            "children": [
                                {"type": "label", "name": "msg",
                                 "state": {"text": "watch me"}},
                                {"type": "scale", "name": "level",
                                 "state": {"value": 4}},
                            ],
                        }
                    ],
                }
            )
        )
        dst = b.add_root(
            build(
                {
                    "type": "shell",
                    "name": "s",
                    "children": [
                        {
                            "type": "form",
                            "name": "panel",
                            "children": [
                                {"type": "textfield", "name": "msg"},
                                {"type": "scale", "name": "level"},
                            ],
                        }
                    ],
                }
            )
        )
        b.copy_from(dst.find("panel"), ("a", "/t/panel"))
        assert dst.find("panel/msg").value == "watch me"
        assert dst.find("panel/level").value == 4

    def test_merge_mode_across_structures(self, session):
        """Destructive merging imposes the dominating structure (§3.3)."""
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        src = a.add_root(editor_app())
        src.find("main/body").commit("dominating content")
        dst = b.add_root(Shell("editor"))  # empty shell, same root name
        b.copy_from(dst, ("a", "/editor"), mode="merge")
        assert dst.find("main/body").value == "dominating content"

    def test_flexible_mode_conserves_local_extras(self, session):
        a = session.create_instance("a", user="u1")
        b = session.create_instance("b", user="u2")
        src = a.add_root(editor_app())
        src.find("main/body").commit("shared part")
        dst = b.add_root(editor_app())
        private = Scale("private", parent=dst.find("main"))
        private.set("value", 9)
        b.copy_from(dst, ("a", "/editor"), mode="flexible")
        assert dst.find("main/body").value == "shared part"
        assert dst.find("main/private").get("value") == 9
