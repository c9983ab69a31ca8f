#!/usr/bin/env python3
"""Heterogeneous coupling — different widget types, different applications.

The paper's headline relaxation of WYSIWIS: application-*independence*.
This example couples/copies between *functionally different* programs:

1. a declared **correspondence relation** lets a read-only monitor's Label
   track an editor's TextField (§3.3 "direct compatibility");
2. **s-compatibility** maps whole forms with different names/nesting;
3. **destructive merging** imposes a dominating structure on an empty
   target; **flexible matching** synchronizes the common substructure
   while conserving local extras;
4. the run is repeated over **real TCP sockets** to show the transports
   are interchangeable.
"""

from repro import CorrespondenceRegistry, Session
from repro.toolkit import Form, Label, Scale, Shell, TextField


def build_editor() -> Shell:
    root = Shell("editor", title="Editor")
    main = Form("main", parent=root)
    TextField("status", parent=main, width=30)
    Scale("progress", parent=main, maximum=100)
    return root


def build_monitor() -> Shell:
    root = Shell("monitor", title="Monitor (read-only)")
    view = Form("view", parent=root)
    Label("status_display", parent=view, width=30)
    Scale("progress_mirror", parent=view, maximum=100)
    return root


def run(session, label) -> None:
    editor = session.create_instance("editor-1", user="dev",
                                     app_type="editor")
    monitor = session.create_instance("monitor-1", user="ops",
                                      app_type="monitor")
    editor_ui = editor.add_root(build_editor())
    monitor_ui = monitor.add_root(build_monitor())

    # --- 1+2. Cross-type state copy through the correspondence.
    editor_ui.find("main/status").commit("deploying v2.1")
    editor_ui.find("main/progress").set_value(40)
    monitor.copy_from(monitor_ui.find("view"), ("editor-1", "/editor/main"))
    print(f"[{label}] monitor label now shows:",
          repr(monitor_ui.find("view/status_display").get("text")))
    print(f"[{label}] monitor progress mirror:",
          monitor_ui.find("view/progress_mirror").value)

    # --- 3a. Destructive merging: build a dashboard clone from nothing.
    blank = monitor.add_root(Shell("editor"))
    monitor_inst_id = monitor.instance_id
    monitor.copy_from(blank, ("editor-1", "/editor"), mode="merge")
    print(f"[{label}] destructive merge materialized:",
          [w.pathname for w in blank.walk()][1:])

    # --- 3b. Flexible matching conserves local extras.
    extra = TextField("private_notes", parent=monitor_ui.find("view"))
    extra.commit("only mine")
    editor_ui.find("main/status").commit("rollout complete")
    monitor.copy_from(monitor_ui.find("view"), ("editor-1", "/editor/main"),
                      mode="flexible")
    print(f"[{label}] after flexible copy: label=",
          repr(monitor_ui.find("view/status_display").get("text")),
          " private notes kept:",
          repr(monitor_ui.find("view/private_notes").value))


def main() -> None:
    # The correspondence declaration: label.text <-> textfield.value.
    corr = CorrespondenceRegistry()
    corr.declare("label", "textfield", {"text": "value"})

    print("== simulated in-memory network ==")
    with Session(correspondences=corr) as session:
        run(session, "memory")

    print("\n== real TCP sockets (localhost, asyncio runtime) ==")
    with Session(backend="aio", correspondences=corr) as aio:
        run(aio, "aio")


if __name__ == "__main__":
    main()
