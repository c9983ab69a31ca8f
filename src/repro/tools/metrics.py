"""Metrics CLI: run a demo workload and dump the observability state.

``python -m repro.tools.metrics`` spins up an instrumented
:class:`~repro.session.Session`, drives a small coupled workload through
the multiple-execution path (couple, floor, broadcast, remote apply),
and prints the result in the requested exporter format::

    python -m repro.tools.metrics                  # Prometheus text
    python -m repro.tools.metrics --format json    # JSON (metrics + spans)
    python -m repro.tools.metrics --format spans   # indented span trees
    python -m repro.tools.metrics --backend aio --shards 2 --events 50

The same renderers back :meth:`Session.metrics_text`,
:meth:`Session.metrics_json` and :meth:`Session.span_dump`, so the CLI
doubles as a quick check that an instrumented deployment emits every
family (`repro_routing_*`, `repro_traffic_*`, `repro_locks_*`,
`repro_compat_*`, `repro_server_*`) and complete multi-hop span trees.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.net.registry import BACKENDS
from repro.session import Session
from repro.toolkit import Form, Shell, TextField

FORMATS = ("prom", "json", "spans", "dashboard")


def build_workload_tree(root_name: str = "app") -> Shell:
    """A minimal coupled-text-field tree for the demo workload."""
    shell = Shell(root_name, title="metrics-demo")
    form = Form("form", parent=shell)
    TextField("name", parent=form, width=20)
    return shell


def run_workload(
    backend: str = "memory", *, shards: int = 0, events: int = 10
) -> Session:
    """Drive *events* coupled commits through an instrumented session.

    The returned session is still open (the caller renders its metrics
    and must close it).
    """
    sess = Session(backend, shards=shards, observability=True)
    a = sess.create_instance("writer", user="alice")
    b = sess.create_instance("reader", user="bob")
    a.add_root(build_workload_tree())
    b.add_root(build_workload_tree())
    field = a.find_widget("/app/form/name")
    a.couple(field, ("reader", "/app/form/name"))
    sess.pump()
    sess.obs.observe_span_latencies()
    for n in range(events):
        field.type_text(f"edit-{n}")
        sess.pump()
    sess.pump()
    return sess


def render(sess: Session, fmt: str) -> str:
    if fmt == "prom":
        return sess.metrics_text()
    if fmt == "json":
        return sess.metrics_json(include_spans=True)
    if fmt == "spans":
        return sess.span_dump()
    if fmt == "dashboard":
        from repro.tools.monitor import (
            format_cluster_dashboard,
            format_dashboard,
            format_observability,
        )

        if sess.config.shards > 0:
            head = format_cluster_dashboard(sess.server)
        else:
            head = format_dashboard(sess.server)
        return head + "\n" + format_observability(sess.obs)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.metrics",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default="memory",
        help="session backend to exercise (default: memory)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="shard count; 0 runs the plain central server (default: 0)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=10,
        help="coupled commits to drive through the workload (default: 10)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="prom",
        dest="fmt",
        help="output renderer: Prometheus text, JSON, span trees, "
        "or the monitor dashboard (default: prom)",
    )
    args = parser.parse_args(argv)
    sess = run_workload(args.backend, shards=args.shards, events=args.events)
    try:
        output = render(sess, args.fmt)
    finally:
        sess.close()
    sys.stdout.write(output)
    if not output.endswith("\n"):
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
