"""Per-layer measurement for the traced run.

The program is not edited: the traced run wraps public functions of each
layer from the outside (:func:`install`) and reads the counters the
program already exposes.  A wrapped call records one span — name, start,
end, parent span (the enclosing wrapped call on the same thread) and the
id of the benchmark op being driven.  A span's self time is its duration
minus the time of its child spans.  Spans stay in memory and are written
out when the run ends.

:func:`derive` turns spans and counters into the per-layer metrics that
``BENCHMARK.json`` names; ``README.md`` says which end-to-end metric
each should move, and on which workload.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple


class SpanRecorder:
    """Spans of wrapped calls, kept in memory until the run ends."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (span id, parent id, name, start, end, self seconds, op id)
        self.spans: List[Tuple[int, int, str, float, float, float, int]] = []
        #: The op the load generator last started.  Spans on the aio loop
        #: and router threads carry it too; on ``pair_burst_proc`` a
        #: burst's 16 commits overlap, so there it names the op in
        #: flight most recently started, not necessarily the one served.
        self.op = -1

    def reset(self) -> None:
        self.spans = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        local = self._local
        ids = self._ids
        perf = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            op = rec.op
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                rec.spans.append((
                    frame[0], parent[0] if parent is not None else 0, name,
                    start, end, duration - frame[1], op,
                ))

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "# span_id parent_id name start end self_s op_id\n"
            )
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap_attr(rec: SpanRecorder, owner: Any, attr: str, name: str) -> None:
    setattr(owner, attr, rec.wrap(name, getattr(owner, attr)))


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(rec: SpanRecorder, codec_name: str) -> None:
    """Wrap each layer's public functions.  Must run before any
    deployment is built: servers and networks bind handler methods at
    construction."""
    from repro.cluster.proc import ProcShardHandle
    from repro.cluster.router import ShardedCosoftCluster
    from repro.core import action_sync, state_sync
    from repro.core.instance import ApplicationInstance
    from repro.net.codec import get_codec
    from repro.net.memory import MemoryNetwork
    from repro.server.server import CosoftServer
    from repro.toolkit.widget import UIObject

    _wrap_attr(rec, action_sync, "request_floor", "core.request_floor")
    _wrap_attr(rec, action_sync, "apply_remote_event", "core.apply_remote_event")
    _wrap_attr(rec, state_sync, "apply_state_payload", "core.state_apply")
    _wrap_attr(rec, ApplicationInstance, "copy_to", "core.copy_to")
    _wrap_attr(rec, UIObject, "run_callbacks", "toolkit.run_callbacks")
    for cls in list(_subclasses(UIObject)):
        if "apply_feedback" in vars(cls):
            _wrap_attr(rec, cls, "apply_feedback", "toolkit.apply_feedback")
    _wrap_attr(rec, CosoftServer, "handle_message", "server.handle_message")
    _wrap_attr(
        rec, ShardedCosoftCluster, "handle_message",
        "cluster.router.handle_message",
    )
    codec_cls = type(get_codec(codec_name))
    _wrap_attr(rec, codec_cls, "encode", "net.codec.encode")
    _wrap_attr(rec, codec_cls, "encode_batch", "net.codec.encode")
    _wrap_attr(rec, codec_cls, "decode_body", "net.codec.decode")
    _wrap_attr(rec, MemoryNetwork, "step", "net.memory.step")
    _wrap_attr(rec, ProcShardHandle, "call", "cluster.forward")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    rec: SpanRecorder,
    counters: Dict[str, float],
    ops: int,
    worker_cpu_ms: float,
    traced_ops_per_s: float,
) -> Dict[str, float]:
    """Per-layer metric values from the measured spans and the counter
    deltas of the measured region."""
    count: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    for _sid, _parent, name, start, end, own, _op in rec.spans:
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        durations.setdefault(name, []).append(end - start)

    def self_ms_per_op(name: str) -> float:
        return _ratio(self_s.get(name, 0.0) * 1e3, ops)

    def wait_ms_p50(name: str) -> float:
        values = durations.get(name)
        return statistics.median(values) * 1e3 if values else 0.0

    c = counters
    return {
        "core.request_floor.wait_ms_p50": wait_ms_p50("core.request_floor"),
        "core.request_floor.denied_per_op": _ratio(
            c["lock_denials_client"], ops),
        "core.apply_remote_event.per_op": _ratio(
            count.get("core.apply_remote_event", 0), ops),
        "core.apply_remote_event.self_ms_per_op": self_ms_per_op(
            "core.apply_remote_event"),
        "core.state_apply.self_ms_per_op": self_ms_per_op("core.state_apply"),
        "core.copy_to.wait_ms_p50": wait_ms_p50("core.copy_to"),
        "core.delta_push_ratio": _ratio(
            c["delta_pushes"], c["delta_pushes"] + c["full_pushes"]),
        "core.mapping_cache.hit_ratio": _ratio(
            c["mapping_hits"], c["mapping_hits"] + c["mapping_misses"]),
        "toolkit.run_callbacks.self_ms_per_op": self_ms_per_op(
            "toolkit.run_callbacks"),
        "toolkit.apply_feedback.self_ms_per_op": self_ms_per_op(
            "toolkit.apply_feedback"),
        "server.handle_message.self_ms_per_op": self_ms_per_op(
            "server.handle_message"),
        "cluster.router.handle_message.self_ms_per_op": self_ms_per_op(
            "cluster.router.handle_message"),
        "server.locks.acquisitions_per_op": _ratio(c["lock_acquisitions"], ops),
        "server.locks.denials_per_op": _ratio(c["lock_denials"], ops),
        "server.routing.receivers_per_event": _ratio(
            c["routing_receivers"], c["routing_events"]),
        "server.couples.rebuild_members_per_op": _ratio(
            c["rebuild_members"], ops),
        "net.msgs_per_op": _ratio(c["messages"], ops),
        "net.bytes_per_op": _ratio(c["bytes"], ops),
        "net.codec.encode.self_ms_per_op": self_ms_per_op("net.codec.encode"),
        "net.codec.decode.self_ms_per_op": self_ms_per_op("net.codec.decode"),
        "net.memory.step.self_ms_per_op": self_ms_per_op("net.memory.step"),
        "net.aio.msgs_per_batch": _ratio(c["batched_messages"], c["batches"]),
        "cluster.forward.per_op": _ratio(count.get("cluster.forward", 0), ops),
        "cluster.forward.wait_ms_p50": wait_ms_p50("cluster.forward"),
        "cluster.worker.cpu_ms_per_op": _ratio(worker_cpu_ms, ops),
        "persist.fsyncs_per_op": _ratio(c["fsyncs"], ops),
        "persist.append_bytes_per_op": _ratio(c["append_bytes"], ops),
        "trace.ops_per_s": traced_ops_per_s,
    }
