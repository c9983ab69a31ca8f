#!/usr/bin/env python3
"""The repository benchmark: commit->peer latency, throughput and
per-layer cost on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload classroom --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

One workload per run, in this fresh interpreter: episodes of a fixed
size, each on a freshly built deployment, until ``--seconds`` are used
up (``workloads.run_episode``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` wraps each layer's public
functions (see ``layers.py``) and reports the per-layer metrics instead,
plus its own throughput, whose ratio to the untraced one is the tracing
overhead.  ``--workload all`` runs every workload ``BENCHMARK.json``
names untraced and traced, each in a child interpreter, and prints every
metric with its unit and the tracing overhead.  ``pair_edit`` runs only
when named: it is not in ``BENCHMARK.json`` (see README).

Every line but the last is for people; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A failed correctness
check prints which workload and op failed and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Run artefacts (span dumps, shard journals) stay inside the checkout.
OUT = os.path.join(ROOT, ".perfbench")

#: Every workload this script can run; ``BENCHMARK.json`` names the
#: ones measured.
WORKLOAD_NAMES = ("pair_edit", "pair_burst_proc", "classroom")

CHILD_TIMEOUT = 180.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run in a plain export with no ``.git``)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha1 over every ``src/**/*.py`` (path and bytes): identifies the
    measured program even where no git metadata exists."""
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(workload: str, seed: int, trace: bool,
                knobs: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha1": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "session_knobs": knobs,
        "network": (
            "simulated (memory backend, no sockets)"
            if workload == "classroom" else "loopback 127.0.0.1 only"
        ),
    }


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def print_kinds(episodes: List[Any]) -> None:
    """Each op kind's share of the measured time and messages."""
    kinds: Dict[str, List[float]] = {}
    for ep in episodes:
        for kind, (n, seconds, msgs) in ep.recorder.kinds.items():
            slot = kinds.setdefault(kind, [0, 0.0, 0])
            slot[0] += n
            slot[1] += seconds
            slot[2] += msgs
    if not kinds:
        return
    total_s = sum(v[1] for v in kinds.values()) or 1.0
    total_m = sum(v[2] for v in kinds.values()) or 1
    for kind, (n, seconds, msgs) in sorted(kinds.items()):
        print(f"# kind {kind:8s} {n:6d} ops  {seconds / total_s:6.1%} of time  "
              f"{msgs / total_m:6.1%} of messages  "
              f"{seconds * 1e3 / n:8.3f} ms/op  {msgs / n:8.2f} msgs/op")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, SRC)
    import layers
    import workloads

    w = workloads.WORKLOADS[args.workload]
    # The benchmark process with its threads (load generator, aio loop,
    # cluster router) runs on one CPU, so their hand-overs happen on one
    # core: on a shared 2-vCPU machine, cross-core wake-ups made runs
    # slower and their spread wider.  Shard workers, where a workload
    # has them, get the other CPUs, so router and workers can overlap.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    worker_cpus = cpus[1:] if w.own_worker_cpu else []
    trace = bool(args.trace)
    rec: Optional[layers.SpanRecorder] = None
    if trace:
        rec = layers.SpanRecorder()
        layers.install(rec, workloads.KNOBS["codec"])
    env = environment(w.name, args.seed, trace, workloads.KNOBS)
    print("# env " + json.dumps(env, sort_keys=True))

    workdir = os.path.join(OUT, f"work-{w.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    quick = args.quick
    warmup = w.warmup_ops
    measured = w.quick_ops if quick else w.episode_ops
    episodes: List[workloads.Episode] = []
    failure: Optional[str] = None
    run_start = time.perf_counter()
    try:
        # Episodes of a fixed size until the next one would overrun
        # --seconds; at least one.
        while True:
            ep_start = time.perf_counter()
            # Generated before this episode's timing starts.
            script = w.script(
                random.Random(f"{args.seed}/{len(episodes)}"),
                warmup + measured,
            )
            episodes.append(workloads.run_episode(
                w, workdir, script, warmup,
                len(episodes) * len(script), rec, worker_cpus,
            ))
            now = time.perf_counter()
            if quick or now + (now - ep_start) - run_start > args.seconds:
                break
    except workloads.CheckFailed as exc:
        failure = str(exc)
    except Exception as exc:  # set-up, settling or counters broke
        traceback.print_exc()
        failure = f"{w.name}: {type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = sum(ep.recorder.ops for ep in episodes)
    if failure is not None:
        print(f"perfbench: CHECK FAILED in {failure}", file=sys.stderr)
        print(_result_line(False, max(ops, 1), 1, {}))
        return 1

    median = statistics.median
    blocks = [b for ep in episodes for b in ep.recorder.blocks]
    setups = [t for ep in episodes for t in ep.setup_s]
    # Block statistics at the fast decile (see README): the host's
    # speed changes in phases, and its fast blocks are what repeats.
    ops_per_s = percentile([n / wall for n, wall, _, _, _ in blocks], 90)
    print(f"# {len(episodes)} episodes of {warmup} warm-up + {measured} "
          f"timed script ops, {len(blocks)} blocks; {ops} ops timed; "
          f"set-up runs {[round(t, 4) for t in setups]}")
    print_kinds(episodes)
    if trace:
        counters: Dict[str, float] = {}
        for ep in episodes:
            for key, value in ep.counters.items():
                counters[key] = counters.get(key, 0) + value
        worker_cpu_ms = sum(ep.worker_cpu_ms for ep in episodes)
        values = layers.derive(rec, counters, ops, worker_cpu_ms, ops_per_s)
        os.makedirs(OUT, exist_ok=True)
        # One file per workload, replaced by each traced run: a 55 s
        # classroom run writes about a million spans (over 100 MB).
        spans_path = os.path.join(OUT, f"spans-{w.name}.jsonl")
        rec.write(spans_path)
        print(f"# {len(rec.spans)} spans written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    else:
        ms = 1e3
        values = {
            "setup_s": median(setups),
            "ops_per_s": ops_per_s,
            "commit_peer_p50_ms": percentile(
                [peer for _, _, _, peer, _ in blocks], 10) * ms,
            "commit_block_p50_ms": percentile(
                [block for _, _, _, _, block in blocks], 10) * ms,
            "cpu_ms_per_op": percentile(
                [cpu / n for n, _, cpu, _, _ in blocks], 10),
            "rss_peak_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        # Whole-run figures and tails are printed, not bounded metrics
        # (see README).
        wall = sum(ep.wall for ep in episodes)
        cpu = sum(ep.cpu_ms + ep.worker_cpu_ms for ep in episodes)
        print(f"# whole run: ops_per_s {ops / wall:.4f} cpu_ms_per_op "
              f"{cpu / ops:.4f}")
        for name in ("commit_peer", "commit_block"):
            samples = [
                s for ep in episodes for s in getattr(ep.recorder, name)
            ]
            print(f"# {name}_p50_ms {median(samples) * ms:.4f} "
                  f"p90_ms {percentile(samples, 90) * ms:.4f} "
                  f"p99_ms {percentile(samples, 99) * ms:.4f}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    for name, m in metrics.items():
        print(f"{w.name:16s} {name:46s} {m['value']:14.4f} {m['unit']}")
    print(_result_line(True, ops, 0, metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload of ``BENCHMARK.json``, untraced then traced, each
    in a fresh interpreter."""
    status = 0
    summary: Dict[str, Any] = {}
    for name in [w["name"] for w in load_spec()["workloads"]]:
        results = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                    timeout=CHILD_TIMEOUT,
                )
            except subprocess.TimeoutExpired:
                print(f"perfbench: {name} trace={trace} timed out",
                      file=sys.stderr)
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                status = 1
            results[trace] = result
        if len(results) == 2 and results[0].get("metrics"):
            untraced = results[0]["metrics"]["ops_per_s"]["value"]
            traced = results[1]["metrics"]["trace.ops_per_s"]["value"]
            print(f"{name:16s} {'tracing overhead (untraced/traced ops_per_s)':46s} "
                  f"{untraced / traced:14.4f} x")
        summary[name] = results
    print(json.dumps(summary))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="a fixed handful of ops and one setup (self-test mode)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
