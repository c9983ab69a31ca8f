"""Cluster sharding — scaling the central server beyond one process.

The paper's central-server architecture (Figure 4) serializes every
couple group through one process.  ``repro.cluster`` shards the server by
couple group behind a protocol-transparent router; this benchmark checks
the two claims that make that worthwhile:

* **conservation** — the router adds no traffic on the hot path: the
  per-shard message counts, summed with ``TrafficStats.merge``, stay
  within the single-server total ± the routing overhead (registration
  fan-out and group migration happen at setup, not per event);
* **scaling** — with a modeled per-message service time, the busiest
  shard's makespan shrinks and modeled throughput rises as shards are
  added, because disjoint couple groups land on different shards.

Workloads are reused from E10 (contention burst on one couple group —
floor-control correctness must be identical on every deployment) and E11
(population of disjoint pairs — the selective-grouping regime the
cluster is designed to scale).
"""

from _common import emit_table
from repro.baselines.fully_replicated import FullyReplicatedHarness
from repro.core.groups import CouplingGroup
from repro.net.transport import TrafficStats
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField
from repro.workloads import SCALE_PATH, contention_burst

SHARD_COUNTS = (1, 2, 4, 8)
FIELD = "/ui/field"
USERS = 24
EVENTS_PER_USER = 5
SERVICE_TIME = 1.0  # modeled seconds per message, >> simulated latency

E10_USERS = 4
E10_ROUNDS = 10
E10_SPACING = 0.001  # tight overlap: denials guaranteed


# ---------------------------------------------------------------------------
# E11 population workload (disjoint pairs) against 1..8 shards
# ---------------------------------------------------------------------------

def build_population(shards):
    session = (
        Session(shards=shards, service_time=SERVICE_TIME)
        if shards
        else Session()
    )
    trees = []
    for i in range(USERS):
        inst = session.create_instance(f"i{i}", user=f"u{i}")
        root = Shell("ui")
        TextField("field", parent=root)
        inst.add_root(root)
        trees.append(root)
    coordinator = session.create_instance("coord", user="mod")
    for i in range(0, USERS, 2):
        pair = CouplingGroup(coordinator, f"pair-{i}", [FIELD])
        pair.add_member(f"i{i}")
        pair.add_member(f"i{i + 1}")
    session.pump()
    return session, trees


def run_population(shards):
    session, trees = build_population(shards)
    cluster = session.cluster if shards else None
    # Measure the event phase only: registration fan-out and any group
    # migrations are one-time setup costs, not hot-path traffic.
    session.network.stats.reset()
    if cluster is not None:
        cluster.reset_shard_traffic()
        cluster._busy_until.clear()
    for round_no in range(EVENTS_PER_USER):
        for i in range(USERS):
            trees[i].find(FIELD).commit(f"u{i}-r{round_no}")
            session.pump()
    for i in range(0, USERS, 2):
        assert trees[i].find(FIELD).value == trees[i + 1].find(FIELD).value
    events = USERS * EVENTS_PER_USER
    network_messages = session.network.stats.messages
    result = {
        "shards": shards,
        "events": events,
        "network_messages": network_messages,
        "shard_messages": None,
        "migrations": None,
        "makespan": None,
        "throughput": None,
    }
    if cluster is not None:
        merged = TrafficStats()
        for stats in cluster._shard_stats.values():
            merged.merge(stats)
        assert merged.messages == cluster.shard_traffic().messages
        result["shard_messages"] = merged.messages
        result["migrations"] = cluster.migrations
        makespan = cluster.modeled_makespan()
        result["makespan"] = makespan
        result["throughput"] = events / makespan if makespan else 0.0
    session.close()
    return result


# ---------------------------------------------------------------------------
# E10 contention workload: floor-control parity on every deployment
# ---------------------------------------------------------------------------

def run_contention(shards):
    workload = contention_burst(
        n_users=E10_USERS, rounds=E10_ROUNDS, spacing=E10_SPACING, seed=13
    )
    harness = FullyReplicatedHarness(
        E10_USERS, base_latency=0.005, shards=shards
    )
    records = harness.run(workload)
    denied = sum(1 for r in records if not r.executed)
    values = {
        harness.user_state(u, SCALE_PATH)["value"] for u in range(E10_USERS)
    }
    if shards:
        locks_left = sum(
            len(shard.server.locks) for shard in harness.server.shards.values()
        )
    else:
        locks_left = len(harness.server.locks)
    harness.close()
    return {
        "shards": shards,
        "executed": len(records) - denied,
        "denied": denied,
        "converged": len(values) == 1,
        "locks_left": locks_left,
    }


class TestClusterSharding:
    def test_population_scaling_and_conservation(self, benchmark):
        def sweep():
            baseline = run_population(0)
            return baseline, [run_population(n) for n in SHARD_COUNTS]

        baseline, results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        rows = [
            [
                r["shards"],
                r["network_messages"],
                r["shard_messages"],
                r["migrations"],
                round(r["makespan"], 1),
                round(r["throughput"], 3),
            ]
            for r in results
        ]
        emit_table(
            "cluster_sharding",
            f"Cluster sharding: E11 pairs, {USERS} users x "
            f"{EVENTS_PER_USER} events (single-server net total: "
            f"{baseline['network_messages']} msgs)",
            ["shards", "net msgs", "shard msgs (merged)", "migrations",
             "modeled makespan s", "events/s (modeled)"],
            rows,
        )
        for r in results:
            # Conservation 1: the cluster is invisible on the wire — the
            # client-facing network carries the same traffic as against
            # the single server.
            assert r["network_messages"] == baseline["network_messages"]
            # Conservation 2: merged per-shard counts equal the network
            # total ± routing overhead (hot-path messages touch exactly
            # one shard; migrations were excluded by the post-setup
            # reset, so the margin is tight).
            overhead = abs(r["shard_messages"] - r["network_messages"])
            assert overhead <= 0.05 * r["network_messages"]
        # Scaling: disjoint groups spread over shards, so the modeled
        # makespan shrinks and throughput rises monotonically.
        throughputs = [r["throughput"] for r in results]
        assert throughputs == sorted(throughputs)
        assert throughputs[-1] > 2 * throughputs[0]

    def test_multiprocess_cluster_commit_throughput(self, benchmark, tmp_path):
        """The processes=True deployment under a real commit workload.

        Not a speedup gate (subprocess spawn and fsync costs are
        machine-dependent): it measures sustained cross-process commit
        round-trips and asserts the structural claims — every op lands,
        both workers stay alive, and the per-shard journals actually
        grew (the exactly-once protocol journals before acking).
        """
        import os
        import time as _time

        from repro.session import Session as _Session

        ROUNDS = 20

        def run():
            with _Session(
                backend="aio", shards=2, processes=True,
                persistence=str(tmp_path),
            ) as session:
                a = session.create_instance("a", user="amy")
                b = session.create_instance("b", user="ben")
                roots = []
                for inst in (a, b):
                    root = Shell("ui")
                    TextField("field", parent=root)
                    roots.append(inst.add_root(root))
                a.couple(roots[0].find(FIELD), ("b", FIELD))
                session.pump()
                started = _time.perf_counter()
                for round_no in range(ROUNDS):
                    roots[0].find(FIELD).commit(f"r{round_no}")
                    session.pump()
                elapsed = _time.perf_counter() - started
                assert roots[1].find(FIELD).value == f"r{ROUNDS - 1}"
                states = [
                    handle.state
                    for handle in session.cluster.shards.values()
                ]
                journals = [
                    os.path.getsize(os.path.join(root_dir, name))
                    for root_dir, _, names in os.walk(str(tmp_path))
                    for name in names
                    if name.endswith(".jsonl") or name.startswith("oplog")
                ]
                return elapsed, states, journals

        elapsed, states, journals = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        emit_table(
            "cluster_multiprocess",
            f"Multi-process cluster: {ROUNDS} coupled commits, 2 shards",
            ["commits", "elapsed s", "commits/s", "workers ready"],
            [[ROUNDS, round(elapsed, 2), round(ROUNDS / elapsed, 1),
              states.count("ready")]],
        )
        assert states == ["ready", "ready"]
        assert sum(journals) > 0

    def test_contention_parity_across_deployments(self, benchmark):
        def sweep():
            return [run_contention(0)] + [
                run_contention(n) for n in SHARD_COUNTS
            ]

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        rows = [
            [
                r["shards"] or "single",
                r["executed"],
                r["denied"],
                r["converged"],
                r["locks_left"],
            ]
            for r in results
        ]
        emit_table(
            "cluster_sharding_contention",
            f"Cluster sharding: E10 contention parity "
            f"({E10_USERS} users, {E10_ROUNDS} rounds)",
            ["shards", "executed", "denied", "converged", "locks leaked"],
            rows,
        )
        single = results[0]
        assert single["denied"] > 0  # the burst actually contends
        for r in results:
            # One couple group lives on one shard, so floor-control
            # outcomes are bit-identical on every deployment.
            assert r["executed"] == single["executed"]
            assert r["denied"] == single["denied"]
            assert r["converged"]
            assert r["locks_left"] == 0
