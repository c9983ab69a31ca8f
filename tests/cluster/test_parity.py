"""Single-server vs. cluster parity: same protocol, same outcome.

The acceptance bar for sharding: two instances coupled across shards must
see *identical event ordering and final UI state* as against a single
server.  Canvas strokes make ordering observable — the stroke list is the
exact sequence of applied DRAW events — so the scenario runs against a
plain single-server ``Session`` and against clusters of several sizes, and
every deployment must produce byte-identical results.
"""

import pytest

from repro.session import Session
from repro.toolkit.widgets import Canvas, Shell, TextField

DEPLOYMENTS = [
    pytest.param(lambda: Session(), id="single-server"),
    pytest.param(lambda: Session(shards=1), id="cluster-1"),
    pytest.param(lambda: Session(shards=2), id="cluster-2"),
    pytest.param(lambda: Session(shards=4), id="cluster-4"),
    pytest.param(lambda: Session(shards=8), id="cluster-8"),
]


def build_tree(root="ui"):
    shell = Shell(root)
    Canvas("board", parent=shell, width=20, height=10)
    TextField("title", parent=shell)
    return shell


def run_scenario(make_session):
    """Three users, two merging couple groups, interleaved drawing.

    Returns per-instance observable state: the ordered stroke lists and
    the text field values.
    """
    session = make_session()
    instances = {}
    trees = {}
    for iid, user in (("a", "amy"), ("b", "ben"), ("c", "cat")):
        instances[iid] = session.create_instance(iid, user=user)
        trees[iid] = instances[iid].add_root(build_tree())
    board = lambda iid: trees[iid].find("/ui/board")
    title = lambda iid: trees[iid].find("/ui/title")

    # Stage 1: couple a-b; on a multi-shard cluster this can already
    # migrate one side's object to the other's home shard.
    instances["a"].couple(board("a"), ("b", "/ui/board"))
    instances["a"].couple(title("a"), ("b", "/ui/title"))
    session.pump()
    # Pump between different users' actions: the floor protocol denies a
    # lock while the previous event's acks are outstanding (by design),
    # and a denied fire() rolls back locally instead of retrying.
    board("a").draw_stroke([(0, 0), (1, 1)], color="red", user="amy")
    session.pump()
    board("b").draw_stroke([(2, 2), (3, 3)], color="blue", user="ben")
    session.pump()

    # Stage 2: merge c into the group mid-session (second migration
    # candidate), then interleave events from all three sides.
    instances["b"].couple(board("b"), ("c", "/ui/board"))
    instances["b"].couple(title("b"), ("c", "/ui/title"))
    session.pump()
    for i in range(4):
        board("a").draw_stroke([(i, 0), (i, 1)], color="red", user="amy")
        session.pump()
        board("c").draw_stroke([(0, i), (1, i)], color="green", user="cat")
        session.pump()
        title("b").commit(f"round-{i}")
        session.pump()

    result = {
        iid: {
            "strokes": board(iid).strokes,
            "title": title(iid).value,
        }
        for iid in instances
    }
    migrations = getattr(session, "cluster", None)
    result["_migrations"] = migrations.migrations if migrations else 0
    session.close()
    return result


BASELINE = None


def baseline():
    global BASELINE
    if BASELINE is None:
        BASELINE = run_scenario(lambda: Session())
    return BASELINE


@pytest.mark.parametrize("make_session", DEPLOYMENTS)
def test_deployments_agree_with_the_single_server(make_session):
    expected = baseline()
    result = run_scenario(make_session)
    for iid in ("a", "b", "c"):
        # Identical final UI state...
        assert result[iid]["title"] == expected[iid]["title"]
        # ...and identical event *ordering* (strokes list the exact
        # application sequence of DRAW events).
        assert result[iid]["strokes"] == expected[iid]["strokes"]


@pytest.mark.parametrize("make_session", DEPLOYMENTS)
def test_replicas_converge_within_each_deployment(make_session):
    result = run_scenario(make_session)
    assert result["a"]["strokes"] == result["b"]["strokes"]
    assert len(result["a"]["strokes"]) == 10
    # c joined after stage 1 (coupling replicates future events, not past
    # state — §3.1 separates state sync from coupling), so it holds the
    # 8 stage-2 strokes, in the same order as everyone else's suffix.
    assert result["c"]["strokes"] == result["a"]["strokes"][2:]
    assert result["a"]["title"] == result["c"]["title"] == "round-3"


def test_the_scenario_actually_migrates_on_two_shards():
    result = run_scenario(lambda: Session(shards=2))
    # a:/ui/board and b:/ui/board hash to different 2-shard homes (stable
    # BLAKE2b placement), so stage 1 must have migrated at least once.
    assert result["_migrations"] >= 1
