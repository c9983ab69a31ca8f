"""Property-based end-to-end convergence: random workloads, coupled replicas.

The central invariant of the whole system: after the network quiesces,
every member of a couple group agrees on the relevant attributes — for any
sequence of committed events, any coupling topology, any seed.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.session import Session
from repro.toolkit.widgets import OptionMenu, Scale, Shell, TextField

N_INSTANCES = 3
FIELD = "/ui/field"
MENU = "/ui/menu"
SCALE = "/ui/scale"

ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_INSTANCES - 1),  # actor
        st.sampled_from(["field", "menu", "scale"]),           # widget
        st.one_of(
            st.text(alphabet=string.ascii_lowercase, max_size=6),
            st.integers(min_value=0, max_value=100),
        ),
    ),
    max_size=30,
)

topologies = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_INSTANCES - 1),
        st.integers(min_value=0, max_value=N_INSTANCES - 1),
        st.sampled_from(["field", "menu", "scale"]),
    ).filter(lambda t: t[0] != t[1]),
    min_size=1,
    max_size=6,
)

PATHS = {"field": FIELD, "menu": MENU, "scale": SCALE}


def build_session(seed):
    session = Session(jitter=0.002, seed=seed)
    trees = []
    for i in range(N_INSTANCES):
        inst = session.create_instance(f"i{i}", user=f"u{i}")
        root = Shell("ui")
        TextField("field", parent=root)
        OptionMenu("menu", parent=root, entries=["a", "b", "c"], selection="a")
        Scale("scale", parent=root, maximum=100)
        inst.add_root(root)
        trees.append(root)
    return session, trees


def perform(tree, widget_kind, value):
    if widget_kind == "field":
        tree.find(FIELD).commit(str(value))
    elif widget_kind == "menu":
        choices = ["a", "b", "c"]
        tree.find(MENU).select(choices[hash(str(value)) % 3])
    else:
        numeric = value if isinstance(value, int) else len(str(value))
        tree.find(SCALE).set_value(numeric)


class TestConvergence:
    @given(
        topology=topologies,
        script=ops,
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_coupled_groups_converge(self, topology, script, seed):
        session, trees = build_session(seed)
        try:
            instances = [session.instances[f"i{i}"] for i in range(N_INSTANCES)]
            for source, target, kind in topology:
                path = PATHS[kind]
                if not session.server.couples.has_link(
                    (f"i{source}", path), (f"i{target}", path)
                ):
                    instances[source].couple(
                        trees[source].find(path), (f"i{target}", path)
                    )
            session.pump()
            for actor, kind, value in script:
                perform(trees[actor], kind, value)
                session.pump()  # serialize: convergence of committed events
            session.pump()
            # Every couple group agrees on the relevant state.
            for group in session.server.couples.groups():
                states = []
                for instance_id, path in group:
                    idx = int(instance_id[1:])
                    states.append(trees[idx].find(path).relevant_state())
                assert all(s == states[0] for s in states)
        finally:
            session.close()

    @given(script=ops, seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_uncoupled_instances_never_interact(self, script, seed):
        session, trees = build_session(seed)
        try:
            base_messages = session.network.stats.messages
            for actor, kind, value in script:
                perform(trees[actor], kind, value)
            session.pump()
            # No coupling -> no traffic beyond registration.
            assert session.network.stats.messages == base_messages
        finally:
            session.close()
