"""The three benchmark workloads, driven through the public API only.

A run is a series of episodes (:func:`run_episode`).  Each builds a
fresh deployment (timed as ``setup_s``), turns a seeded RNG into an op
script before any timing starts, runs that script in a closed loop (every
op waits for its own completion before the next one starts), timing it
in blocks of consecutive ops, and checks the program's outputs as it
goes and at the end.

A broken invariant raises :class:`CheckFailed`, naming the workload and
the op, so the harness exits non-zero.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import string
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.classroom import StudentEnvironment, TeacherEnvironment
from repro.core import compat
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED
from repro.toolkit.widgets import Form, Shell, TextField

#: Knobs fixed for every deployment, so that no ``REPRO_*`` environment
#: variable can change what is measured.  Each is the program's own
#: default: JSON codec, per-message frames, observability off.  Everything
#: else, the EventTrace ring size (100 000 events) included, is left at
#: its default too.
KNOBS = dict(codec="json", wire_batching=False, observability=False)

#: How long (wall seconds) one op may wait for the peer before it counts
#: as a timeout.
OP_TIMEOUT = 10.0

FIELDS = 16
#: Length of every text value a pair workload commits.
VALUE_LEN = 12
_ALPHABET = string.ascii_letters + string.digits
#: Byte -> alphanumeric character, for turning random bytes into text.
_TO_TEXT = bytes(_ALPHABET.encode()[b % len(_ALPHABET)] for b in range(256))


class CheckFailed(Exception):
    """A correctness check failed; the message names workload and op."""

    def __init__(self, workload: str, op: str, detail: str):
        super().__init__(f"{workload}: op {op}: {detail}")


class Recorder:
    """What one episode's timed region produces: per-op latencies, op
    counts, per op kind [ops, seconds, messages], and per block of
    consecutive ops (ops, wall seconds, CPU ms, median commit->peer and
    commit-block seconds)."""

    def __init__(self) -> None:
        self.commit_peer: List[float] = []
        self.commit_block: List[float] = []
        self.ops = 0
        self.kinds: Dict[str, List[float]] = {}
        self.blocks: List[Tuple[int, float, float, float, float]] = []
        self._mark = (0, 0, 0)

    def close_block(self, wall: float, cpu_ms: float) -> None:
        """End the current block after *wall* seconds and *cpu_ms* of
        CPU."""
        ops, peer, block = self._mark
        self.blocks.append((
            self.ops - ops, wall, cpu_ms,
            statistics.median(self.commit_peer[peer:]),
            statistics.median(self.commit_block[block:]),
        ))
        self._mark = (
            self.ops, len(self.commit_peer), len(self.commit_block)
        )

    def note(self, kind: str, seconds: float, messages: int) -> None:
        slot = self.kinds.setdefault(kind, [0, 0.0, 0])
        slot[0] += 1
        slot[1] += seconds
        slot[2] += messages


def _poll(predicate, timeout: float = OP_TIMEOUT) -> bool:
    """Poll a predicate on state no transport condition signals (server
    side tables read from the load-generator thread)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def cpu_ms(pid: int) -> float:
    """CPU time of every thread of process *pid* so far, in ms, from
    ``/proc/<pid>/task/*/schedstat`` (nanoseconds; ``/proc/<pid>/stat``
    counts 10 ms ticks, too coarse for one block)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total / 1e6


# ---------------------------------------------------------------------------
# Pair workloads (aio)
# ---------------------------------------------------------------------------


class _Pair:
    """Two heterogeneous editors with 16 coupled text fields.

    Instance ``a`` shows the fields as lines of a notes page, instance
    ``b`` as cells of a sheet: different ``app_type``, different widget
    paths, one coupling per field pair.
    """

    def __init__(self, session: Session):
        a = session.create_instance("editor-a", user="ann", app_type="notes")
        b = session.create_instance("editor-b", user="ben", app_type="sheet")
        self.instances = (a, b)
        notes = Shell("notes")
        page = Form("page", parent=notes)
        sheet = Shell("sheet")
        for i in range(FIELDS):
            TextField(f"line{i:02d}", parent=page)
            TextField(f"cell{i:02d}", parent=sheet)
        a.add_root(notes)
        b.add_root(sheet)
        self.paths = (
            [f"/notes/page/line{i:02d}" for i in range(FIELDS)],
            [f"/sheet/cell{i:02d}" for i in range(FIELDS)],
        )
        self.fields = tuple(
            [inst.widget(p) for p in paths]
            for inst, paths in zip(self.instances, self.paths)
        )
        #: arrivals[side][field] = (count, value, perf_counter stamp)
        self.arrivals: Tuple[List[Tuple[int, str, float]], ...] = (
            [(0, "", 0.0)] * FIELDS,
            [(0, "", 0.0)] * FIELDS,
        )
        for side in (0, 1):
            for i, widget in enumerate(self.fields[side]):
                widget.add_callback(VALUE_CHANGED, self._stamper(side, i))
        for i in range(FIELDS):
            a.couple(self.paths[0][i], ("editor-b", self.paths[1][i]))
        for side, inst in enumerate(self.instances):
            paths = self.paths[side]
            if not inst.transport.drive(
                lambda inst=inst, paths=paths: all(
                    inst.is_coupled(p) for p in paths
                ),
                timeout=OP_TIMEOUT,
            ):
                raise CheckFailed("setup", "couple", "couplings never visible")

    def _stamper(self, side: int, index: int):
        arrivals = self.arrivals[side]

        def stamp(widget: Any, _event: Any) -> None:
            arrivals[index] = (
                arrivals[index][0] + 1, widget.value, time.perf_counter()
            )

        return stamp

    def burst(
        self, workload: str, op_base: int, initiator: int,
        edits: List[Tuple[int, str]], rec: Recorder,
    ) -> None:
        """Commit every ``(field, value)`` of *edits* from *initiator*,
        then wait until all of them reach the peer."""
        inst = self.instances[initiator]
        peer = 1 - initiator
        peer_arrivals = self.arrivals[peer]
        user = inst.user
        fields = self.fields[initiator]
        starts = []
        expect = []
        perf = time.perf_counter
        for n, (index, value) in enumerate(edits):
            expect.append(peer_arrivals[index][0] + 1)
            t0 = perf()
            fields[index].commit(value, user=user)
            t1 = perf()
            if not inst.last_execution.executed:
                raise CheckFailed(
                    workload, f"#{op_base + n} commit field {index}",
                    "floor denied (no denial is scripted here)",
                )
            starts.append(t0)
            rec.commit_block.append(t1 - t0)
        pairs = list(zip((i for i, _ in edits), expect))
        # Settle by predicate on the peer transport's own condition,
        # which every inbound dispatch notifies.
        if not self.instances[peer].transport.drive(
            lambda: all(peer_arrivals[i][0] >= c for i, c in pairs),
            timeout=OP_TIMEOUT,
        ):
            raise CheckFailed(
                workload, f"#{op_base}..#{op_base + len(edits) - 1}",
                f"timeout: commits did not reach the peer in {OP_TIMEOUT}s",
            )
        for n, ((index, value), t0) in enumerate(zip(edits, starts)):
            count, seen, stamp = peer_arrivals[index]
            if seen != value:
                raise CheckFailed(
                    workload, f"#{op_base + n} commit field {index}",
                    f"peer shows {seen!r}, expected {value!r}",
                )
            rec.commit_peer.append(stamp - t0)
        rec.ops += len(edits)

    def check_final(self, workload: str) -> None:
        a_vals = [w.value for w in self.fields[0]]
        b_vals = [w.value for w in self.fields[1]]
        if a_vals != b_vals:
            raise CheckFailed(workload, "final", "replicas diverged")
        for inst in self.instances:
            for key in ("request_timeouts", "malformed_messages"):
                if inst.stats[key]:
                    raise CheckFailed(
                        workload, "final",
                        f"{inst.instance_id} {key}={inst.stats[key]}",
                    )


def _random_text(rng: random.Random, n: int) -> str:
    return rng.randbytes(n).translate(_TO_TEXT).decode("ascii")


def _bursts(
    rng: random.Random, n_ops: int, size: int
) -> List[Tuple[int, List[Tuple[int, str]]]]:
    """A seeded pair script: op *i* is a burst of *size* commits on
    distinct fields from initiator ``i % 2``."""
    return [
        (i % 2, [
            (field, _random_text(rng, VALUE_LEN))
            for field in rng.sample(range(FIELDS), size)
        ])
        for i in range(n_ops)
    ]


class PairEdit:
    """``pair_edit``: one server on aio, one commit outstanding.

    Alternating initiator, seeded field choice; each commit waits until
    the peer replica shows its value.  One op is one commit.
    """

    name = "pair_edit"
    burst_size = 1
    #: Script ops (bursts here) per episode: untimed warm-up, then timed.
    warmup_ops = 100
    episode_ops = 2000
    #: Script ops per block, the unit of the run's statistics (run.py).
    block_ops = 200
    #: Deployments built (each timed as set-up) per episode.
    setup_builds = 2
    quick_ops = 100
    #: Whether the shard workers get a CPU of their own (see run.py).
    own_worker_cpu = False

    def build(self, workdir: str) -> Dict[str, Any]:
        session = Session(backend="aio", persistence=None, **KNOBS)
        try:
            pair = _Pair(session)
        except BaseException:
            session.close()
            raise
        return {"session": session, "pair": pair}

    def teardown(self, dep: Dict[str, Any]) -> None:
        dep["session"].close()

    def script(self, rng: random.Random, n_ops: int) -> List[Any]:
        return _bursts(rng, n_ops, self.burst_size)

    def kind_of(self, op: Any) -> Optional[str]:
        """The op's kind, for the per-kind breakdown; ``None``: one kind
        only, no breakdown."""
        return None

    def run_op(self, dep, index: int, op, rec: Recorder) -> None:
        initiator, edits = op
        dep["pair"].burst(
            self.name, index * self.burst_size, initiator, edits, rec
        )

    def settle(self, dep) -> None:
        """Wait for the last floor release (the peer's ack is still on
        its way to the server when the peer shows the value)."""
        server = dep["session"].server
        _poll(lambda: not server.stats()["locks_held"])

    def check_final(self, dep) -> None:
        dep["pair"].check_final(self.name)
        server = dep["session"].server
        held = server.stats()["locks_held"]
        if held:
            raise CheckFailed(self.name, "final", f"{held} locks still held")

    def counters(self, dep) -> Dict[str, float]:
        session = dep["session"]
        c = _instance_counters(session)
        c.update(_traffic_counters(session))
        c.update(_server_counters(session.server.stats()))
        return c

    def worker_pids(self, dep) -> List[int]:
        return []


class PairBurstProc(PairEdit):
    """``pair_burst_proc``: two shard worker processes behind the router.

    Each step fires 16 commits on distinct fields from one initiator
    (alternating per step), then waits until all 16 reach the peer.  One
    op is one commit.
    """

    name = "pair_burst_proc"
    burst_size = FIELDS
    warmup_ops = 4
    episode_ops = 40
    #: One burst per block: the host's fast spells are short, and short
    #: blocks find them (see README).
    block_ops = 1
    setup_builds = 2
    quick_ops = 6
    own_worker_cpu = True

    def build(self, workdir: str) -> Dict[str, Any]:
        journal = os.path.join(workdir, "journal")
        shutil.rmtree(journal, ignore_errors=True)
        session = Session(
            backend="aio", shards=2, processes=True, persistence=journal,
            **KNOBS,
        )
        try:
            pair = _Pair(session)
        except BaseException:
            session.close()
            raise
        return {"session": session, "pair": pair, "journal": journal}

    def teardown(self, dep: Dict[str, Any]) -> None:
        dep["session"].close()
        shutil.rmtree(dep["journal"], ignore_errors=True)

    def _fresh_worker_stats(self, dep) -> List[Dict[str, Any]]:
        """Every worker's ``server.stats()`` from a heartbeat answered
        after this call started."""
        handles = list(dep["session"].cluster.shards.values())
        mark = time.monotonic()
        deadline = mark + OP_TIMEOUT
        while any(h.last_pong <= mark for h in handles):
            if time.monotonic() > deadline:
                raise CheckFailed(self.name, "stats", "no fresh worker heartbeat")
            time.sleep(0.01)
        return [dict(h.remote_stats) for h in handles]

    def settle(self, dep) -> None:
        _poll(lambda: not any(
            w.get("locks_held") for w in self._fresh_worker_stats(dep)
        ))

    def check_final(self, dep) -> None:
        dep["pair"].check_final(self.name)
        stats = dep["session"].cluster.stats()
        for shard_id, info in stats["per_shard"].items():
            if info["state"] != "ready" or info["restarts"]:
                raise CheckFailed(
                    self.name, "final",
                    f"{shard_id} state={info['state']} "
                    f"restarts={info['restarts']}",
                )
        workers = self._fresh_worker_stats(dep)
        for n, worker in enumerate(workers):
            if worker.get("locks_held"):
                raise CheckFailed(
                    self.name, "final",
                    f"shard {n} holds {worker['locks_held']} locks",
                )
            if not worker.get("couple_links"):
                raise CheckFailed(
                    self.name, "final", f"shard {n} owns no coupled field"
                )

    def counters(self, dep) -> Dict[str, float]:
        session = dep["session"]
        c = _instance_counters(session)
        c.update(_traffic_counters(session))
        workers = self._fresh_worker_stats(dep)
        merged: Dict[str, float] = {}
        for worker in workers:
            for key, value in _server_counters(worker).items():
                merged[key] = merged.get(key, 0) + value
        c.update(merged)
        return c

    def worker_pids(self, dep) -> List[int]:
        stats = dep["session"].cluster.stats()
        return [info["pid"] for info in stats["per_shard"].values()]


# ---------------------------------------------------------------------------
# Classroom (memory backend)
# ---------------------------------------------------------------------------

STUDENTS = 31
SCALE_PAIRS = [
    ("/teacher/params/amplitude", "/student/exercise/amplitude"),
    ("/teacher/params/frequency", "/student/exercise/frequency"),
]
ANSWER = "/student/exercise/answer"
NOTES = "/teacher/notes"

#: One round of the classroom script: each op kind once.  The paper
#: gives no traffic mix; the walkthrough of its section 4 scenario
#: (examples/classroom_session.py) does each of its steps once — a help
#: request, an inspection (CopyFrom), a join, a demo, a leave — and
#: CopyTo and the floor race join them at the same weight.  Equal weight
#: is an assumption; run.py prints each kind's share of the measured
#: time and messages, so its effect is visible.  The seed shuffles the
#: order within each round.
ROUND = ["demo", "copy_to", "inspect", "help", "churn", "race"]


class Classroom:
    """``classroom``: the paper's teaching app on the memory backend.

    A teacher liveboard and 31 student workstations, every student
    joined on both parameter scales (two 32-way couple groups).  The
    notes/answer pair is left uncoupled so that CopyTo and CopyFrom move
    state the coupling has not already moved.
    """

    name = "classroom"
    warmup_ops = 2 * len(ROUND)
    episode_ops = 40 * len(ROUND)
    block_ops = len(ROUND)
    setup_builds = 3
    quick_ops = 2 * len(ROUND)
    own_worker_cpu = False

    def build(self, workdir: str) -> Dict[str, Any]:
        session = Session(persistence=None, **KNOBS)
        teacher = TeacherEnvironment(
            session.create_instance("teacher", user="hoppe")
        )
        students = [
            StudentEnvironment(
                session.create_instance(f"student-{i:02d}", user=f"kid-{i:02d}")
            )
            for i in range(STUDENTS)
        ]
        session.pump()
        for student in students:
            teacher.join_session(student.instance.instance_id, SCALE_PAIRS)
        session.pump()
        for student in students:
            for _, path in SCALE_PAIRS:
                if not student.instance.is_coupled(path):
                    raise CheckFailed(self.name, "setup", "coupling not visible")
        scales = [
            [s.instance.widget(path) for _, path in SCALE_PAIRS]
            for s in students
        ]
        #: arrivals[k] = [count, perf_counter stamp of the latest] for
        #: the k-th coupled scale, over all 31 students.
        arrivals = [[0, 0.0] for _ in SCALE_PAIRS]
        for row in scales:
            for k, widget in enumerate(row):
                widget.add_callback(VALUE_CHANGED, self._stamper(arrivals[k]))
        return {
            "session": session,
            "teacher": teacher,
            "students": students,
            "teacher_scales": [
                teacher.instance.widget(path) for path, _ in SCALE_PAIRS
            ],
            "scales": scales,
            "arrivals": arrivals,
            "pushed": {},
            "races": 0,
            "helps": 0,
        }

    @staticmethod
    def _stamper(slot: List[Any]):
        def stamp(_widget: Any, _event: Any) -> None:
            slot[0] += 1
            slot[1] = time.perf_counter()

        return stamp

    def teardown(self, dep: Dict[str, Any]) -> None:
        dep["session"].close()

    def script(self, rng: random.Random, n_ops: int) -> List[Any]:
        ops: List[Any] = []
        while len(ops) < n_ops:
            kinds = list(ROUND)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "demo":
                    ops.append((kind, rng.randrange(11), rng.randrange(9)))
                elif kind == "copy_to":
                    ops.append(
                        (kind, rng.randrange(STUDENTS), _random_text(rng, 24))
                    )
                elif kind in ("inspect", "churn"):
                    ops.append((kind, rng.randrange(STUDENTS)))
                elif kind == "help":
                    ops.append(
                        (kind, rng.randrange(STUDENTS), _random_text(rng, 16))
                    )
                else:  # race: two distinct students, two values
                    first, second = rng.sample(range(STUDENTS), 2)
                    ops.append(
                        (kind, first, second, rng.randrange(11),
                         rng.randrange(11))
                    )
        return ops[:n_ops]

    def kind_of(self, op: Any) -> Optional[str]:
        return op[0]

    def messages(self, dep) -> int:
        """Messages the simulated network has carried so far."""
        return dep["session"].network.stats.messages

    # The script draws values blind; an op that would write the value a
    # scale already holds is nudged so that every commit changes state
    # (and therefore must arrive).
    @staticmethod
    def _differ(value: int, current: float, maximum: int) -> int:
        return value if value != current else (value + 1) % (maximum + 1)

    def run_op(self, dep, index: int, op, rec: Recorder) -> None:
        session = dep["session"]
        teacher: TeacherEnvironment = dep["teacher"]
        students: List[StudentEnvironment] = dep["students"]
        kind = op[0]
        where = f"#{index} {kind}"
        perf = time.perf_counter
        if kind == "demo":
            # What TeacherEnvironment.set_parameters does, one scale at a
            # time, so that each commit is timed on its own.
            arrivals = dep["arrivals"]
            user = teacher.instance.user
            wanted = []
            for k, (widget, value, top) in enumerate(
                zip(dep["teacher_scales"], op[1:], (10, 8))
            ):
                value = self._differ(value, widget.value, top)
                wanted.append(value)
                expect = arrivals[k][0] + STUDENTS
                t0 = perf()
                widget.set_value(value, user=user)
                rec.commit_block.append(perf() - t0)
                if not teacher.instance.last_execution.executed or not (
                    teacher.instance.transport.drive(
                        lambda k=k, expect=expect: arrivals[k][0] >= expect,
                        timeout=OP_TIMEOUT,
                    )
                ):
                    raise CheckFailed(
                        self.name, where, "demo did not reach all students"
                    )
                rec.commit_peer.append(arrivals[k][1] - t0)
            session.pump()
            for student, row in zip(students, dep["scales"]):
                shown = [w.value for w in row]
                if shown != wanted:
                    raise CheckFailed(
                        self.name, where,
                        f"{student.instance.instance_id} shows {shown}, "
                        f"expected {wanted}",
                    )
        elif kind == "copy_to":
            student = students[op[1]]
            target = (student.instance.instance_id, ANSWER)
            notes = teacher.ui.find(NOTES)
            notes.commit(op[2], user=teacher.instance.user)
            teacher.instance.copy_to(notes, target)
            session.pump()
            if student.answer_text != op[2]:
                raise CheckFailed(
                    self.name, where,
                    f"{target[0]} answer is {student.answer_text!r}",
                )
            dep["pushed"][target[0]] = op[2]
        elif kind == "inspect":
            student = students[op[1]]
            sid = student.instance.instance_id
            teacher.inspect_student_work(sid, ANSWER, NOTES)
            session.pump()
            if teacher.ui.find(NOTES).text != student.answer_text:
                raise CheckFailed(
                    self.name, where, f"notes do not show {sid}'s answer"
                )
        elif kind == "help":
            student = students[op[1]]
            before = len(teacher.help_requests)
            ack = student.request_help(op[2], teacher.instance.instance_id)
            session.pump()
            dep["helps"] += 1
            if ack != {"queued": before + 1} or (
                teacher.help_requests[-1]["data"]["message"] != op[2]
            ):
                raise CheckFailed(self.name, where, f"help ack was {ack!r}")
        elif kind == "churn":
            sid = students[op[1]].instance.instance_id
            if teacher.leave_session(sid) != len(SCALE_PAIRS):
                raise CheckFailed(self.name, where, "leave decoupled too few")
            session.pump()
            teacher.join_session(sid, SCALE_PAIRS)
            session.pump()
            for _, path in SCALE_PAIRS:
                if not students[op[1]].instance.is_coupled(path):
                    raise CheckFailed(self.name, where, "rejoin not visible")
        else:  # race
            first, second = students[op[1]], students[op[2]]
            first_amp = dep["scales"][op[1]][0]
            second_amp = dep["scales"][op[2]][0]
            current = first_amp.value
            win = self._differ(op[3], current, 10)
            lose = op[4] if op[4] not in (win, current) else (
                next(v for v in range(11) if v not in (win, current))
            )
            first_amp.set_value(win, user=first.instance.user)
            won = first.instance.last_execution.executed
            # Back to back: the first floor is still held while its
            # broadcast awaits 31 acks, so the second must be denied.
            second_amp.set_value(lose, user=second.instance.user)
            denied = second.instance.last_execution.lock_denied
            session.pump()
            dep["races"] += 1
            if not won or not denied:
                raise CheckFailed(
                    self.name, where,
                    f"race outcome won={won} denied={denied}",
                )
            if second_amp.value != win or dep["teacher_scales"][0].value != win:
                raise CheckFailed(self.name, where, "race loser not rolled back")
        rec.ops += 1

    def settle(self, dep) -> None:
        dep["session"].pump()

    def check_final(self, dep) -> None:
        teacher = dep["teacher"]
        students = dep["students"]
        for _, path in SCALE_PAIRS:
            values = {
                s.instance.widget(path).value for s in students
            }
            values.add(teacher.ui.find(path.replace(
                "/student/exercise/", "/teacher/params/")).value)
            if len(values) != 1:
                raise CheckFailed(self.name, "final", f"{path} diverged")
        for student in students:
            sid = student.instance.instance_id
            if sid in dep["pushed"] and student.answer_text != dep["pushed"][sid]:
                raise CheckFailed(
                    self.name, "final", f"{sid} lost its CopyTo text"
                )
        if len(teacher.help_requests) < dep["helps"]:
            raise CheckFailed(self.name, "final", "help requests lost")
        acked = sum(len(s.help_acks) for s in students)
        if acked != dep["helps"]:
            raise CheckFailed(self.name, "final", f"{acked} help acks")
        stats = dep["session"].server.stats()
        if stats["locks_held"]:
            raise CheckFailed(self.name, "final", "lock table not empty")
        denials = sum(
            s.instance.stats["lock_denials"] for s in students
        ) + teacher.instance.stats["lock_denials"]
        if denials != dep["races"]:
            raise CheckFailed(
                self.name, "final",
                f"{denials} floor denials for {dep['races']} scripted races",
            )
        for inst in dep["session"].instances.values():
            for key in ("request_timeouts", "malformed_messages"):
                if inst.stats[key]:
                    raise CheckFailed(
                        self.name, "final",
                        f"{inst.instance_id} {key}={inst.stats[key]}",
                    )

    def counters(self, dep) -> Dict[str, float]:
        session = dep["session"]
        c = _instance_counters(session)
        c.update(_traffic_counters(session))
        c.update(_server_counters(session.server.stats()))
        return c

    def worker_pids(self, dep) -> List[int]:
        return []


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


class Episode:
    """What one episode measured."""

    def __init__(self, setup_s: List[float]) -> None:
        #: Every build's set-up time; the last build is the one used.
        self.setup_s = setup_s
        self.recorder = Recorder()
        self.wall = 0.0
        self.cpu_ms = 0.0
        self.worker_cpu_ms = 0.0
        self.counters: Dict[str, float] = {}


def run_episode(
    w: "PairEdit", workdir: str, script: List[Any], warmup: int,
    first_op: int, rec: Any, worker_cpus: List[int],
) -> Episode:
    """Build a fresh deployment (timed as set-up; ``w.setup_builds``
    times, keeping the last), run *warmup* untimed ops, time the rest of
    *script*, check the outputs and tear down.

    *rec* is the traced run's span recorder (``None`` untraced): it
    learns the id of each op, and counter deltas are taken only then.
    Shard workers, if any, move to *worker_cpus* before the warm-up.
    """
    setup: List[float] = []
    for k in range(w.setup_builds):
        t0 = time.perf_counter()
        dep = w.build(workdir)
        setup.append(time.perf_counter() - t0)
        if k + 1 < w.setup_builds:
            w.teardown(dep)
    ep = Episode(setup)
    try:
        if worker_cpus:
            for pid in w.worker_pids(dep):
                os.sched_setaffinity(pid, worker_cpus)

        def run(index: int, rec_to: "Recorder") -> None:
            try:
                w.run_op(dep, index, script[index], rec_to)
            except CheckFailed:
                raise
            except Exception as exc:
                raise CheckFailed(
                    w.name, f"#{first_op + index} {script[index]!r:.60}",
                    f"{type(exc).__name__}: {exc}",
                ) from exc

        for index in range(warmup):
            run(index, Recorder())

        recorder = ep.recorder
        pids = w.worker_pids(dep)
        before = w.counters(dep) if rec is not None else {}
        perf = time.perf_counter

        def clock() -> Tuple[float, float, float]:
            """Wall s, own CPU ms, shard workers' CPU ms."""
            return (
                perf(), time.process_time() * 1e3,
                sum(cpu_ms(pid) for pid in pids),
            )

        kind_of = w.kind_of
        start = mark = clock()
        for index in range(warmup, len(script)):
            if rec is not None:
                rec.op = first_op + index
            kind = kind_of(script[index])
            if kind is None:
                run(index, recorder)
            else:
                m0 = w.messages(dep)
                t1 = perf()
                run(index, recorder)
                recorder.note(kind, perf() - t1, w.messages(dep) - m0)
            done = index + 1 - warmup
            if done % w.block_ops == 0 or index + 1 == len(script):
                now = clock()
                recorder.close_block(
                    now[0] - mark[0], now[1] - mark[1] + now[2] - mark[2]
                )
                mark = now
        ep.wall = mark[0] - start[0]
        ep.cpu_ms = mark[1] - start[1]
        ep.worker_cpu_ms = mark[2] - start[2]
        w.settle(dep)
        if rec is not None:
            after = w.counters(dep)
            ep.counters = {k: after[k] - before[k] for k in after}
        w.check_final(dep)
    finally:
        w.teardown(dep)
        # The next episode starts from the same heap, not from this
        # episode's garbage.
        gc.collect()
    return ep


# ---------------------------------------------------------------------------
# Counters the program already exposes
# ---------------------------------------------------------------------------


def _instance_counters(session: Session) -> Dict[str, float]:
    c = {"delta_pushes": 0, "full_pushes": 0, "lock_denials_client": 0}
    for inst in session.instances.values():
        c["delta_pushes"] += inst.stats["delta_pushes"]
        c["full_pushes"] += inst.stats["full_pushes"]
        c["lock_denials_client"] += inst.stats["lock_denials"]
    cache = compat.DEFAULT_MAPPING_CACHE.snapshot()
    c["mapping_hits"] = cache["hits"]
    c["mapping_misses"] = cache["misses"]
    return c


def _traffic_counters(session: Session) -> Dict[str, float]:
    traffic = session.traffic()
    return {
        "messages": traffic["messages"],
        "bytes": traffic["bytes"],
        "batches": traffic["batches"],
        "batched_messages": traffic["batched_messages"],
    }


def _server_counters(stats: Dict[str, Any]) -> Dict[str, float]:
    persistence = stats.get("persistence") or {}
    return {
        "lock_acquisitions": stats["lock_stats"]["acquisitions"],
        "lock_denials": stats["lock_stats"]["denials"],
        "routing_events": stats["routing"]["events"],
        "routing_receivers": stats["routing"]["event_receivers"],
        "rebuild_members": stats["closure"].get("rebuild_members", 0),
        "fsyncs": persistence.get("fsyncs", 0),
        "append_bytes": persistence.get("append_bytes", 0),
    }


WORKLOADS = {w.name: w for w in (PairEdit(), PairBurstProc(), Classroom())}
