"""The host cost of one blocking op (DESIGN.md §11, "The blocking-op hot
path"): a budget in Python calls that cannot silently regrow, every knob
leaving the flat path on its own, and the value semantics of the slotted
per-op records.

Counts, not times: a Python-call count repeats exactly on any host, so
the budget is a tier-1 gate where a wall-clock one could not be.
"""

import collections
import gc
import pathlib
import re
import sys

import pytest

from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.armci.config import RetryPolicy
from repro.chaos import ChaosConfig, ChaosEngine, FaultPlan
from repro.errors import DeadlineExceededError, SimulationError, TransientFaultError
from repro.machine.network import TransferTiming
from repro.pami.activemsg import AmEnvelope, AmOp
from repro.pami.context import deadline_timer
from repro.pami.faults import TransientFault
from repro.pami.atomics import RmwOp
from repro.pami.integrity import IntegrityConfig
from repro.sim import Delay, Engine, Event, WaitAny
from repro.types import StridedDescriptor, StridedShape

NODE0, NODE1 = (0, 0, 0, 0, 0), (0, 0, 0, 0, 1)


def two_node_job(config=None, **kwargs):
    job = ArmciJob(2, config=config, procs_per_node=1, **kwargs)
    job.init()
    return job


# ------------------------------------------------------------- the budget

PAIRS = 200
#: Python-function calls per blocking 16 B put + get pair, knobs off (a
#: generator resuming counts as a call). Set 10 % above pami 252 and mpi3
#: 265, measured when the engine got one checked way in, the machine a
#: rank -> node table and the PAMI transport its primitives as methods
#: (before: 283 and 294; when first pinned, 469 and 485 before and 297
#: and 307 after); ratcheted to 10 % above pami 250 and mpi3 263 when an
#: RDMA call came to post a run list and a handle wait to be one progress
#: generator. The budget only goes down.
CALL_BUDGET = {"pami": 275, "mpi3": 289}
#: Generator frames one process step resumes during the pair, at most:
#: the body, ``pair``, ``_post_and_wait`` (the post, then the handle
#: wait) and the context's progress round (7 before both were folded).
#: mpi3's fence inside the get's post is two frames deeper.
FRAMES_PER_STEP = {"pami": 4, "mpi3": 6}
#: Python calls per pair with obs on (``ObsConfig(enabled=True)``, pami):
#: 10 % above the 277 measured when a span kind came to be interned once
#: per call site and a row staged as one list (289 before; 291 before the
#: run-list post and the one-frame handle wait; 322 when a span became
#: one row written by one call and the op bracket stopped costing a
#: frame of its own; 385 before that).
OBS_CALL_BUDGET = 304
#: Spans an obs-on pair records: each op's span, wire flight and handle
#: wait, the get's fence and three progress rounds.
SPANS_PER_PAIR = 10
#: Python calls a span adds: the obs-on pair's over the knobs-off pair's,
#: per span. 10 % above the 2.9 measured with interned kinds and staged
#: rows (3.9 before, when every span packed its attributes as keywords
#: and interned its kind tuple).
CALLS_PER_SPAN = 3.2
#: Engine entries per pair — the simulated schedule, which a host-cost
#: change must not move (mpi3: one more for the fence's flush). A
#: resolved ``WaitAny`` takes its sibling arms back, so none of these
#: is a dead arm.
EVENTS_PER_PAIR = {"pami": 17, "mpi3": 18}
#: Python calls per wire op (the ledger's ``pami.wire_ops``: RDMA puts
#: and gets, active messages, rmws) of a whole ``run_scf`` on the
#: ledger's reduced ``scf_d_at`` shape (8 ranks, ``nblocks=4``,
#: ``nbf=96``), D and AT: 10 % above the 71.6 / 71.1 measured when a GA
#: patch's lattice came to be posted by one RDMA call and waited by one
#: progress generator (before: 75.5 / 74.7; 90.2 / 89.9 before the engine
#: got one checked way in and the AM records lost their dataclass).
SCF_CALLS_PER_WIRE_OP = {"D": 78.7, "AT": 78.1}
#: Python calls per chunk of a zero-copy strided put + get between two
#: nodes, knobs off (``tools/op_census.py``'s ``strided put+get`` row:
#: 64 x 256 B at stride 512): 10 % above the 67.6 measured when Eq. 9's
#: lattice came to be posted by one RDMA call and waited by one progress
#: generator (before: 80.9, one post and one wait per chunk).
STRIDED_CALLS_PER_CHUNK = 74
#: Engine entries per chunk of that put + get, exactly as before the
#: lattice was posted in one call: the schedule a host-cost change must
#: not move.
STRIDED_EVENTS_PER_CHUNK = 8.5
#: numpy calls made from ``repro`` frames per served request on the
#: reduced ``kv_idle`` shape of ``tools/op_census.py``'s "kv request"
#: row: 10 % above what this tree measures (pami 21.0, mpi3 24.8; the
#: parent of the PR that set it measured 71.4 and 87.2). Tiny-array numpy
#: on the request path costs more than the Python it stands in for.
SERVE_NUMPY_BUDGET = {"pami": 23, "mpi3": 27}


def pair_census(config):
    """Python calls by function, engine entries, spans and the deepest
    process step per blocking 16 B put + get pair, over ``PAIRS`` pairs
    on a warm two-node job."""
    job = two_node_job(config)
    calls = collections.Counter()
    events, spans, depths = [], [], []

    def count(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls[f"{pathlib.Path(code.co_filename).name}:{code.co_name}"] += 1
            if code.co_name == "_step" and code.co_filename.endswith("process.py"):
                gen, depth = frame.f_locals["self"].body, 0
                while gen is not None and hasattr(gen, "gi_code"):
                    gen, depth = gen.gi_yieldfrom, depth + 1
                depths.append(depth)

    def pair(rt, buf, remote):
        yield from rt.put(1, buf, remote, 16)
        yield from rt.get(1, buf + 16, remote, 16)

    def mark(rt):
        events.append(rt.engine.events_executed)
        spans.append(0 if rt.obs is None else len(rt.obs.spans))

    def body(rt):
        alloc = yield from rt.malloc(256)
        if rt.rank == 0:
            buf = rt.world.space(0).allocate(64)
            yield from pair(rt, buf, alloc.addr(1))  # warm every cache
            mark(rt)
            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                for _ in range(PAIRS):
                    yield from pair(rt, buf, alloc.addr(1))
            finally:
                sys.setprofile(previous)
            mark(rt)
            yield from rt.fence_all()
        yield from rt.barrier()

    job.run(body)
    return (
        calls, (events[1] - events[0]) / PAIRS, (spans[1] - spans[0]) / PAIRS,
        max(depths),
    )


def load_op_census():
    """``tools/op_census.py``, the census the row budgets are read from."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
    import op_census

    return op_census


def over_budget(calls, budget: int, what: str) -> str:
    top = ", ".join(f"{n} {c / PAIRS:.1f}" for n, c in calls.most_common(10))
    return (
        f"{sum(calls.values()) / PAIRS:.1f} Python calls per put+get pair "
        f"{what}, budget {budget}; most called per pair: {top}"
    )


class TestHostCostBudget:
    @pytest.mark.parametrize("backend", ["pami", "mpi3"])
    def test_put_get_pair_stays_inside_its_call_budget(self, backend):
        calls, events, _spans, depth = pair_census(ArmciConfig(backend=backend))
        assert events == EVENTS_PER_PAIR[backend]
        assert depth <= FRAMES_PER_STEP[backend]
        assert sum(calls.values()) / PAIRS <= CALL_BUDGET[backend], over_budget(
            calls, CALL_BUDGET[backend], f"over {backend}"
        )

    def test_obs_on_pair_stays_inside_its_call_budget(self):
        calls, events, spans, _depth = pair_census(
            ArmciConfig(obs=ObsConfig(enabled=True))
        )
        assert events == EVENTS_PER_PAIR["pami"]
        assert spans == SPANS_PER_PAIR
        assert sum(calls.values()) / PAIRS <= OBS_CALL_BUDGET, over_budget(
            calls, OBS_CALL_BUDGET, "with obs on"
        )

    def test_a_span_stays_inside_its_call_budget(self):
        off, _events, _spans, _depth = pair_census(ArmciConfig())
        on, _events, spans, _depth = pair_census(
            ArmciConfig(obs=ObsConfig(enabled=True))
        )
        per_span = (sum(on.values()) - sum(off.values())) / PAIRS / spans
        assert per_span <= CALLS_PER_SPAN, (
            f"{per_span:.2f} Python calls per span over the knobs-off pair, budget "
            f"{CALLS_PER_SPAN}; most added per pair: " + ", ".join(
                f"{name} {count / PAIRS:.1f}"
                for name, count in (on - off).most_common(8)
            )
        )

    @pytest.mark.parametrize("mode", ["D", "AT"])
    def test_scf_wire_op_stays_inside_its_call_budget(self, mode):
        op_census = load_op_census()
        python, builtin, entries = op_census.scf_per_wire_op(
            op_census.SCF_REDUCED[0], mode
        )
        assert python <= SCF_CALLS_PER_WIRE_OP[mode], (
            f"{python:.1f} Python calls per wire op of the reduced SCF {mode} "
            f"run, budget {SCF_CALLS_PER_WIRE_OP[mode]} ({builtin:.1f} builtin "
            f"calls, {entries:.2f} engine entries per wire op)"
        )

    def test_strided_chunk_stays_inside_its_call_budget(self):
        census, chunks, entries = load_op_census().strided()
        assert entries / chunks == STRIDED_EVENTS_PER_CHUNK
        python = census.python / chunks
        assert python <= STRIDED_CALLS_PER_CHUNK, (
            f"{python:.1f} Python calls per chunk of a strided put + get, budget "
            f"{STRIDED_CALLS_PER_CHUNK}; by layer: " + ", ".join(
                f"{k} {v / chunks:.1f}" for k, v in census.calls.most_common())
        )

    @pytest.mark.parametrize("backend", ["pami", "mpi3"])
    def test_served_request_stays_inside_its_numpy_budget(self, backend):
        _calls, numpy = load_op_census().kv_request(backend)
        per_request = sum(numpy.values())
        assert per_request <= SERVE_NUMPY_BUDGET[backend], (
            f"{per_request:.1f} numpy calls per served request over {backend}, "
            f"budget {SERVE_NUMPY_BUDGET[backend]}; by layer: "
            + ", ".join(f"{k} {v:.1f}" for k, v in numpy.most_common())
        )


# ------------------------------------------------- every knob, on its own


def is_flat(op) -> bool:
    """Whether a blocking op's generator is the bare post-and-wait."""
    flat = op.gi_code.co_name == "_post_and_wait"
    op.close()
    return flat


def stream(job, rounds=24):
    """Rank 0 puts, gets and fetch_adds against rank 1; returns what it
    read back, the fetch_add draws and whether the ops were flat."""
    out = {}

    def body(rt):
        alloc = yield from rt.malloc(256)
        if rt.rank == 0:
            space = rt.world.space(0)
            buf = space.allocate(128)
            space.write(buf, bytes(range(64)))
            remote = alloc.addr(1)
            out["flat"] = is_flat(rt.put(1, buf, remote, 64))
            draws = []
            for _ in range(rounds):
                yield from rt.put(1, buf, remote, 64)
                yield from rt.get(1, buf + 64, remote, 64)
                draws.append(
                    (yield from rt.rmw(1, remote + 128, "fetch_add", 1))
                )
            out["back"], out["draws"] = space.read(buf + 64, 64), draws
        yield from rt.barrier()

    job.run(body)
    return out


def stuck_target(ambient=None):
    """Rank 1 computes and services nothing, so of rank 0's AM ops (no
    RDMA) only the put completes (locally); a get or rmw can only end at
    its deadline (``ambient``: one an enclosing op installed). Returns
    how each of them ended, and the body to run."""
    ended = {}

    def body(rt):
        alloc = yield from rt.malloc(256)
        yield from rt.barrier()
        if rt.rank == 1:
            yield from rt.compute(5e-3)
            return
        buf = rt.world.space(0).allocate(64)
        ops = {
            "put": lambda: rt.put(1, buf, alloc.addr(1), 16),
            "get": lambda: rt.get(1, buf, alloc.addr(1), 16),
            "rmw": lambda: rt.rmw(1, alloc.addr(1) + 64, "fetch_add", 1),
        }
        for kind, op in ops.items():
            t0 = rt.engine.now
            if ambient is not None:
                rt._deadline = t0 + ambient
            try:
                yield from op()
                ended[kind] = "completed"
            except DeadlineExceededError:
                ended[kind] = rt.engine.now - t0
            finally:
                rt._deadline = None

    return ended, body


class TestEveryKnobLeavesTheFlatPath:
    def test_knobs_off_is_one_generator_frame(self):
        out = stream(two_node_job(), rounds=2)
        assert out["flat"]
        assert out["back"] == bytes(range(64)) and out["draws"] == [0, 1]

    @pytest.mark.parametrize("knob", ["chaos", "link_faults", "integrity"])
    def test_transient_faults_are_still_retried(self, knob):
        retry = RetryPolicy(max_retries=12)
        if knob == "chaos":
            job = two_node_job(
                ArmciConfig(retry=retry), chaos=ChaosConfig(seed=7, drop_prob=0.3)
            )
        elif knob == "link_faults":
            plan = FaultPlan().lossy_link(NODE0, NODE1, at=0.0, prob=0.3)
            job = two_node_job(ArmciConfig(retry=retry), fault_plan=plan)
        else:
            # Integrity alone rejects nothing; a corrupting link gives it
            # something to reject (retransmitted below the retry layer).
            plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=0.3)
            job = two_node_job(
                ArmciConfig(retry=retry, integrity=IntegrityConfig()),
                fault_plan=plan,
            )
            assert not stream(two_node_job(ArmciConfig(integrity=IntegrityConfig())),
                              rounds=1)["flat"]
        out = stream(job)
        assert not out["flat"]
        assert out["back"] == bytes(range(64))
        assert out["draws"] == list(range(24))
        if knob == "integrity":
            assert job.trace.count("armci.integrity.checksum_failures") > 0
            assert job.trace.count("pami.silent_corruptions") == 0
        else:
            for kind in ("put", "get", "rmw"):
                assert job.trace.count(f"armci.transient_retries.{kind}") > 0, kind

    @pytest.mark.parametrize("knob", ["default_deadline", "ambient"])
    def test_deadlines_still_expire(self, knob):
        limit = 40e-6
        config = ArmciConfig(
            use_rdma=False,
            default_deadline=limit if knob == "default_deadline" else None,
        )
        job = two_node_job(config)
        ended, body = stuck_target(**{"ambient": limit} if knob == "ambient" else {})
        job.run(body)
        assert ended.pop("put") == "completed"
        assert set(ended) == {"get", "rmw"}
        for kind, after in ended.items():
            assert after == pytest.approx(limit, rel=1e-9), kind

    def test_obs_still_records_the_op_spans(self):
        job = two_node_job(ArmciConfig(obs=ObsConfig(enabled=True)))
        assert not stream(job, rounds=1)["flat"]
        spans = {(s.category, s.name): s for s in job.obs.finished() if s.rank == 0}
        for kind in ("put", "get"):
            span = spans["op", kind]
            assert (span.attrs["dst"], span.attrs["nbytes"]) == (1, 64)
            assert span.timeline == kind
        assert spans["counter_wait", "rmw"].timeline == "counter"
        assert job.obs.truncated_spans == 0

    def test_a_deadline_wait_leaves_no_cycle(self):
        """A deadline timer drops its event once it fires or is cancelled,
        so a finished wait leaves nothing for the cyclic collector."""
        job = ArmciJob(4, config=ArmciConfig(default_deadline=1.0), procs_per_node=2)
        job.init()
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            out = stream(job)
            gc.collect()
            left = collections.Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if collecting:
                gc.enable()
        assert out["back"] == bytes(range(64))
        assert left["TimerEvent"] == left["Timer"] == 0, left

    def test_a_knob_attached_later_and_a_respawned_rank_are_seen(self):
        # AT mode: rank 0 runs no body below, its async thread answers
        # the respawned rank's region query.
        job = two_node_job(
            ArmciConfig.async_thread_mode(retry=RetryPolicy(max_retries=12))
        )
        assert stream(job, rounds=1)["flat"]
        # Attached after construction, and after ops already ran flat.
        job.world.chaos = ChaosEngine(ChaosConfig(seed=3, drop_prob=0.3), job.trace)
        job.world.fail_rank(1)
        job.respawn_rank(1)
        job.engine.run_until_complete(
            [job.engine.spawn(job.rt(1)._reinit_body(), name="reinit")]
        )
        seen = {}

        def body(rt):
            buf = rt.world.space(1).allocate(64)
            target = job.directory.allocation(0).addr(0)
            seen["flat"] = is_flat(rt.put(0, buf, target, 16))
            for _ in range(24):
                yield from rt.put(0, buf, target, 16)

        job.run(body, ranks=[1])
        assert not seen["flat"]
        assert job.trace.count("armci.transient_retries.put") > 0


# ------------------------------------------------ one lattice, one wait

#: Eq. 9's lattice: 64 chunks of 256 B at stride 512, one RDMA each.
LATTICE = StridedDescriptor(StridedShape(256, (64,)), (512,), (512,))


def post_lattice(job, wait):
    """Rank 0 posts ``LATTICE`` as one non-blocking put to rank 1 and
    runs ``wait(rt, handle)``; returns what it returned."""
    out = {}

    def body(rt):
        alloc = yield from rt.malloc(64 * 512)
        if rt.rank == 0:
            buf = rt.world.space(0).allocate(64 * 512)
            handle = yield from rt.nbputs(1, buf, alloc.addr(1), LATTICE)
            out["result"] = yield from wait(rt, handle)
        yield from rt.barrier()

    job.run(body)
    return out["result"]


class TestOneLatticeWait:
    def test_a_lost_chunk_raises_its_own_error_in_posting_order(self, monkeypatch):
        """Chunks 5 and 9 are lost: the wait raises chunk 5's error once
        chunks 0-4 completed clean, though later chunks completed first."""
        job = two_node_job()
        job.world.chaos = ChaosEngine(ChaosConfig(seed=1), job.trace)
        rolls = []

        def transfer_fault(self, src, dst, kind):
            if kind != "put":
                return None
            rolls.append(src)
            k = len(rolls) - 1
            return TransientFault(f"lost-chunk-{k}", src, dst) if k in (5, 9) else None

        monkeypatch.setattr(ChaosEngine, "transfer_fault", transfer_fault)

        def wait(rt, handle):
            try:
                yield from handle.wait()
            except TransientFaultError as exc:
                events = handle._events
                return (
                    str(exc), [ev._value for ev in events[:5]],
                    events[5]._value.reason, events[6]._triggered,
                )

        error, before, token, later_done = post_lattice(job, wait)
        assert len(rolls) == 64
        assert "lost-chunk-5" in error
        assert before == [None] * 5 and token == "lost-chunk-5"
        assert later_done  # a loss is seen after the detection delay

    def test_a_deadline_mid_lattice_arms_one_timer(self, monkeypatch):
        armed = []

        def counted(engine, deadline):
            armed.append(deadline)
            return deadline_timer(engine, deadline)

        monkeypatch.setattr("repro.pami.context.deadline_timer", counted)
        job = two_node_job()

        def wait(rt, handle):
            deadline = rt._deadline = rt.engine.now + 3e-6
            try:
                yield from handle.wait()
            except DeadlineExceededError:
                done = sum(ev._triggered for ev in handle._events)
                return rt.engine.now - deadline, done
            finally:
                rt._deadline = None

        late, done = post_lattice(job, wait)
        assert late == pytest.approx(0.0, abs=1e-15)
        assert 0 < done < 64
        assert armed == [armed[0]]


# ---------------------------------------------------- the slotted records


class TestSlottedRecords:
    def test_per_op_records_keep_value_semantics(self):
        engine = Engine()
        ev = Event(engine, "e")
        timing = TransferTiming(1.0, 2.0, 3.0, 4.0)
        assert timing == TransferTiming(1.0, 2.0, 3.0, 4.0)
        assert timing != TransferTiming(1.0, 2.0, 3.0, 5.0)
        assert hash(timing) == hash(TransferTiming(1.0, 2.0, 3.0, 4.0))
        assert repr(timing) == (
            "TransferTiming(inject_start=1.0, inject_done=2.0, deliver=3.0, "
            "complete=4.0)"
        )
        assert RmwOp("swap", 0, 1, 8, ev) == RmwOp("swap", 0, 1, 8, ev)
        assert timing != (1.0, 2.0, 3.0, 4.0)
        env = AmEnvelope(7, 0, 1, {"addr": 64})
        assert env == AmEnvelope(7, 0, 1, {"addr": 64}) and env.payload is None
        assert AmEnvelope(7, 0, 1).header == {} and env.payload_bytes == 0
        am = AmOp(env, ev, 1.0, False, None)
        assert am == AmOp(env, ev, 1.0, False, None) != AmOp(env, ev, 2.0, False, None)
        for record in (timing, Delay(1.0), env, am):
            assert not hasattr(record, "__dict__")

    def test_commands_keep_their_validation(self):
        with pytest.raises(SimulationError):
            Delay(-1)
        with pytest.raises(SimulationError):
            WaitAny([])
        assert Delay(2.0) == Delay(2.0) and repr(Delay(2.0)) == "Delay(dt=2.0)"
        ev = Event(Engine(), "e")
        assert WaitAny([ev]).events == [ev]

    def test_a_reused_delay_and_every_wait_still_work(self):
        engine = Engine()
        first, second, never = (Event(engine, n) for n in "abc")
        nap = Delay(1e-6)
        log = []

        def waiter():
            yield nap
            yield nap  # one instance, yielded twice
            log.append((yield WaitAny([never, first])))
            log.append((yield WaitAny([never, second])))  # ``never`` was disarmed
            log.append((yield first))  # a bare Event: already triggered
            log.append((yield second))

        def trigger():
            yield Delay(3e-6)
            first.succeed("x")
            yield Delay(1e-6)
            second.succeed("y")

        procs = [engine.spawn(waiter(), "w"), engine.spawn(trigger(), "t")]
        engine.run_until_complete(procs)
        assert log == [(1, "x"), (1, "y"), "x", "y"]
        assert engine.now == 4e-6

    def test_nothing_assigns_to_a_record_field(self):
        """Immutable by convention: the only stores to these field names
        on anything but ``self`` would be a bug the frozen dataclasses
        used to catch."""
        root = pathlib.Path(__file__).resolve().parents[1]
        fields = "|".join((
            "dt", "inject_start", "inject_done", "deliver", "complete",
            "remote_ack_event", "timing",  # (a delivery has a ``local_event`` too)
        ))
        store = re.compile(rf"\b(?!self\b)\w+\.({fields})\s*(?:[-+*/]?=)(?!=)")
        offenders = [
            f"{path.relative_to(root)}:{n}: {line.strip()}"
            for top in ("src", "tests")
            for path in sorted((root / top).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if store.search(line) and path != pathlib.Path(__file__).resolve()
        ]
        assert not offenders, offenders
