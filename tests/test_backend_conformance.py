"""Transport-layer conformance: capability descriptors, backend
selection, and the MPI-3 semantic deltas (emulated AMs, partial native
AMO set, flush completion, window-attach cost).

The cross-backend *functional* conformance suite is the existing ARMCI
test modules parameterized by the ``backend`` fixture (see
``tests/conftest.py``); this module covers what those tests cannot —
backend-specific counters, capability metadata, and pami-vs-mpi3
behavior comparisons inside one test.
"""

import ast
import pathlib

import pytest

import repro.armci
import repro.pami
import repro.transport
from repro.armci import ArmciConfig, ArmciJob, dispatch
from repro.armci import runtime as armci_runtime
from repro.chaos import ChaosConfig, ChaosEngine, LinkFault, apply_link_fault
from repro.errors import ArmciError, PamiError
from repro.pami.faults import Failure, TransientFault
from repro.pami.integrity import IntegrityConfig
from repro.transport import BACKENDS, create_transport
from repro.transport.mpi3 import MPI3_NATIVE_RMW_OPS, Mpi3Transport
from repro.transport.pami import PamiTransport


def make_job(backend, num_procs=2, config_cls=ArmciConfig, **cfg):
    job = ArmciJob(
        num_procs,
        config=config_cls(backend=backend, **cfg),
        procs_per_node=2,
    )
    job.init()
    return job


def run_put_get_fence(job, nbytes=1024):
    """Each rank puts to its right neighbor, fences, reads it back."""
    results = {}

    def main(rt):
        alloc = yield from rt.malloc(4096)
        right = (rt.rank + 1) % rt.world.num_procs
        space = rt.world.space(rt.rank)
        src = space.allocate(nbytes)
        space.write(src, bytes([rt.rank + 1]) * nbytes)
        local = space.allocate(nbytes)
        yield from rt.put(right, src, alloc.addr(right), nbytes)
        yield from rt.fence(right)
        yield from rt.get(right, local, alloc.addr(right), nbytes)
        yield from rt.barrier()
        results[rt.rank] = bytes(space.view(local, nbytes))

    job.run(main)
    return results


class TestRegistryAndConfig:
    def test_registry_names(self):
        assert set(BACKENDS) == {"pami", "mpi3"}
        assert type(create_transport("pami", None, None)) is PamiTransport
        assert type(create_transport("mpi3", None, None)) is Mpi3Transport

    def test_unknown_backend_rejected_by_config(self):
        with pytest.raises(ArmciError, match="unknown backend"):
            ArmciConfig(backend="verbs")

    def test_unknown_backend_rejected_by_factory(self):
        with pytest.raises(ArmciError, match="unknown transport backend"):
            create_transport("verbs", None, None)

    def test_explicit_selection_wins_over_default(self, monkeypatch):
        import repro.transport as transport

        monkeypatch.setattr(transport, "DEFAULT_BACKEND", "mpi3")
        job_default = ArmciJob(2, procs_per_node=2)
        job_pinned = ArmciJob(
            2, config=ArmciConfig(backend="pami"), procs_per_node=2
        )
        assert job_default.transport.capabilities.name == "mpi3"
        assert job_pinned.transport.capabilities.name == "pami"

    def test_env_var_seeds_default(self, monkeypatch):
        # DEFAULT_BACKEND is read from the environment at import; the
        # factory resolves the module global at call time, so tests (and
        # the CI matrix) can re-point it without reimporting.
        import repro.transport as transport

        monkeypatch.setattr(transport, "DEFAULT_BACKEND", "mpi3")
        t = create_transport(None, None, None)
        assert isinstance(t, Mpi3Transport)


class TestCapabilityDescriptors:
    def test_matrix_covers_all_backends(self):
        names = sorted(BACKENDS)
        assert [create_transport(n, None, None).capabilities.name for n in names] == names

    def test_pami_descriptor(self):
        caps = PamiTransport.capabilities
        assert caps.completion == "counter"
        assert caps.progress == "dedicated_thread"
        assert caps.true_active_messages
        assert caps.native_rmw_ops == frozenset()
        assert caps.rma_origin_overhead == 0.0

    def test_mpi3_descriptor(self):
        caps = Mpi3Transport.capabilities
        assert caps.completion == "flush"
        assert caps.progress == "mpi_calls"
        assert not caps.true_active_messages
        assert caps.native_rmw_ops == MPI3_NATIVE_RMW_OPS
        assert "fetch_max" not in caps.native_rmw_ops
        assert caps.rma_origin_overhead > 0.0
        assert caps.am_emulation_overhead > 0.0

    def test_descriptors_frozen(self):
        with pytest.raises(AttributeError):
            PamiTransport.capabilities.completion = "flush"


class TestCrossBackendSemantics:
    def test_put_get_data_identical_across_backends(self):
        expected = run_put_get_fence(make_job("pami"))
        got = run_put_get_fence(make_job("mpi3"))
        assert got == expected
        assert all(v == bytes([r + 1]) * 1024 for r, v in expected.items())

    def test_mpi3_is_slower_never_wrong(self):
        jobs = {b: make_job(b, num_procs=4) for b in ("pami", "mpi3")}
        for job in jobs.values():
            run_put_get_fence(job)
        # Window bookkeeping + flush round-trips cost simulated time...
        assert jobs["mpi3"].engine.now > jobs["pami"].engine.now
        # ...but the protocol op mix is unchanged.
        for key in ("armci.put_rdma", "armci.get_rdma", "armci.fences"):
            assert (
                jobs["mpi3"].trace.count(key) == jobs["pami"].trace.count(key)
            )

    def test_rmw_values_identical_across_backends(self):
        def run(backend):
            job = make_job(backend, num_procs=4)
            olds = {}

            def main(rt):
                alloc = yield from rt.malloc(64)
                yield from rt.barrier()
                old = yield from rt.rmw(0, alloc.addr(0), "fetch_add", 1)
                mx = yield from rt.rmw(
                    0, alloc.addr(0) + 8, "fetch_max", rt.rank + 1
                )
                yield from rt.barrier()
                olds[rt.rank] = (old,)
                if rt.rank == 0:
                    space = rt.world.space(0)
                    olds["final"] = (
                        space.read_i64(alloc.addr(0)),
                        space.read_i64(alloc.addr(0) + 8),
                    )

            job.run(main)
            return olds

        pami, mpi3 = run("pami"), run("mpi3")
        assert pami["final"] == mpi3["final"] == (4, 4)
        adds = [pami[r][0] for r in range(4)]
        assert sorted(adds) == [0, 1, 2, 3]


class TestMpi3Counters:
    def test_amo_fallback_split(self):
        job = make_job("mpi3", num_procs=2)

        def main(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 0:
                yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
                yield from rt.rmw(1, alloc.addr(1), "swap", 7)
                yield from rt.rmw(1, alloc.addr(1) + 8, "fetch_max", 5)
            yield from rt.barrier()

        job.run(main)
        assert job.trace.count("transport.amo_native") == 2
        assert job.trace.count("transport.amo_software_fallbacks") == 1

    def test_pami_never_counts_transport_amos(self):
        job = make_job("pami", num_procs=2)

        def main(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 0:
                yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
            yield from rt.barrier()

        job.run(main)
        assert job.trace.count("transport.amo_native") == 0
        assert job.trace.count("transport.amo_software_fallbacks") == 0

    def test_flush_syncs_counted_per_fence(self):
        job = make_job("mpi3", num_procs=2)

        def main(rt):
            alloc = yield from rt.malloc(256)
            right = (rt.rank + 1) % 2
            src = rt.world.space(rt.rank).allocate(64)
            yield from rt.put(right, src, alloc.addr(right), 64)
            yield from rt.fence(right)
            yield from rt.barrier()

        job.run(main)
        assert job.trace.count("transport.flush_syncs") == 2

    def test_win_attach_and_am_emulation_counted(self):
        job = make_job("mpi3", num_procs=2)

        def main(rt):
            alloc = yield from rt.malloc(256)
            yield from rt.barrier()
            yield from rt.group_allreduce(rt.group((0, 1)), 1.0)
            yield from rt.barrier()

        job.run(main)
        # One registered segment per rank (malloc), plus the group
        # allreduce's up and down tree messages.
        assert job.trace.count("transport.win_attach") >= 2
        assert job.trace.count("transport.am_emulations") >= 2


class TestMpi3Report:
    def test_report_labels_backend_and_fallbacks(self):
        from repro.armci.report import runtime_report

        job = make_job("mpi3", num_procs=2)

        def main(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 0:
                yield from rt.rmw(1, alloc.addr(1), "fetch_max", 3)
            yield from rt.barrier()

        job.run(main)
        report = runtime_report(job)
        assert "mpi3 (flush completion)" in report
        assert "AMOs emulated in software" in report

    def test_report_labels_pami(self):
        from repro.armci.report import runtime_report

        job = make_job("pami", num_procs=2)

        def main(rt):
            yield from rt.barrier()

        job.run(main)
        report = runtime_report(job)
        assert "pami (counter completion)" in report


def _outer_functions(*packages):
    """``(file name, function node)`` of every outermost function or
    method defined under the given packages."""
    for package in packages:
        for path in sorted(pathlib.Path(package.__file__).parent.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path.name, fn


class TestOneWirePath:
    """PR 8 stated "armci calls only the transport"; this holds it, and
    holds the RDMA primitives to one body per direction."""

    def test_armci_never_times_the_wire_itself(self):
        import pathlib

        import repro.armci

        for path in pathlib.Path(repro.armci.__file__).parent.glob("*.py"):
            text = path.read_text()
            for name in ("put_timing", "get_timing", "rma_extra_occupancy"):
                assert name not in text, f"{path.name} references {name}"

    def test_rma_has_one_body_per_direction(self):
        import inspect

        from repro.pami import rma

        functions = [n for n, _f in inspect.getmembers(rma, inspect.isfunction)]
        assert "rdma_put" in functions and "rdma_get" in functions
        assert not [n for n in functions if n.endswith("_robust")]
        assert not hasattr(PamiTransport, "rma_extra_occupancy")


class TestOneTransferPath:
    """The three datatype classes share one transfer path
    (``armci/transfer.py``); this keeps a per-datatype copy of a
    protocol, handler or reply item from growing back beside it."""

    @staticmethod
    def _functions_touching(attr):
        """``file:function`` of every outermost function under
        ``src/repro/armci`` that reads attribute ``attr``."""
        return {
            f"{name}:{fn.name}"
            for name, fn in _outer_functions(repro.armci)
            if any(
                isinstance(n, ast.Attribute) and n.attr == attr
                for n in ast.walk(fn)
            )
        }

    def test_wire_calls_live_in_the_protocol_functions(self):
        assert len(self._functions_touching("rdma_put")) <= 2
        assert len(self._functions_touching("rdma_get")) <= 2
        assert self._functions_touching("am_payload_timing") == {
            "transfer.py:handle_get_request"
        }
        assert self._functions_touching("hop_latency") == {
            "transfer.py:control_reply"
        }

    def test_one_data_reply_item(self):
        import inspect

        import repro.armci
        from repro.pami.context import WorkItem

        items = {
            f"{mod.__name__}.{name}"
            for _n, mod in inspect.getmembers(repro.armci, inspect.ismodule)
            for name, cls in inspect.getmembers(mod, inspect.isclass)
            if issubclass(cls, WorkItem) and cls.__module__ == mod.__name__
        }
        assert items == {"repro.armci.transfer.GetReplyItem"}

    def test_no_per_datatype_handlers(self):
        from repro.armci import dispatch
        from repro.armci.runtime import AM_HANDLERS, ArmciProcess

        assert set(AM_HANDLERS) == set(dispatch.DISPATCH_NAMES)
        assert not {5, 6, 7, 8, 9, 10, 11} & set(AM_HANDLERS)
        assert not [
            name
            for name in dispatch.DISPATCH_NAMES.values()
            if name.startswith(("strided_packed_", "vector_"))
        ]
        assert not hasattr(ArmciProcess, "_resolve_vector_regions")


class TestOneDeliveryPath:
    """The liveness -> incarnation -> wire fate -> verify -> bounded
    retransmit -> land-or-fail skeleton lives in ``pami/delivery.py``
    alone; this keeps a second copy of any step from growing back inside
    a wire primitive."""

    @staticmethod
    def _functions_where(matches):
        return {
            f"{name}:{fn.name}"
            for name, fn in _outer_functions(repro.pami, repro.armci)
            if any(matches(node) for node in ast.walk(fn))
        }

    @classmethod
    def _callers_of(cls, method):
        return cls._functions_where(
            lambda n: isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == method
        )

    def test_each_step_has_one_site(self):
        assert self._callers_of("verify") == {"delivery.py:attempt"}
        assert self._callers_of("count_retransmit") == {"delivery.py:retransmit"}
        assert self._callers_of("route_blocked") == {"delivery.py:roll"}
        assert self._functions_where(
            lambda n: isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            and any(
                getattr(t, "attr", getattr(t, "id", None)) == "link_mode"
                for t in getattr(n, "targets", [getattr(n, "target", None)])
            )
        ) == {"delivery.py:__init__"}
        assert self._functions_where(
            lambda n: isinstance(n, ast.Constant)
            and n.value == "pami.silent_corruptions"
        ) == {"delivery.py:attempt"}

    def test_the_wire_perturbs_a_copy_by_one_answer(self):
        """Whether the wire can delay, reorder or lose a copy is
        ``Delivery.at_risk``, decided at post: outside ``delivery.py``
        only the AM duplicate hook, the attach sites and the knob guard
        read the chaos injector or the link model, and only
        ``Delivery.jittered`` draws a jitter."""
        names = {"chaos", "route_table", "link_mode"}
        readers = {
            f"{name}:{fn.name}"
            for name, fn in _outer_functions(repro.pami, repro.armci, repro.transport)
            if name != "delivery.py"
            and any(
                (isinstance(n, ast.Attribute) and n.attr in names)
                or (isinstance(n, ast.Name) and n.id in names)
                for n in ast.walk(fn)
            )
        }
        assert readers == {
            "activemsg.py:land", "world.py:__init__",
            "world.py:enable_link_faults", "runtime.py:__init__",
            "runtime.py:_guarded",
        }
        jitter_callers = {
            f"{name}:{fn.name}"
            for name, fn in _outer_functions(repro.pami, repro.armci, repro.transport)
            if any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "jitter"
                for n in ast.walk(fn)
            )
        }
        assert jitter_callers == {"delivery.py:jittered"}

    def test_delivery_never_asks_which_traffic_it_carries(self):
        path = pathlib.Path(repro.pami.__file__).parent / "delivery.py"
        kinds = {"put", "get", "am", "rmw"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Compare, ast.Match)):
                constants = {
                    n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
                }
                assert not constants & kinds, ast.unparse(node)

    def test_wire_primitives_nest_no_closures(self):
        primitives = {
            "rma.py:rdma_put", "rma.py:rdma_get", "activemsg.py:send_am",
            "atomics.py:rmw", "transfer.py:handle_get_request",
        }
        seen = set()
        for name, fn in _outer_functions(repro.pami, repro.armci):
            if f"{name}:{fn.name}" in primitives:
                seen.add(f"{name}:{fn.name}")
                nested = [
                    n for n in ast.walk(fn)
                    if n is not fn
                    and isinstance(n, (ast.FunctionDef, ast.Lambda))
                ]
                assert not nested, f"{name}:{fn.name} nests a closure"
        assert seen == primitives


class TestOneOpBracket:
    """Every blocking call is bracketed by ``with rt.span(...)`` and
    per-rank / per-job state is wired in one place; this keeps the
    hand-written ``begin`` / ``try`` / ``finally: end`` scaffold, the
    second Gantt mechanism and the second copies of the wiring from
    growing back."""

    @staticmethod
    def _functions_where(matches, *packages):
        return {
            f"{name}:{fn.name}"
            for name, fn in _outer_functions(*packages)
            if any(matches(node) for node in ast.walk(fn))
        }

    @classmethod
    def _callers_of(cls, method, *packages):
        return cls._functions_where(
            lambda n: isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == method,
            *packages,
        )

    def test_spans_are_opened_by_the_bracket(self):
        import repro.gax
        import repro.recover
        import repro.serve
        import repro.transport

        # What is left refines the span at close (a handle wait's
        # category) or opens it back-dated on another rank's behalf.
        assert self._callers_of(
            "begin", repro.armci, repro.pami, repro.gax, repro.recover,
            repro.serve, repro.transport,
        ) == {"handles.py:_post_and_wait", "activemsg.py:execute"}

    def test_the_gantt_is_only_a_view(self):
        src = pathlib.Path(repro.armci.__file__).parents[1]
        for path in src.rglob("*.py"):
            text = path.read_text()
            for name in ("trace.interval", "record_intervals", "shard_plan"):
                assert name not in text, f"{path.name} references {name}"

    def test_rank_state_is_wired_once(self):
        for attr in ("region_cache", "tracker", "_pending_acks"):
            assert self._functions_where(
                lambda n: isinstance(n, (ast.Assign, ast.AnnAssign))
                and any(
                    isinstance(t, ast.Attribute)
                    and t.attr == attr
                    and getattr(t.value, "id", None) == "self"
                    for t in getattr(n, "targets", [getattr(n, "target", None)])
                ),
                repro.armci,
            ) == {"runtime.py:reset_for_respawn"}, attr
        assert self._callers_of("create_context", repro.armci) == {
            "runtime.py:_reinit_body"
        }

    def test_fault_plans_are_the_jobs_business(self):
        for path in pathlib.Path(repro.pami.__file__).parent.glob("*.py"):
            assert "fault_plan" not in path.read_text(), path.name


# ------------------------------------------------------------ fate matrix

#: The two nodes of a 2-rank, 1-proc/node job, joined by one torus link:
#: lossy or corrupting it hits every copy, killing it leaves no route.
PAIR_A = (0, 0, 0, 0, 0)
PAIR_B = (0, 0, 0, 0, 1)

FATE_ROWS = (
    "put", "get", "am_cookie", "am_forget", "rmw_soft", "rmw_nic", "get_reply",
)
FATE_COLUMNS = (
    "clean", "chaos_loss", "link_loss", "corrupt", "corrupt_integrity",
    "budget_spent", "route_blocked", "dead_target", "respawned_target",
    "respawned_initiator",
)
#: Cells an rt-level test already pins (tests/test_network_faults.py:
#: typed put to a respawned incarnation; fall-back get reply to a
#: respawned initiator).
FATE_PINNED_ELSEWHERE = {
    ("put", "respawned_target"), ("get_reply", "respawned_initiator"),
}
FATE_DATA = bytes(range(1, 65))
FATE_LINK_FAULT = {
    "link_loss": ("lossy", 1.0), "corrupt": ("corrupt", 1.0),
    "corrupt_integrity": ("corrupt", 1.0), "budget_spent": ("corrupt", 1.0),
    "route_blocked": ("kill", 0.0),
}
FATE_INTEGRITY = {
    "corrupt_integrity": IntegrityConfig(),
    "budget_spent": IntegrityConfig(max_retransmits=0),
}
#: Transport retransmits inside the default budget before the clean copy.
BUDGET = 8


def expected_fate(row, column):
    """``(landed, token type, counters)`` the state machine owes a cell.

    ``landed`` is ``"exact"``, ``"damaged"`` or ``None``; a token type of
    ``"unobserved"`` means no waiter is left to see one."""
    observed = row != "am_forget"  # somebody waits on the outcome
    counters = {
        "pami.stale_deliveries_dropped": 0, "pami.silent_corruptions": 0,
        "armci.integrity.checksum_failures": 0, "armci.integrity.aborted": 0,
    }
    lost = (None, TransientFault) if observed else ("exact", None)
    if column == "clean":
        return "exact", None, counters
    if column in ("chaos_loss", "link_loss"):
        # The first copy's loss is the waiter's to see; unseen, the
        # transport resends up to the clean last copy.
        resent = "chaos.retransmits" if column == "chaos_loss" else "net.retransmits"
        counters[resent] = 0 if observed else BUDGET
        return *lost, counters
    if column == "corrupt":
        counters["pami.silent_corruptions"] = 1
        return "damaged", None, counters
    if column == "corrupt_integrity":
        counters["armci.integrity.checksum_failures"] = BUDGET
        counters["armci.integrity.retransmits"] = BUDGET
        return "exact", None, counters
    if column == "budget_spent":
        counters["armci.integrity.checksum_failures"] = 1
        counters["armci.integrity.aborted"] = 1
        return None, TransientFault if observed else None, counters
    if column == "route_blocked":
        counters["armci.integrity.aborted"] = 0 if observed else 1
        return None, TransientFault if observed else None, counters
    if column == "respawned_initiator":
        counters["pami.stale_deliveries_dropped"] = 1
        return None, "unobserved", counters
    counters["pami.stale_deliveries_dropped"] = int(column == "respawned_target")
    return None, Failure if observed else None, counters


class TestDeliveryFateMatrix:
    """Every wire primitive x every fate: what landed, what the waiter
    got, what was counted — and never a hang or a leaked FIFO credit."""

    @staticmethod
    def _arm_wire(world, column, src, dst):
        """Make the wire between ``src`` and ``dst`` misbehave from now on."""
        if column == "chaos_loss":
            world.chaos = ChaosEngine(
                ChaosConfig(drop_prob=1.0, links=frozenset({(src, dst)})),
                world.trace,
            )
        elif column in FATE_LINK_FAULT:
            kind, prob = FATE_LINK_FAULT[column]
            apply_link_fault(world, LinkFault(kind, PAIR_A, PAIR_B, at=0.0, prob=prob))

    @staticmethod
    def _arm_peer(world, column, initiator, target):
        """Lose a peer with the payload in flight (after the caller
        yields, before anything can arrive)."""
        lose = {
            "dead_target": (target, False), "respawned_target": (target, True),
            "respawned_initiator": (initiator, True),
        }.get(column)
        if lose is not None:
            rank, respawn = lose

            def fire(_arg):
                world.fail_rank(rank)
                if respawn:
                    world.respawn_rank(rank)

            world.engine.schedule(0.0, fire)

    @pytest.mark.parametrize("backend", ["pami", "mpi3"])
    @pytest.mark.parametrize("column", FATE_COLUMNS)
    @pytest.mark.parametrize("row", FATE_ROWS)
    def test_cell(self, row, column, backend, monkeypatch):
        if (row, column) in FATE_PINNED_ELSEWHERE:
            pytest.skip("pinned by tests/test_network_faults.py")
        job = ArmciJob(
            2,
            config=ArmciConfig.async_thread_mode(
                backend=backend, fifo_depth=4,
                integrity=FATE_INTEGRITY.get(column),
            ),
            procs_per_node=1,
            nic_amo_support=row == "rmw_nic",
        )
        world = job.world
        if column in FATE_LINK_FAULT:
            world.enable_link_faults()
        job.init()
        got = {}

        if row == "get_reply":
            # The reply is the payload under test: the wire turns bad,
            # and peers are lost, once the target has served the request.
            serve = armci_runtime.AM_HANDLERS[dispatch.GET_REQUEST]

            def serve_under_faults(rt, ctx, env):
                self._arm_wire(world, column, 1, 0)
                serve(rt, ctx, env)
                self._arm_peer(world, column, 0, 1)

            monkeypatch.setitem(
                armci_runtime.AM_HANDLERS, dispatch.GET_REQUEST, serve_under_faults
            )

        def post(rt, alloc):
            """Put ``row``'s payload on the wire; returns its waiters and
            a reader of the bytes it was meant to land."""
            ctx = rt.main_context
            space = world.space(0)
            remote = alloc.addr(1)
            credit = row in ("am_cookie", "am_forget", "rmw_soft", "get_reply")
            if credit:
                assert world.client(1).progress_context().try_acquire_credit()
            if row in ("put", "am_cookie", "am_forget"):
                local = space.allocate(64)
                space.write(local, FATE_DATA)
            else:
                world.space(1).write(remote, FATE_DATA)
                local = space.allocate(64)
            if row == "put":
                op = rt.transport.rdma_put(
                    ctx, 1, local, remote, 64, want_remote_ack=True
                )
                return [op.local_event, op.remote_ack_event], (1, remote)
            if row == "get":
                op = rt.transport.rdma_get(ctx, 1, remote, local, 64)
                return [op.local_event], (0, local)
            if row == "am_cookie":
                ack = rt.engine.event()
                rt.transport.send_am(
                    ctx, 1, dispatch.PUT_REQUEST,
                    header={"remote": remote, "ack": ack, "reply_ctx": ctx,
                            "_credit": True},
                    payload=space.snapshot(local, 64),
                )
                return [ack], (1, remote)
            if row == "am_forget":
                rt.transport.send_am(
                    ctx, 1, dispatch.GROUP_MESSAGE,
                    header={"key": ["fate"], "value": None, "_credit": True},
                    payload=space.snapshot(local, 64),
                )
                return [], None
            if row == "get_reply":
                done = rt.engine.event()
                rt.transport.send_am(
                    ctx, 1, dispatch.GET_REQUEST,
                    header={"remote": remote, "nbytes": 64, "local": local,
                            "event": done, "reply_ctx": ctx, "_credit": True},
                )
                return [done], (0, local)
            world.space(1).write(remote, bytes(64))
            op, operand = ("fetch_add", 3) if row == "rmw_nic" else ("fetch_max", 5)
            pending = rt.transport.rmw(
                ctx, 1, remote, op, operand, credited=row == "rmw_soft"
            )
            got["operand"] = operand
            return [pending.event], (1, remote)

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 1:
                yield from rt.compute(600e-6)
                return
            if row != "get_reply":
                self._arm_wire(world, column, 0, 1)
            waiters, got["where"] = post(rt, alloc)
            got["waiters"] = waiters
            if row != "get_reply":
                self._arm_peer(world, column, 0, 1)
            if column == "respawned_initiator" or not waiters:
                yield from rt.compute(500e-6)  # killed here, or nobody to wait
                return
            deadline = rt.engine.now + 500e-6
            values = []
            for event in waiters:
                values.append(
                    (yield from rt.main_context.wait_with_progress(event, deadline))
                )
            got["token"] = next(
                (v for v in values if isinstance(v, (Failure, TransientFault))),
                None,
            )

        job.run(body)

        landed, token, counters = expected_fate(row, column)
        # What landed.
        if row == "am_forget":
            # The group state is made by the first group message a rank
            # handles, so a rank that handled none has none.
            state = getattr(job.rt(1), "_group_state", None)
            arrived = len(state.inbox.get(("fate",), [])) if state else 0
            assert arrived == (1 if landed else 0)
        elif row.startswith("rmw"):
            rank, addr = got["where"]
            try:
                cell = int(world.space(rank).i64_view(addr)[0])
            except PamiError:  # the respawned target's fresh, unmapped space
                cell = 0
            assert (cell == got["operand"]) == (landed == "exact")
            assert (cell != 0) == (landed is not None)
        else:
            rank, addr = got["where"]
            try:
                arrived = world.space(rank).read(addr, 64)
            except PamiError:
                arrived = bytes(64)
            flips = sum(
                bin(a ^ b).count("1") for a, b in zip(arrived, FATE_DATA)
            )
            if landed == "exact":
                assert arrived == FATE_DATA
            elif landed == "damaged":
                assert flips == 1
            else:
                assert arrived == bytes(64)
        # What the waiter got.
        if token == "unobserved":
            assert not any(event.triggered for event in got["waiters"])
        elif token is None:
            assert got.get("token") is None
        else:
            assert isinstance(got["token"], token)
        # What was counted.
        for name, value in counters.items():
            assert job.trace.count(name) == value, name
        # No FIFO credit leaked, on any incarnation.
        for client in world.clients:
            for ctx in client.contexts:
                assert ctx._credits_out == 0, (client.rank, ctx.index)
