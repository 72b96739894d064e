"""Transport-layer conformance: capability descriptors, backend
selection, and the MPI-3 semantic deltas (emulated AMs, partial native
AMO set, flush completion, window-attach cost).

The cross-backend *functional* conformance suite is the existing ARMCI
test modules parameterized by the ``backend`` fixture (see
``tests/conftest.py``); this module covers what those tests cannot —
backend-specific counters, capability metadata, and pami-vs-mpi3
behavior comparisons inside one test.
"""

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.errors import ArmciError
from repro.transport import (
    BACKENDS,
    Mpi3Transport,
    PamiTransport,
    capability_matrix,
    create_transport,
)
from repro.transport.mpi3 import MPI3_NATIVE_RMW_OPS


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
        assert BACKENDS["pami"] is PamiTransport
        assert BACKENDS["mpi3"] is Mpi3Transport

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
        matrix = capability_matrix()
        assert [c.name for c in matrix] == sorted(BACKENDS)

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
            if rt.rank == 0:
                yield from rt.lock(0)
                yield from rt.unlock(0)
            yield from rt.barrier()

        job.run(main)
        # One registered segment per rank (malloc), plus lock/unlock AMs.
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
        import ast
        import pathlib

        import repro.armci

        found = set()
        for path in pathlib.Path(repro.armci.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            outer = [
                fn
                for node in tree.body
                for fn in (node.body if isinstance(node, ast.ClassDef) else [node])
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for fn in outer:
                if any(
                    isinstance(n, ast.Attribute) and n.attr == attr
                    for n in ast.walk(fn)
                ):
                    found.add(f"{path.name}:{fn.name}")
        return found

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
        assert not {5, 6, 9, 10} & set(AM_HANDLERS)
        assert not [
            name
            for name in dispatch.DISPATCH_NAMES.values()
            if name.startswith(("strided_packed_", "vector_"))
        ]
        assert not hasattr(ArmciProcess, "_resolve_vector_regions")
