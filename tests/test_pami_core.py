"""Integration tests for PAMI contexts, clients, RMA, AMs, and AMOs."""

import pytest

from repro.errors import PamiError
from repro.machine import BGQParams
from repro.pami import PamiWorld
from repro.pami.activemsg import send_am
from repro.pami.atomics import rmw
from repro.pami.context import CompletionItem
from repro.pami.rma import rdma_get, rdma_put
from repro.sim import Delay

from .conftest import build_world, create_contexts, run_ranks


class TestWorldSetup:
    def test_world_builds_default_partition(self):
        world = PamiWorld(num_procs=32, procs_per_node=16)
        assert world.mapping.num_ranks == 32
        assert world.mapping.torus.num_nodes == 2

    def test_world_rejects_zero_procs(self):
        with pytest.raises(PamiError):
            PamiWorld(num_procs=0)

    def test_rank_bounds_checked(self):
        world = PamiWorld(num_procs=2, procs_per_node=1)
        with pytest.raises(PamiError):
            world.client(2)
        with pytest.raises(PamiError):
            world.space(-1)

    def test_context_creation_costs_table_ii_time(self):
        world = PamiWorld(num_procs=1, procs_per_node=1)
        create_contexts(world, rho=2)
        # 3821us for the first + 4271us for the second context.
        assert world.engine.now == pytest.approx(3821e-6 + 4271e-6)
        assert world.clients[0].num_contexts == 2

    def test_progress_context_is_last(self):
        world = build_world(num_procs=1, procs_per_node=1, rho=2)
        client = world.clients[0]
        assert client.progress_context() is client.context(1)

    def test_context_index_errors(self):
        world = build_world(num_procs=1, procs_per_node=1)
        with pytest.raises(PamiError):
            world.clients[0].context(5)

    def test_dispatcher_serves_a_shared_id_table(self):
        world = build_world(num_procs=1, procs_per_node=1)
        client = world.clients[0]
        table = {1: None, 2: None}
        shared = lambda ctx, env: None
        client.register_dispatcher(table, shared)
        assert client._dispatcher_ids is table
        assert client.handler_for(1) is shared
        assert client.handler_for(2) is shared
        with pytest.raises(PamiError):
            client.handler_for(3)
        with pytest.raises(PamiError):
            client.register_dispatcher({9: None}, shared)  # one per client


class TestContextProgress:
    def test_advance_services_completion_items(self, world2):
        ctx = world2.clients[0].context(0)
        ev = world2.engine.event()
        ctx.post(CompletionItem(ev, "payload"))

        def body():
            n = yield from ctx.advance()
            return (n, ev.triggered, ev.value)

        proc = world2.engine.spawn(body(), name="advancer")
        assert world2.engine.run_until_complete([proc]) == [(1, True, "payload")]

    def test_wait_with_progress_self_services(self, world2):
        """A thread waiting on its own op drains the completion itself."""
        ctx = world2.clients[0].context(0)
        ev = world2.engine.event()
        world2.engine.schedule(1e-6, lambda _: ctx.post(CompletionItem(ev, 42)))

        def body():
            value = yield from ctx.wait_with_progress(ev)
            return value

        proc = world2.engine.spawn(body(), name="waiter")
        assert world2.engine.run_until_complete([proc]) == [42]

    def test_wait_with_progress_event_fired_elsewhere(self, world2):
        """If another thread fires the event, the waiter just returns."""
        ctx = world2.clients[0].context(0)
        ev = world2.engine.event()
        world2.engine.schedule(2e-6, lambda _: ev.succeed("done"))

        def body():
            return (yield from ctx.wait_with_progress(ev))

        proc = world2.engine.spawn(body(), name="waiter")
        assert world2.engine.run_until_complete([proc]) == ["done"]

    def test_advance_max_items_bounds_work(self, world2):
        ctx = world2.clients[0].context(0)
        for i in range(5):
            ctx.post(CompletionItem(world2.engine.event(), i))

        def body():
            n = yield from ctx.advance(max_items=2)
            return n

        proc = world2.engine.spawn(body(), name="advancer")
        assert world2.engine.run_until_complete([proc]) == [2]
        assert len(ctx.queue) == 3

    @pytest.mark.parametrize("window", ["lock_overhead", "queued_on_lock"])
    def test_a_killed_advance_gives_the_lock_back(self, world2, window):
        """A thread killed inside an advance (a chaos ``stall_progress``,
        a watchdog failover) neither keeps the context lock nor is later
        granted it: the next advance still runs."""
        engine = world2.engine
        ctx = world2.clients[0].context(0)
        overhead = world2.params.context_lock_overhead
        ctx.post(CompletionItem(engine.event(), "item"))
        procs = []
        if window == "queued_on_lock":
            # The first thread holds the lock through its round; the
            # victim queues behind it and dies there.
            procs.append(engine.spawn(ctx.advance(), name="holder"))
        victim = engine.spawn(ctx.advance(), name="victim")
        engine.schedule(overhead / 2, lambda _: victim.kill())

        def later():
            yield Delay(overhead / 4)
            if window == "queued_on_lock":
                assert ctx.lock._waiters, "the victim was not queued on the lock"
            else:
                assert ctx.lock.locked, "the victim did not hold the lock"
            yield Delay(10e-6)
            assert not ctx.lock.locked and not ctx.lock._waiters
            ctx.post(CompletionItem(engine.event(), "after"))
            return (yield from ctx.advance())

        procs.append(engine.spawn(later(), name="next"))
        # The victim serviced nothing: the next advance does its item too.
        serviced = 2 if window == "lock_overhead" else 1
        assert engine.run_until_complete(procs)[-1] == serviced
        assert victim.done.triggered and not ctx.lock.locked and not ctx.queue


class TestRdma:
    def _alloc(self, world, rank, nbytes, fill=0):
        return world.space(rank).allocate(nbytes, fill=fill)

    def test_put_moves_bytes_end_to_end(self, world2):
        src_addr = self._alloc(world2, 0, 64)
        dst_addr = self._alloc(world2, 1, 64)
        world2.space(0).write(src_addr, b"A" * 64)

        def body():
            ctx = world2.clients[0].context(0)
            [local], _acks = rdma_put(ctx, 1, [(src_addr, dst_addr, 64)])
            yield from ctx.wait_with_progress(local)

        run_ranks(world2, lambda r: body(), ranks=[0])
        world2.engine.run()
        assert world2.space(1).read(dst_addr, 64) == b"A" * 64

    def test_put_buffer_reuse_semantics(self, world2):
        """Data is captured at post time; later writes don't corrupt it."""
        src_addr = self._alloc(world2, 0, 16)
        dst_addr = self._alloc(world2, 1, 16)
        world2.space(0).write(src_addr, b"ORIGINAL-DATA-XX")

        def body():
            ctx = world2.clients[0].context(0)
            [local], _acks = rdma_put(ctx, 1, [(src_addr, dst_addr, 16)])
            world2.space(0).write(src_addr, b"CLOBBERED-DATA-X")
            yield from ctx.wait_with_progress(local)

        run_ranks(world2, lambda r: body(), ranks=[0])
        world2.engine.run()
        assert world2.space(1).read(dst_addr, 16) == b"ORIGINAL-DATA-XX"

    def test_put_local_completion_time_matches_network_model(self, world2):
        src_addr = self._alloc(world2, 0, 16)
        dst_addr = self._alloc(world2, 1, 16)
        t0 = world2.engine.now

        def body():
            ctx = world2.clients[0].context(0)
            [local], _acks = rdma_put(ctx, 1, [(src_addr, dst_addr, 16)])
            yield from ctx.wait_with_progress(local)
            return world2.engine.now - t0

        [elapsed] = run_ranks(world2, lambda r: body(), ranks=[0])
        # Completion dispatch adds a small advance cost on top of 2.7us.
        assert elapsed == pytest.approx(2.7e-6, rel=0.15)

    def test_put_remote_ack_for_fence(self, world2):
        src_addr = self._alloc(world2, 0, 16)
        dst_addr = self._alloc(world2, 1, 16)

        def body():
            ctx = world2.clients[0].context(0)
            _local, [ack] = rdma_put(
                ctx, 1, [(src_addr, dst_addr, 16)], want_remote_ack=True
            )
            yield from ctx.wait_with_progress(ack)
            # By ack time the bytes are in target memory.
            return world2.space(1).read(dst_addr, 16)

        [data] = run_ranks(world2, lambda r: body(), ranks=[0])
        assert data == bytes(16)

    def test_get_moves_bytes_and_reads_at_nic_time(self, world2):
        remote = self._alloc(world2, 1, 32, fill=5)
        local = self._alloc(world2, 0, 32)

        def body():
            ctx = world2.clients[0].context(0)
            [done] = rdma_get(ctx, 1, [(local, remote, 32)])
            yield from ctx.wait_with_progress(done)
            return world2.space(0).read(local, 32)

        [data] = run_ranks(world2, lambda r: body(), ranks=[0])
        assert data == bytes([5] * 32)

    def test_get_latency_adjacent_16b(self, world2):
        remote = self._alloc(world2, 1, 16)
        local = self._alloc(world2, 0, 16)
        t0 = world2.engine.now

        def body():
            ctx = world2.clients[0].context(0)
            [done] = rdma_get(ctx, 1, [(local, remote, 16)])
            yield from ctx.wait_with_progress(done)
            return world2.engine.now - t0

        [elapsed] = run_ranks(world2, lambda r: body(), ranks=[0])
        assert elapsed == pytest.approx(2.89e-6, rel=0.15)

    def test_zero_byte_transfers_rejected(self, world2):
        ctx = world2.clients[0].context(0)
        with pytest.raises(PamiError):
            rdma_put(ctx, 1, [(0x1000, 0x1000, 0)])
        with pytest.raises(PamiError):
            rdma_get(ctx, 1, [(0x1000, 0x1000, 0)])

    def test_puts_between_pair_preserve_order(self, world2):
        """Pairwise ordering: a later put never lands before an earlier one."""
        src = self._alloc(world2, 0, 8)
        dst = self._alloc(world2, 1, 8)

        def body():
            ctx = world2.clients[0].context(0)
            events = []
            for i in range(10):
                world2.space(0).write(src, bytes([i] * 8))
                events += rdma_put(ctx, 1, [(src, dst, 8)])[0]
            for event in events:
                yield from ctx.wait_with_progress(event)

        run_ranks(world2, lambda r: body(), ranks=[0])
        world2.engine.run()
        # Final memory reflects the last put; checker saw no violations.
        assert world2.space(1).read(dst, 8) == bytes([9] * 8)
        assert world2.ordering.checked >= 10


class TestActiveMessages:
    def test_am_handler_runs_when_target_advances(self, world2):
        received = []
        world2.clients[1].register_dispatcher(
            {1}, lambda ctx, env: received.append((env.header["x"], env.payload))
        )

        def sender():
            ctx = world2.clients[0].context(0)
            op = send_am(ctx, 1, 1, header={"x": 42}, payload=b"bulk")
            yield from ctx.wait_with_progress(op.local_event)

        def receiver():
            ctx = world2.clients[1].context(0)
            # Advance until the handler has run.
            while not received:
                if len(ctx.queue) == 0:
                    yield ctx.arrival_signal()
                yield from ctx.advance()

        run_ranks(world2, lambda r: sender() if r == 0 else receiver())
        assert received == [(42, b"bulk")]

    def test_am_not_handled_without_progress(self, world2):
        """Fig. 9's root cause: no advance at target => handler never runs."""
        received = []
        world2.clients[1].register_dispatcher({1}, lambda c, e: received.append(1))

        def sender():
            ctx = world2.clients[0].context(0)
            op = send_am(ctx, 1, 1, header={})
            yield from ctx.wait_with_progress(op.local_event)
            yield Delay(1.0)  # plenty of time; target never advances

        run_ranks(world2, lambda r: sender(), ranks=[0])
        world2.engine.run()
        assert not received
        assert len(world2.clients[1].progress_context().queue) == 1

    def test_am_routed_to_explicit_context(self):
        world = build_world(num_procs=2, procs_per_node=1, rho=2)
        world.clients[1].register_dispatcher({1}, lambda c, e: None)

        def sender():
            ctx = world.clients[0].context(0)
            op = send_am(ctx, 1, 1, header={}, target_context=0)
            yield from ctx.wait_with_progress(op.local_event)

        run_ranks(world, lambda r: sender(), ranks=[0])
        world.engine.run()
        assert len(world.clients[1].context(0).queue) == 1
        assert len(world.clients[1].context(1).queue) == 0


class TestAtomics:
    def test_fetch_add_returns_old_value_and_updates(self, world2):
        counter = world2.space(1).allocate(8)
        world2.space(1).write_i64(counter, 100)

        def initiator():
            ctx = world2.clients[0].context(0)
            op = rmw(ctx, 1, counter, "fetch_add", 5)
            old = yield from ctx.wait_with_progress(op.event)
            return old

        def target():
            ctx = world2.clients[1].context(0)
            while world2.space(1).read_i64(counter) == 100:
                if len(ctx.queue) == 0:
                    yield ctx.arrival_signal()
                yield from ctx.advance()

        results = run_ranks(
            world2, lambda r: initiator() if r == 0 else target()
        )
        assert results[0] == 100
        assert world2.space(1).read_i64(counter) == 105

    def test_unknown_op_rejected(self, world2):
        ctx = world2.clients[0].context(0)
        with pytest.raises(PamiError, match="unknown rmw op"):
            rmw(ctx, 1, 0x1000, "xor", 1)

    def test_compare_swap_semantics(self, world2):
        counter = world2.space(1).allocate(8)
        world2.space(1).write_i64(counter, 7)

        def initiator():
            ctx = world2.clients[0].context(0)
            # Mismatch: no write.
            op = rmw(ctx, 1, counter, "compare_swap", 99, 1)
            old = yield from ctx.wait_with_progress(op.event)
            assert old == 7
            # Match: write 1.
            op = rmw(ctx, 1, counter, "compare_swap", 7, 1)
            old = yield from ctx.wait_with_progress(op.event)
            return old

        def target():
            ctx = world2.clients[1].context(0)
            while world2.space(1).read_i64(counter) != 1:
                if len(ctx.queue) == 0:
                    yield ctx.arrival_signal()
                yield from ctx.advance()

        results = run_ranks(
            world2, lambda r: initiator() if r == 0 else target()
        )
        assert results[0] == 7
        assert world2.space(1).read_i64(counter) == 1

    def test_many_ranks_fetch_add_is_atomic(self):
        """Every rank increments once; all see distinct old values."""
        world = build_world(num_procs=8, procs_per_node=1)
        counter = world.space(0).allocate(8)

        def initiator(rank):
            ctx = world.clients[rank].context(0)
            op = rmw(ctx, 0, counter, "fetch_add", 1)
            old = yield from ctx.wait_with_progress(op.event)
            return old

        def target():
            ctx = world.clients[0].context(0)
            while world.space(0).read_i64(counter) < 7:
                if len(ctx.queue) == 0:
                    yield ctx.arrival_signal()
                yield from ctx.advance()
            return None

        results = run_ranks(
            world, lambda r: target() if r == 0 else initiator(r)
        )
        old_values = sorted(v for v in results if v is not None)
        assert old_values == list(range(7))
        assert world.space(0).read_i64(counter) == 7

    def test_hardware_amo_bypasses_software_progress(self):
        """With NIC AMO support, no target thread is needed at all."""
        world = build_world(num_procs=2, procs_per_node=1, nic_amo_support=True)
        counter = world.space(1).allocate(8)

        def initiator():
            ctx = world.clients[0].context(0)
            op = rmw(ctx, 1, counter, "fetch_add", 3)
            old = yield from ctx.wait_with_progress(op.event)
            return old

        [old] = run_ranks(world, lambda r: initiator(), ranks=[0])
        assert old == 0
        assert world.space(1).read_i64(counter) == 3

    def test_hardware_amo_much_faster_than_unserviced_software(self):
        """Hardware AMO completes in ~us while software AMO waits forever
        if the target never advances (the paper's core observation)."""
        hw = build_world(num_procs=2, procs_per_node=1, nic_amo_support=True)
        counter = hw.space(1).allocate(8)

        def initiator(world, ctr):
            ctx = world.clients[0].context(0)
            op = rmw(ctx, 1, ctr, "fetch_add", 1)
            yield from ctx.wait_with_progress(op.event)
            return world.engine.now

        [t_hw] = run_ranks(hw, lambda r: initiator(hw, counter), ranks=[0])
        assert t_hw - 3821e-6 < 5e-6  # a few microseconds after init

        sw = build_world(num_procs=2, procs_per_node=1)
        counter_sw = sw.space(1).allocate(8)
        proc = sw.engine.spawn(initiator(sw, counter_sw), name="stuck")
        sw.engine.run()
        assert not proc.done.triggered  # blocked: target never advanced
