"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Delay, Engine, Event, WaitAll, WaitEvent


def test_engine_starts_at_time_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_orders_by_time():
    eng = Engine()
    order = []
    eng.schedule(2.0, lambda _: order.append("b"))
    eng.schedule(1.0, lambda _: order.append("a"))
    eng.schedule(3.0, lambda _: order.append("c"))
    end = eng.run()
    assert order == ["a", "b", "c"]
    assert end == 3.0


def test_equal_timestamps_run_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(1.0, lambda _, i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_schedule_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-0.1, lambda _: None)


def test_simple_process_delays_advance_clock():
    eng = Engine()

    def body():
        yield Delay(1.5)
        yield Delay(2.5)
        return "done"

    proc = eng.spawn(body(), name="p")
    results = eng.run_until_complete([proc])
    assert results == ["done"]
    assert eng.now == 4.0


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(SimulationError, match="generator"):
        eng.spawn(lambda: None, name="bad")  # type: ignore[arg-type]


def test_process_exception_propagates_from_run():
    eng = Engine()

    def body():
        yield Delay(1.0)
        raise ValueError("boom")

    eng.spawn(body(), name="crasher")
    with pytest.raises(SimulationError, match="crasher"):
        eng.run()


def test_event_wakes_waiting_process_with_value():
    eng = Engine()
    ev = eng.event("ping")
    got = []

    def waiter():
        value = yield WaitEvent(ev)
        got.append((eng.now, value))

    def trigger():
        yield Delay(3.0)
        ev.succeed(42)

    procs = [eng.spawn(waiter(), name="w"), eng.spawn(trigger(), name="t")]
    eng.run_until_complete(procs)
    assert got == [(3.0, 42)]


def test_yield_bare_event_is_waitevent_shorthand():
    eng = Engine()
    ev = eng.event()

    def waiter():
        yield ev
        return eng.now

    def trigger():
        yield Delay(1.0)
        ev.succeed()

    proc = eng.spawn(waiter(), name="w")
    eng.spawn(trigger(), name="t")
    assert eng.run_until_complete([proc]) == [1.0]


def test_wait_on_already_triggered_event_completes():
    eng = Engine()
    ev = eng.event()
    ev.succeed("early")

    def waiter():
        value = yield WaitEvent(ev)
        return value

    proc = eng.spawn(waiter(), name="w")
    assert eng.run_until_complete([proc]) == ["early"]


def test_event_double_succeed_rejected():
    eng = Engine()
    ev = eng.event("once")
    ev.succeed()
    with pytest.raises(SimulationError, match="twice"):
        ev.succeed()


def test_event_value_before_trigger_rejected():
    eng = Engine()
    ev = eng.event("pending")
    with pytest.raises(SimulationError, match="not triggered"):
        _ = ev.value


def test_wait_all_collects_values_in_order():
    eng = Engine()
    evs = [eng.event(str(i)) for i in range(3)]

    def waiter():
        values = yield WaitAll(evs)
        return (eng.now, values)

    def triggers():
        yield Delay(1.0)
        evs[2].succeed("c")
        yield Delay(1.0)
        evs[0].succeed("a")
        yield Delay(1.0)
        evs[1].succeed("b")

    proc = eng.spawn(waiter(), name="w")
    eng.spawn(triggers(), name="t")
    assert eng.run_until_complete([proc]) == [(3.0, ["a", "b", "c"])]


def test_wait_all_empty_completes_immediately():
    eng = Engine()

    def waiter():
        values = yield WaitAll([])
        return values

    proc = eng.spawn(waiter(), name="w")
    assert eng.run_until_complete([proc]) == [[]]


def test_wait_all_with_mix_of_triggered_and_pending():
    eng = Engine()
    done = eng.event()
    done.succeed(1)
    pending = eng.event()

    def waiter():
        values = yield WaitAll([done, pending])
        return values

    def trigger():
        yield Delay(2.0)
        pending.succeed(2)

    proc = eng.spawn(waiter(), name="w")
    eng.spawn(trigger(), name="t")
    assert eng.run_until_complete([proc]) == [[1, 2]]


def test_join_process_via_yield():
    eng = Engine()

    def child():
        yield Delay(2.0)
        return "child-result"

    def parent():
        proc = eng.spawn(child(), name="child")
        yield proc
        return eng.now

    proc = eng.spawn(parent(), name="parent")
    assert eng.run_until_complete([proc]) == [2.0]


def test_deadlock_detected_for_never_triggered_event():
    eng = Engine()
    ev = eng.event("never")

    def waiter():
        yield WaitEvent(ev)

    proc = eng.spawn(waiter(), name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        eng.run_until_complete([proc])


def test_unsupported_yield_fails_loudly():
    eng = Engine()

    def body():
        yield 123  # not a command

    eng.spawn(body(), name="bad")
    with pytest.raises(SimulationError, match="unsupported"):
        eng.run()


def test_events_executed_counter_increases():
    eng = Engine()
    for _ in range(5):
        eng.schedule(0.0, lambda _: None)
    eng.run()
    assert eng.events_executed == 5


def test_many_processes_deterministic_completion():
    """Two identical runs produce identical event interleavings."""

    def run_once():
        eng = Engine()
        log = []

        def body(i):
            yield Delay(0.001 * (i % 7))
            log.append((eng.now, i))
            yield Delay(0.002)
            log.append((eng.now, i))

        procs = [eng.spawn(body(i), name=f"p{i}") for i in range(50)]
        eng.run_until_complete(procs)
        return log

    assert run_once() == run_once()


def test_wait_any_returns_first_event():
    from repro.sim import WaitAny

    eng = Engine()
    evs = [eng.event(str(i)) for i in range(3)]

    def waiter():
        idx, value = yield WaitAny(evs)
        return (eng.now, idx, value)

    def trigger():
        yield Delay(2.0)
        evs[1].succeed("middle")
        yield Delay(1.0)
        evs[0].succeed("late")

    proc = eng.spawn(waiter(), name="w")
    eng.spawn(trigger(), name="t")
    assert eng.run_until_complete([proc]) == [(2.0, 1, "middle")]


def test_wait_any_with_already_triggered_prefers_lowest_index():
    from repro.sim import WaitAny

    eng = Engine()
    a, b = eng.event(), eng.event()
    b.succeed("b")
    a.succeed("a")

    def waiter():
        idx, value = yield WaitAny([a, b])
        return (idx, value)

    proc = eng.spawn(waiter(), name="w")
    assert eng.run_until_complete([proc]) == [(0, "a")]


def test_wait_any_empty_rejected():
    from repro.errors import SimulationError
    from repro.sim import WaitAny

    with pytest.raises(SimulationError):
        WaitAny([])


def test_wait_any_other_events_reusable():
    """Events not chosen by WaitAny can still be waited on later."""
    from repro.sim import WaitAny, WaitEvent

    eng = Engine()
    fast, slow = eng.event(), eng.event()

    def waiter():
        idx, _ = yield WaitAny([fast, slow])
        assert idx == 0
        value = yield WaitEvent(slow)
        return (eng.now, value)

    def trigger():
        yield Delay(1.0)
        fast.succeed()
        yield Delay(1.0)
        slow.succeed("done")

    proc = eng.spawn(waiter(), name="w")
    eng.spawn(trigger(), name="t")
    assert eng.run_until_complete([proc]) == [(2.0, "done")]


def test_wait_any_takes_its_other_arms_back():
    """A resolved wait leaves no arm on the events that did not fire, so
    an event that outlives the wait keeps no finished process alive and
    is never scheduled as a no-op; nor does the process keep its arms."""
    from repro.sim import WaitAny

    eng = Engine()
    fires, never = eng.event(), eng.event()

    def waiter():
        for _ in range(3):
            yield WaitAny([never, fires])
        return "done"

    def trigger():
        yield Delay(1.0)
        fires.succeed()

    proc = eng.spawn(waiter(), name="w")
    eng.spawn(trigger(), name="t")
    assert eng.run_until_complete([proc]) == ["done"]
    assert never._callbacks == []
    assert proc._arms == () and proc._awaited == ()
    # Two steps and one Delay for the trigger, one armed wait and two
    # already-resolved ones for the waiter: no dead-arm entry.
    assert eng.events_executed == 6


def test_same_instant_siblings_resume_once():
    """Two arms whose events fire in one instant: the second is already
    scheduled when the first runs, and must not resume the process."""
    from repro.sim import WaitAny

    eng = Engine()
    a, b, later = eng.event(), eng.event(), eng.event()
    seen = []

    def waiter():
        seen.append((yield WaitAny([a, b])))
        seen.append((yield WaitAny([later])))

    def trigger():
        yield Delay(1.0)
        a.succeed("a")
        b.succeed("b")
        yield Delay(1.0)
        later.succeed("later")

    proc = eng.spawn(waiter(), name="w")
    eng.spawn(trigger(), name="t")
    eng.run_until_complete([proc])
    assert seen == [(0, "a"), (0, "later")]


def test_killed_waiter_is_disarmed():
    from repro.sim import WaitAny

    eng = Engine()
    a, b = eng.event(), eng.event()

    def waiter():
        yield WaitAny([a, b])

    proc = eng.spawn(waiter(), name="w")
    eng.run()
    proc.kill()
    assert a._callbacks == [] and b._callbacks == []


def test_triggered_event_after_pending_ones_leaves_no_arm():
    """The arming pass meets a triggered event after arming pending
    ones: those arms come back off, and the triggered index wins."""
    from repro.sim import WaitAny

    eng = Engine()
    a, b, c = eng.event(), eng.event(), eng.event()
    b.succeed("b")
    c.succeed("c")

    def waiter():
        return (yield WaitAny([a, b, c]))

    proc = eng.spawn(waiter(), name="w")
    assert eng.run_until_complete([proc]) == [(1, "b")]
    assert a._callbacks == [] and proc._arms == ()


# ------------------------------------------------- schedule policies


def test_cancelled_timer_subclass_is_skipped():
    # Regression: the run loop used a `type(...) is Timer` check, so a
    # cancelled Timer *subclass* popped from the heap executed as a
    # no-op callback but still advanced the clock to its expiry.
    from repro.sim.engine import Timer

    class DeadlineTimer(Timer):
        pass

    eng = Engine()
    timer = DeadlineTimer(lambda _a: None, None)
    eng.schedule(5.0, timer, None)
    timer.cancel()
    eng.run()
    assert eng.now == 0.0
    assert eng.events_executed == 0


def test_cancelled_timer_skipped_under_policy():
    from repro.sim.engine import RandomTieBreakPolicy

    eng = Engine(policy=RandomTieBreakPolicy(7))
    fired = []
    t1 = eng.schedule_timer(1.0, lambda _a: fired.append("a"))
    eng.schedule_timer(1.0, lambda _a: fired.append("b"))
    t1.cancel()
    eng.run()
    assert fired == ["b"]
    assert eng.events_executed == 1


def _cancel_storm(engine):
    """300 timers (plus plain callbacks between them); at 5 us one
    callback cancels 250 of them. ``(fired, heap size after the cancel,
    final time)``."""
    fired, heap_after = [], []
    timers = [
        engine.schedule_timer(1e-6 * (i + 1), fired.append, i) for i in range(300)
    ]
    for i in range(0, 300, 7):
        engine.schedule(1e-6 * i + 5e-7, fired.append, -i)

    def cancel(_arg):
        for i in range(5, 300):
            if i % 6:
                timers[i].cancel()
        heap_after.append(len(engine._heap))

    engine.schedule(5.5e-6, cancel)
    engine.run()
    return fired, heap_after[0], engine.now


def test_cancelled_timers_are_purged_without_changing_the_run(monkeypatch):
    """Cancelling most of the heap from inside a running callback drops
    the dead entries at once; what runs, when, and in which order is the
    same as letting each one surface at its expiry."""
    from repro.sim import engine as engine_mod

    purged = Engine(record_schedule=True)
    fired, heap_after, end = _cancel_storm(purged)
    monkeypatch.setattr(engine_mod, "PURGE_FLOOR", 10**9)
    kept = Engine(record_schedule=True)
    fired_kept, heap_kept, end_kept = _cancel_storm(kept)
    assert heap_after < heap_kept
    assert (fired, end) == (fired_kept, end_kept)
    assert purged.events_executed == kept.events_executed
    assert purged.schedule_log == kept.schedule_log
    assert purged.schedule_digest == kept.schedule_digest
    assert purged._cancelled_timers == 0


def test_purge_floor_keeps_small_heaps():
    """Up to PURGE_FLOOR cancelled entries stay put: rebuilding a small
    heap would cost more than popping them."""
    from repro.sim.engine import PURGE_FLOOR

    eng = Engine()
    timers = [eng.schedule_timer(1.0, lambda _a: None) for _ in range(PURGE_FLOOR)]
    for timer in timers:
        timer.cancel()
    assert len(eng._heap) == PURGE_FLOOR
    eng.schedule_timer(1.0, lambda _a: None).cancel()
    assert eng._heap == [] and eng._cancelled_timers == 0


def test_non_callable_schedule_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(1.0, "not-a-callback")


def test_non_callable_event_callback_rejected():
    # Checked where it enters: a pending event would only schedule it at
    # ``succeed``, and the engine's internal entry does not check.
    eng = Engine()
    pending, fired = Event(eng, "pending"), Event(eng, "fired")
    fired.succeed()
    for ev in (pending, fired):
        with pytest.raises(SimulationError, match="callable"):
            ev.add_callback("not-a-callback")
    pending.succeed()
    assert eng.run() == 0.0
    assert eng.events_executed == 0


def test_fifo_policy_matches_default_order():
    from repro.sim.engine import SchedulePolicy

    def run(engine):
        order = []
        for i in range(20):
            engine.schedule(1e-6, lambda _a, i=i: order.append(i))
        engine.run()
        return order

    assert run(Engine()) == run(Engine(policy=SchedulePolicy()))


def test_random_policy_reorders_equal_timestamps():
    from repro.sim.engine import RandomTieBreakPolicy

    def run(policy):
        eng = Engine(policy=policy)
        order = []
        for i in range(20):
            eng.schedule(1e-6, lambda _a, i=i: order.append(i))
        eng.run()
        return order

    fifo = run(None)
    shuffled = run(RandomTieBreakPolicy(1))
    assert sorted(shuffled) == sorted(fifo)
    assert shuffled != fifo  # seed 1 permutes 20 equal-time events


def test_random_policy_is_deterministic_per_seed():
    from repro.sim.engine import RandomTieBreakPolicy

    def digest(seed):
        eng = Engine(policy=RandomTieBreakPolicy(seed))
        for i in range(50):
            eng.schedule(1e-6, lambda _a: None)
        eng.run()
        return eng.schedule_digest

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_policy_never_reorders_across_timestamps():
    from repro.sim.engine import RandomTieBreakPolicy

    eng = Engine(policy=RandomTieBreakPolicy(0))
    order = []
    for i in range(10):
        eng.schedule(i * 1e-6, lambda _a, i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_random_policy_limit_bounds_perturbation():
    from repro.sim.engine import RandomTieBreakPolicy

    def run(limit):
        eng = Engine(policy=RandomTieBreakPolicy(5, limit=limit))
        order = []
        for i in range(20):
            eng.schedule(1e-6, lambda _a, i=i: order.append(i))
        eng.run()
        return order

    assert run(0) == list(range(20))  # limit=0 is pure FIFO
    assert run(None) != list(range(20))


def test_pct_policy_demotes_events():
    from repro.sim.engine import PriorityPerturbationPolicy

    eng = Engine(policy=PriorityPerturbationPolicy(2, bands=2, demotions=3,
                                                   horizon=16))
    order = []
    for i in range(16):
        eng.schedule(1e-6, lambda _a, i=i: order.append(i))
    eng.run()
    assert sorted(order) == list(range(16))
    assert order != list(range(16))


def test_record_schedule_log():
    from repro.sim.engine import SchedulePolicy

    eng = Engine(policy=SchedulePolicy(), record_schedule=True)
    eng.schedule(1e-6, lambda _a: None)
    eng.schedule(2e-6, lambda _a: None)
    eng.run()
    assert eng.schedule_log == [(1e-6, 0), (2e-6, 1)]


def test_default_engine_keeps_digest_bookkeeping_off():
    eng = Engine()
    eng.schedule(1e-6, lambda _a: None)
    eng.run()
    assert eng.schedule_digest == 0
    assert eng.schedule_log == []


def test_invalid_policy_type_rejected():
    with pytest.raises(SimulationError):
        Engine(policy="random")


def test_policy_parameter_validation():
    from repro.sim.engine import (
        PriorityPerturbationPolicy,
        RandomTieBreakPolicy,
    )

    with pytest.raises(SimulationError):
        RandomTieBreakPolicy(0, limit=-1)
    with pytest.raises(SimulationError):
        PriorityPerturbationPolicy(0, bands=0)
    with pytest.raises(SimulationError):
        PriorityPerturbationPolicy(0, demotions=-1)
    with pytest.raises(SimulationError):
        PriorityPerturbationPolicy(0, horizon=0)
