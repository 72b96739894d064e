"""Unit tests for simulated locks, semaphores, and queues."""

import pytest

from repro.errors import SimulationError
from repro.sim import Delay, Engine, Lock, Queue, Semaphore


def test_semaphore_initial_count_available():
    eng = Engine()
    sem = Semaphore(eng, count=3)
    assert [sem.try_acquire() for _ in range(4)] == [True, True, True, False]


def test_semaphore_negative_count_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        Semaphore(eng, count=-1)


def test_semaphore_try_acquire():
    eng = Engine()
    sem = Semaphore(eng, count=1)
    assert sem.try_acquire()
    assert not sem.try_acquire()
    sem.release()
    assert sem.try_acquire()


def test_lock_mutual_exclusion_and_fifo_grant():
    eng = Engine()
    lock = Lock(eng)
    order = []

    def worker(i):
        yield lock.acquire()
        order.append(("in", i, eng.now))
        yield Delay(1.0)
        order.append(("out", i, eng.now))
        lock.release()

    procs = [eng.spawn(worker(i), name=f"w{i}") for i in range(3)]
    eng.run_until_complete(procs)
    # Strictly serialized, FIFO: w0 then w1 then w2.
    assert order == [
        ("in", 0, 0.0),
        ("out", 0, 1.0),
        ("in", 1, 1.0),
        ("out", 1, 2.0),
        ("in", 2, 2.0),
        ("out", 2, 3.0),
    ]


def test_lock_release_when_not_held_rejected():
    eng = Engine()
    lock = Lock(eng)
    with pytest.raises(SimulationError, match="not held"):
        lock.release()


def test_lock_locked_property():
    eng = Engine()
    lock = Lock(eng)
    assert not lock.locked
    assert lock.try_acquire()
    assert lock.locked
    lock.release()
    assert not lock.locked


def test_queue_put_then_get():
    eng = Engine()
    q = Queue(eng)
    q.put("x")
    assert len(q) == 1

    def getter():
        item = yield q.get()
        return item

    proc = eng.spawn(getter(), name="g")
    assert eng.run_until_complete([proc]) == ["x"]
    assert len(q) == 0


def test_queue_get_blocks_until_put():
    eng = Engine()
    q = Queue(eng)

    def getter():
        item = yield q.get()
        return (eng.now, item)

    def putter():
        yield Delay(2.0)
        q.put("late")

    proc = eng.spawn(getter(), name="g")
    eng.spawn(putter(), name="p")
    assert eng.run_until_complete([proc]) == [(2.0, "late")]


def test_queue_fifo_order_across_blocked_getters():
    eng = Engine()
    q = Queue(eng)
    got = []

    def getter(i):
        item = yield q.get()
        got.append((i, item))

    def putter():
        yield Delay(1.0)
        q.put("a")
        q.put("b")

    procs = [eng.spawn(getter(i), name=f"g{i}") for i in range(2)]
    eng.spawn(putter(), name="p")
    eng.run_until_complete(procs)
    assert got == [(0, "a"), (1, "b")]


def test_queue_get_nowait_empty_raises():
    eng = Engine()
    q = Queue(eng)
    with pytest.raises(SimulationError, match="empty"):
        q.get_nowait()


def test_queue_peek_all_preserves_items():
    eng = Engine()
    q = Queue(eng)
    q.put(1)
    q.put(2)
    assert tuple(q.items) == (1, 2)
    assert len(q) == 2


def test_semaphore_bounds_concurrency():
    eng = Engine()
    sem = Semaphore(eng, count=2)
    active = [0]
    peak = [0]

    def worker():
        yield sem.acquire()
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield Delay(1.0)
        active[0] -= 1
        sem.release()

    procs = [eng.spawn(worker(), name=f"w{i}") for i in range(6)]
    eng.run_until_complete(procs)
    assert peak[0] == 2
    assert eng.now == 3.0  # 6 workers, 2 at a time, 1s each
