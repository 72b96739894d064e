"""Task pools over shared counters, including a distributed variant.

Figures 9/11 show the single software-serviced counter saturating as p
grows. The standard mitigation (used by NWChem at scale and enabled by
hardware AMOs on Gemini) is to **distribute** the load balancing: shard
the task range over several counters hosted on different ranks, with
ranks draining their home shard first and stealing from remote shards
once it is exhausted. Both pool flavours expose the same
``next_range(rt)`` interface the Fock build consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from ..errors import ArmciError, ProcessFailedError
from .counter import SharedCounter

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.runtime import ArmciProcess


@dataclass
class TaskPool:
    """Single shared counter over ``[0, ntasks)`` with chunked draws."""

    counter: SharedCounter
    ntasks: int
    chunk: int = 1

    def __post_init__(self) -> None:
        if self.ntasks < 1:
            raise ArmciError(f"need >= 1 task, got {self.ntasks}")
        if self.chunk < 1:
            raise ArmciError(f"chunk must be >= 1, got {self.chunk}")

    @classmethod
    def create(
        cls, rt: "ArmciProcess", ntasks: int, chunk: int = 1, host: int = 0
    ) -> Generator[Any, Any, "TaskPool"]:
        """Collective creation."""
        counter = yield from SharedCounter.create(rt, host=host)
        return cls(counter, ntasks, chunk)

    def next_range(
        self, rt: "ArmciProcess"
    ) -> Generator[Any, Any, tuple[int, int] | None]:
        """Claim the next task range ``[lo, hi)``; ``None`` when drained."""
        with rt.span("task_draw", "taskpool.next_range"):
            draw = yield from self.counter.next(rt)
        lo = draw * self.chunk
        if lo >= self.ntasks:
            return None
        return lo, min(lo + self.chunk, self.ntasks)

    def reset(self, rt: "ArmciProcess") -> Generator[Any, Any, None]:
        """Reset for the next iteration (call from one rank, then barrier)."""
        yield from self.counter.reset(rt)


@dataclass
class DistributedTaskPool:
    """``g`` counters over ``g`` task shards, with work stealing.

    Each rank drains the shard of its *home* counter
    (``rank % g``-th counter), then probes the remaining shards round
    robin. Counter hosts are spread across ranks, so both the AMO service
    load and the network traffic decentralize — at p=4096 a single
    counter's software service rate is the bottleneck even under the
    asynchronous-thread design.

    **Fault tolerance.** When created with ``backups`` (by
    :meth:`create`, on p > 1), each shard also gets a standby counter on a
    *different* host. A rank that sees the primary's host fail pushes its
    local progress watermark (highest successful draw + 1) into the
    backup with a ``fetch_max`` merge, then keeps drawing from the
    backup. Because every survivor max-merges before its first backup
    draw, the backup converges to the furthest progress any survivor
    observed; a task drawn concurrently around the failure may run twice
    (at-least-once semantics), but no undrawn task is skipped. A shard is
    lost only when primary *and* backup hosts are both dead.
    """

    counters: list[SharedCounter]
    ntasks: int
    chunk: int = 1
    backups: list[SharedCounter] | None = None

    def __post_init__(self) -> None:
        if not self.counters:
            raise ArmciError("need at least one counter")
        if self.ntasks < 1:
            raise ArmciError(f"need >= 1 task, got {self.ntasks}")
        if self.chunk < 1:
            raise ArmciError(f"chunk must be >= 1, got {self.chunk}")
        if self.backups is not None and len(self.backups) != len(self.counters):
            raise ArmciError(
                f"backup/primary arity mismatch: {len(self.backups)} backups "
                f"for {len(self.counters)} counters"
            )

    @classmethod
    def create(
        cls,
        rt: "ArmciProcess",
        ntasks: int,
        num_counters: int,
        chunk: int = 1,
    ) -> Generator[Any, Any, "DistributedTaskPool"]:
        """Collective creation; counter ``s`` lives on a distinct host
        (strided across the job so hosts land on different nodes when
        possible). With more than one process a standby counter per
        shard is placed on the next rank over.

        The whole pool is one collective allocation — slot ``s`` of the
        segment on its host, standbys in slots ``g + s`` — so set-up is
        one malloc and one barrier however many counters there are."""
        if num_counters < 1:
            raise ArmciError(f"need >= 1 counter, got {num_counters}")
        p = rt.world.num_procs
        g = min(num_counters, p)
        stride = max(1, p // g)
        standby = p > 1
        alloc = yield from rt.malloc(8 * g * (2 if standby else 1))
        hosts = [(s * stride) % p for s in range(g)]

        def slot(host: int, index: int) -> SharedCounter:
            return SharedCounter(host, alloc.addr(host) + 8 * index, alloc)

        counters = [slot(host, s) for s, host in enumerate(hosts)]
        backups = (
            [slot((host + 1) % p, g + s) for s, host in enumerate(hosts)]
            if standby
            else None
        )
        return cls(counters, ntasks, chunk, backups)

    @property
    def num_counters(self) -> int:
        return len(self.counters)

    @property
    def allocations(self) -> list:
        """Distinct backing allocations of the counters and backups.

        Crash recovery protects these so draw positions roll back to the
        checkpoint epoch together with the data they gated — replayed
        epochs redraw the same task ids (exactly-once per epoch).
        """
        pools = list(self.counters) + list(self.backups or ())
        distinct = {id(c.alloc): c.alloc for c in pools if c.alloc is not None}
        return list(distinct.values())

    def _shard_bounds(self, shard: int) -> tuple[int, int]:
        g = self.num_counters
        base, extra = divmod(self.ntasks, g)
        lo = shard * base + min(shard, extra)
        hi = lo + base + (1 if shard < extra else 0)
        return lo, hi

    def _shard_counter(self, rt: "ArmciProcess", shard: int) -> SharedCounter:
        failed_over: set[int] = rt._dtp_state[3]
        if shard in failed_over and self.backups is not None:
            return self.backups[shard]
        return self.counters[shard]

    def _fail_over(
        self, rt: "ArmciProcess", shard: int
    ) -> Generator[Any, Any, bool]:
        """Switch a shard to its backup counter; ``False`` if unrecoverable.

        Pushes this rank's watermark (highest draw it has seen succeed
        plus one) into the backup with a ``fetch_max`` so the standby
        resumes from the furthest progress any survivor can vouch for.
        """
        _pool, _drained, watermarks, failed_over = rt._dtp_state
        if self.backups is None or shard in failed_over:
            # No standby, or the standby is the counter that just died.
            return False
        backup = self.backups[shard]
        if not (yield from backup.fetch_max(rt, watermarks.get(shard, 0))):
            return False
        failed_over.add(shard)
        rt.trace.incr("gax.pool_shards_failed_over")
        return True

    def next_range(
        self, rt: "ArmciProcess"
    ) -> Generator[Any, Any, tuple[int, int] | None]:
        """Claim a range from the home shard, stealing once it drains.

        Per-rank probe state lives on ``rt`` (each rank remembers which
        shards it has seen drained, how far each shard had advanced, and
        which shards it has failed over to their backup counters).
        """
        g = self.num_counters
        state = getattr(rt, "_dtp_state", None)
        if state is None or state[0] is not self:
            # (pool identity, drained shards, per-shard watermark,
            #  shards running on their backup counter)
            state = (self, set(), {}, set())
            rt._dtp_state = state
        drained: set[int] = state[1]
        watermarks: dict[int, int] = state[2]
        home = rt.rank % g
        with rt.span("task_draw", "dtp.next_range") as span:
            span.note(empty=True)  # also how a draw that raises closes
            result = yield from self._next_range(rt, g, home, drained, watermarks)
            span.note(empty=result is None)
        return result

    def _next_range(
        self,
        rt: "ArmciProcess",
        g: int,
        home: int,
        drained: set,
        watermarks: dict,
    ) -> Generator[Any, Any, tuple[int, int] | None]:
        for probe in range(g):
            shard = (home + probe) % g
            if shard in drained:
                continue
            lo, hi = self._shard_bounds(shard)
            shard_tasks = hi - lo
            while True:
                counter = self._shard_counter(rt, shard)
                try:
                    draw = yield from counter.next(rt)
                except ProcessFailedError:
                    recovered = yield from self._fail_over(rt, shard)
                    if recovered:
                        continue
                    # Primary and backup hosts both dead (or no backup):
                    # the shard's undrawn tasks are lost to this pool.
                    drained.add(shard)
                    rt.trace.incr("gax.pool_shards_lost")
                    break
                if draw + 1 > watermarks.get(shard, 0):
                    watermarks[shard] = draw + 1
                offset = draw * self.chunk
                if offset >= shard_tasks:
                    drained.add(shard)
                    if probe > 0:
                        rt.trace.incr("gax.pool_steal_misses")
                    break
                if probe > 0:
                    rt.trace.incr("gax.pool_steals")
                return lo + offset, min(lo + offset + self.chunk, hi)
        return None

    def reset(self, rt: "ArmciProcess") -> Generator[Any, Any, None]:
        """Reset every counter (call from exactly one rank, then have
        **all** ranks call :meth:`reset_local` before the next round).

        Counters on dead hosts are skipped; each rank rediscovers the
        failover in the next round's first draw against the shard."""
        for counter in self.counters + (self.backups or []):
            try:
                yield from counter.reset(rt)
            except ProcessFailedError:
                rt.trace.incr("gax.pool_reset_skipped_dead")
        self.reset_local(rt)

    def reset_local(self, rt: "ArmciProcess") -> None:
        """Clear this rank's drained-shard memory (non-generator; every
        rank must call it between rounds)."""
        if hasattr(rt, "_dtp_state"):
            del rt._dtp_state