#!/usr/bin/env python3
"""Load-balance counters: why BG/Q needs asynchronous progress threads.

The Fig. 9 micro-kernel at example scale: every rank repeatedly
fetch-and-adds a shared counter hosted on rank 0 while rank 0 runs
~300 us computation chunks (NWChem's do_work). Four designs:

  D            default: progress only inside rank 0's blocking calls
  AT           asynchronous SMT progress thread (the paper's design)
  AT, rho=1    async thread sharing one context with the main thread
  HW AMO       what-if: NIC-hardware fetch-and-add (Gemini-style)

Run:  python examples/load_balance_counter.py
"""

from dataclasses import replace

from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.gax import SharedCounter
from repro.util import intervals, render_timeline
from repro.util.units import us

PROCS = 32
ITERS = 6
COMPUTE_CHUNK = 300e-6


def run(
    config: ArmciConfig, label: str, hardware: bool = False, timeline: bool = False
) -> None:
    if timeline:
        # The Gantt below is a view over the job's obs spans.
        config = replace(config, obs=ObsConfig(enabled=True))
    job = ArmciJob(
        PROCS, procs_per_node=16, config=config, nic_amo_support=hardware
    )
    job.init()
    latencies: list[float] = []

    def body(rt):
        counter = yield from SharedCounter.create(rt, host=0)
        yield from rt.barrier()
        if rt.rank == 0:
            # Rank 0 computes until everyone has drawn all tickets,
            # calling the progress engine only between chunks.
            target = (PROCS - 1) * ITERS
            drawn = 0
            while drawn < target:
                yield from rt.compute(COMPUTE_CHUNK)
                yield from rt.progress()
                drawn = rt.world.space(0).read_i64(counter.addr)
            yield from rt.barrier()
            return
        for _ in range(ITERS):
            t0 = rt.engine.now
            yield from counter.next(rt)
            latencies.append(rt.engine.now - t0)
        yield from rt.barrier()

    job.run(body)
    mean = sum(latencies) / len(latencies)
    worst = max(latencies)
    print(
        f"{label:12s} mean fetch-and-add {us(mean):9.2f} us   "
        f"worst {us(worst):9.2f} us"
    )
    if timeline:
        # Show the schedule of rank 0 (computing + serving) and two
        # requesters: in D mode their counter waits ('c') stretch across
        # rank 0's compute chunks ('#').
        shown = [
            iv for iv in intervals(job.obs.spans) if iv.lane in ("r0", "r1", "r2")
        ]
        print()
        print(render_timeline(shown, width=72))
        print()


def main() -> None:
    print(
        f"{PROCS} ranks hammer a shared counter on rank 0; "
        f"rank 0 computes in {us(COMPUTE_CHUNK):.0f} us chunks\n"
    )
    run(ArmciConfig.default_mode(), "D", timeline=True)
    run(ArmciConfig.async_thread_mode(), "AT", timeline=True)
    run(ArmciConfig(async_thread=True, num_contexts=1), "AT, rho=1")
    run(ArmciConfig.default_mode(), "HW AMO", hardware=True)
    print(
        "\nthe default design leaves requesters waiting for rank 0 to emerge "
        "from compute;\nthe asynchronous thread (Section III-D) services them "
        "immediately, and hardware\nAMOs (the paper's ask for future machines) "
        "would drop latency to wire level"
    )


if __name__ == "__main__":
    main()
