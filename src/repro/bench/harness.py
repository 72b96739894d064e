"""Shared benchmark machinery."""

from __future__ import annotations

from ..armci.config import ArmciConfig
from ..armci.runtime import ArmciJob

#: The paper's message-size sweep: 16 B to 1 MB in powers of two.
PAPER_SIZES: tuple[int, ...] = tuple(2**k for k in range(4, 21))


def two_proc_job(config: ArmciConfig | None = None) -> ArmciJob:
    """Two processes on adjacent nodes — the Fig. 3/4 setup."""
    return ArmciJob(
        2, config=config if config is not None else ArmciConfig(), procs_per_node=1
    )


def rank0(job: ArmciJob, nbytes: int, loop, barrier: bool = True):
    """The rig of every benchmark in which rank 0 alone drives the
    traffic: init ``job``, a collective ``malloc(nbytes)`` and (unless
    ``barrier`` is off) a barrier, then ``loop(rt, alloc)`` on rank 0
    against its peers, a closing barrier on every rank, run.

    Returns what the loop returned, the simulated time from init to the
    end of the run, and the job's registry.
    """
    job.init()
    t0 = job.engine.now
    out = []

    def body(rt):
        alloc = yield from rt.malloc(nbytes)
        if barrier:
            yield from rt.barrier()
        if rt.rank == 0:
            out.append((yield from loop(rt, alloc)))
        yield from rt.barrier()

    job.run(body)
    return out[0], job.engine.now - t0, job.trace
