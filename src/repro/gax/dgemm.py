"""Distributed dgemm over global arrays — the Section III-E motivating case.

``C = A . B`` with A, B, C block-distributed: each process reads patches
of A and B (non-blocking gets) and accumulates partial products into C.
Reads target A/B and writes target C — *different* distributed
structures — so a per-target consistency tracker (``cs_tgt``) fences
spuriously on every get that follows an accumulate to the same rank,
while ``cs_mr`` never does. The consistency ablation benchmark counts
exactly that difference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .array import GlobalArray
from .counter import SharedCounter
from .distribution import Patch

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.runtime import ArmciProcess


def dgemm_task_list(n: int, block: int) -> list[tuple[Patch, Patch, Patch]]:
    """Block tasks: for each C block (i, j) and inner block k, the patch
    triple (A[i,k], B[k,j], C[i,j])."""
    nb = -(-n // block)
    tasks = []
    for i in range(nb):
        for j in range(nb):
            for k in range(nb):
                r0, r1 = i * block, min((i + 1) * block, n)
                c0, c1 = j * block, min((j + 1) * block, n)
                k0, k1 = k * block, min((k + 1) * block, n)
                tasks.append(
                    (Patch(r0, r1, k0, k1), Patch(k0, k1, c0, c1), Patch(r0, r1, c0, c1))
                )
    return tasks


def parallel_dgemm(
    rt: "ArmciProcess",
    ga_a: GlobalArray,
    ga_b: GlobalArray,
    ga_c: GlobalArray,
    counter: SharedCounter,
    block: int,
) -> Generator[Any, Any, int]:
    """Counter-load-balanced ``C += A . B``; returns tasks done locally.

    All ranks must call collectively; C must be zeroed beforehand and the
    counter freshly created/reset.
    """
    n = ga_a.dist.rows
    tasks = dgemm_task_list(n, block)
    done = 0
    mine = yield from counter.next(rt)
    for task_id, (pa, pb, pc) in enumerate(tasks):
        if task_id != mine:
            continue
        a = yield from ga_a.get(rt, pa)
        b = yield from ga_b.get(rt, pb)
        partial = a @ b
        yield from ga_c.acc(rt, pc, partial)
        done += 1
        mine = yield from counter.next(rt)
    yield from rt.fence_all()
    yield from rt.barrier()
    return done
