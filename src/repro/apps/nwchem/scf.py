"""SCF driver: iterations of Fock build + diagonalization proxy.

Reproduces the Fig. 11 experiment: SCF on a water cluster, default (D)
vs asynchronous-thread (AT) ARMCI configurations, reporting total
execution time and the time spent in load-balance counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...armci.config import ArmciConfig
from ...armci.runtime import ArmciJob
from ...errors import ReproError
from ...gax.array import GlobalArray
from ...gax.taskpool import DistributedTaskPool, TaskPool
from .fock import FockBuildStats, fock_build
from .molecule import WaterCluster
from .tasks import fock_task_list

#: Simulated cost of the diagonalization/density-update step per matrix
#: element and iteration (distributed dense algebra, scales as nbf^2 / p).
DIAG_TIME_PER_ELEMENT = 5e-9
#: Density damping factor of the update (D' = a*D + (1-a)*F').
DAMPING = 0.5
#: Convergence threshold on |delta E| between iterations; ``None`` runs
#: exactly ``ScfConfig.iterations`` Fock builds. With a threshold,
#: ``iterations`` acts as the maximum.
CONVERGE_TOL: float | None = None


@dataclass(frozen=True)
class ScfConfig:
    """SCF proxy parameters.

    Defaults follow the paper's input: 6 water molecules, 644 basis
    functions (the paper's count, overriding the per-element sum), with
    the task grain sized so dynamic load balancing matters.
    """

    n_molecules: int = 6
    basis: str = "aug-cc-pVDZ"
    #: Explicit basis-function count (the paper's 644); None = derive
    #: from the molecule/basis tables.
    nbf_override: int | None = 644
    #: Basis-function blocks per dimension; tasks = nblocks**2.
    nblocks: int = 32
    #: Mean simulated compute per task (two-electron integrals).
    task_time: float = 2e-3
    #: SCF iterations to run.
    iterations: int = 1
    #: Tasks claimed per shared-counter draw (NWChem's nxtask chunking).
    tasks_per_draw: int = 1
    #: Load-balance counters (1 = the paper's single nxtask counter on
    #: rank 0; >1 = sharded counters with work stealing, the mitigation
    #: for AMO saturation at scale).
    num_counters: int = 1

    @property
    def nbf(self) -> int:
        if self.nbf_override is not None:
            if self.nbf_override < 1:
                raise ReproError(f"nbf_override must be >= 1")
            return self.nbf_override
        return WaterCluster(self.n_molecules).nbf(self.basis)

    @property
    def ntasks(self) -> int:
        return self.nblocks * self.nblocks


@dataclass
class ScfResult:
    """Aggregated outcome of one SCF run."""

    num_procs: int
    config_label: str
    #: Simulated wall time of the SCF (excludes job init).
    total_time: float
    #: Sum over ranks of time blocked on the load-balance counter.
    counter_time_total: float
    #: Mean per-rank counter time.
    counter_time_mean: float
    #: Sum over ranks of task compute time.
    compute_time_total: float
    #: Tasks executed (must equal ntasks * iterations run).
    tasks_done: int
    #: Fock-build iterations actually run (< max if converged early).
    iterations_run: int = 0
    #: Proxy 'energy' per iteration (sum(D o F) through GA dots).
    energies: list[float] = field(default_factory=list)
    #: Whether the convergence threshold was met (None tolerance => False).
    converged: bool = False
    #: Per-rank Fock-build stats for deeper analysis.
    per_rank: list[FockBuildStats] = field(default_factory=list)

    @property
    def counter_fraction(self) -> float:
        """Aggregate share of process-seconds spent on the counter."""
        denom = self.total_time * self.num_procs
        return self.counter_time_total / denom if denom > 0 else 0.0


def run_scf(
    num_procs: int,
    armci_config: ArmciConfig,
    scf_config: ScfConfig | None = None,
    procs_per_node: int = 16,
    label: str | None = None,
    chaos=None,
    fault_plan=None,
    engine=None,
    on_job=None,
) -> ScfResult:
    """Run the SCF proxy and return aggregated results.

    This is a complete simulated job: builds the ARMCI runtime with the
    given configuration, distributes density/Fock arrays, and runs
    ``iterations`` Fock builds under shared-counter load balancing.

    ``chaos`` (a :class:`repro.chaos.ChaosConfig`) injects transient
    communication faults, which the ARMCI retry layer must absorb — the
    task accounting check below then doubles as an exactly-once audit.
    ``fault_plan`` schedules hard rank crashes. ``engine`` supplies a
    pre-built :class:`~repro.sim.engine.Engine` (e.g. one with a
    schedule-exploration policy); ``on_job`` is called with the
    initialized :class:`ArmciJob` before the run starts (verification
    harness hook point).
    """
    scf = scf_config if scf_config is not None else ScfConfig()
    nbf = scf.nbf
    tasks = fock_task_list(nbf, scf.nblocks, scf.task_time)

    job = ArmciJob(
        num_procs,
        config=armci_config,
        procs_per_node=min(procs_per_node, num_procs),
        chaos=chaos,
        fault_plan=fault_plan,
        engine=engine,
    )
    job.init()
    if on_job is not None:
        on_job(job)
    t_start = job.engine.now

    def body(rt):
        ga_density = yield from GlobalArray.create(rt, (nbf, nbf), name="density")
        ga_fock = yield from GlobalArray.create(rt, (nbf, nbf), name="fock")
        if scf.num_counters > 1:
            pool = yield from DistributedTaskPool.create(
                rt, len(tasks), scf.num_counters, chunk=scf.tasks_per_draw
            )
        else:
            pool = yield from TaskPool.create(
                rt, len(tasks), chunk=scf.tasks_per_draw
            )
        # Initial guess density: superposition of atomic densities —
        # diagonal-dominant, like every SCF starting guess. Local fill.
        block = ga_density.local_block(rt)
        block[:] = 0.01
        blk = ga_density.dist.owner_block(rt.rank)
        for i in range(blk.row_lo, blk.row_hi):
            if blk.col_lo <= i < blk.col_hi:
                block[i - blk.row_lo, i - blk.col_lo] = 1.0
        ga_fock.fill(rt, 0.0)
        yield from rt.barrier()

        all_stats = []
        energies: list[float] = []
        converged = False
        for _iteration in range(scf.iterations):
            ga_fock.fill(rt, 0.0)
            yield from rt.barrier()
            stats = yield from fock_build(rt, ga_density, ga_fock, pool, tasks)
            all_stats.append(stats)
            # Proxy 'energy': the D.F contraction every SCF computes.
            energy = yield from ga_density.dot(rt, ga_fock)
            energies.append(energy)
            # Diagonalize + density update proxy: distributed dense
            # algebra, perfectly parallel across ranks; the damped
            # density update keeps real data evolving between builds.
            diag = DIAG_TIME_PER_ELEMENT * nbf * nbf / rt.world.num_procs
            yield from rt.compute(diag)
            d_block = ga_density.local_block(rt)
            f_block = ga_fock.local_block(rt)
            scale = 1.0 / max(1.0, abs(f_block).max() * nbf)
            d_block[:] = DAMPING * d_block + (1 - DAMPING) * scale * f_block
            if rt.rank == 0:
                yield from pool.reset(rt)
            elif hasattr(pool, "reset_local"):
                pool.reset_local(rt)
            yield from rt.barrier()
            if (
                CONVERGE_TOL is not None
                and len(energies) >= 2
                and abs(energies[-1] - energies[-2]) < CONVERGE_TOL
            ):
                converged = True
                break
        return all_stats, energies, converged

    results = job.run(body)
    total_time = job.engine.now - t_start

    per_rank_lists = [r[0] for r in results]
    energies = results[0][1]
    converged = results[0][2]
    flat: list[FockBuildStats] = [s for stats in per_rank_lists for s in stats]
    counter_total = sum(s.counter_time for s in flat)
    tasks_done = sum(s.tasks_done for s in flat)
    iterations_run = len(per_rank_lists[0])
    expected = len(tasks) * iterations_run
    if tasks_done != expected:
        raise ReproError(
            f"load-balance accounting broken: {tasks_done} tasks done, "
            f"expected {expected}"
        )
    return ScfResult(
        num_procs=num_procs,
        config_label=label
        or ("AT" if armci_config.async_thread else "D"),
        total_time=total_time,
        counter_time_total=counter_total,
        counter_time_mean=counter_total / num_procs,
        compute_time_total=sum(s.compute_time for s in flat),
        tasks_done=tasks_done,
        iterations_run=iterations_run,
        energies=energies,
        converged=converged,
        per_rank=flat,
    )
