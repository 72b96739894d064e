"""Happens-before race oracle for the ARMCI consistency subsystem.

The oracle attaches to every rank's :class:`~repro.armci.runtime.
ArmciProcess` through its ``observer`` slot and watches the runtime's
semantic event stream: data movement (put/get/acc in all their
contiguous/strided/vector forms), fences and fence *decisions*, and
every synchronization primitive that creates cross-rank ordering
(barriers and read-modify-writes).

It maintains two independent models:

- a **golden conflict model** mirroring the paper's per-(region, target)
  semantics: the set of region keys each rank has written to each target
  since its last fence there. At every fence decision the active
  tracker's verdict is compared against the golden one, classifying the
  decision as a *required* fence, a *missed* fence (golden says fence,
  tracker skipped — a correctness bug), a *false-positive* fence
  (tracker fenced with no conflicting outstanding write — the cs_tgt
  overhead the paper eliminates), or a clean skip. The golden model
  deliberately uses the same region-key resolution the runtime feeds the
  trackers, so a healthy ``cs_mr`` agrees with it by construction and
  any wiring regression or mutant shows up as a divergence.

- a **vector-clock happens-before model**: each rank carries a vector
  clock ticked on every observed event and joined across barrier
  generations and rmw release-acquire chains per (target, address).
  Byte-range accesses to each target's memory are checked pairwise
  (write/write, write/read, acc/read, acc/write — never read/read or
  acc/acc, accumulates being associative) and concurrent overlapping
  pairs are flagged as data races. Ordered pairs are checked for
  *unfenced-sync* hazards: conflicting accesses ordered only by a
  synchronization edge while the earlier write was never certified by a
  fence — ordering of the sync message does not imply remote completion
  of prior RDMA writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..armci.dispatch import DISPATCH_NAMES

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.runtime import ArmciJob


@dataclass(frozen=True)
class Violation:
    """One oracle finding.

    ``kind`` is one of ``"missed_fence"``, ``"data_race"``, or
    ``"unfenced_sync"`` — false-positive fences are an overhead metric,
    counted but not listed as violations.
    """

    kind: str
    rank: int
    dst: int
    detail: str


@dataclass(frozen=True)
class Access:
    """One recorded byte-range access to a target's memory."""

    rank: int
    dst: int
    lo: int
    hi: int
    kind: str  # "w" (put), "a" (acc), "r" (get)
    op: str  # originating op label ("put", "puts", "acc", ...)
    clock: tuple[int, ...]
    index: int  # per-oracle sequence number, for divergence logs


@dataclass
class OracleReport:
    """Aggregated verdict of one observed run."""

    missed_fences: int = 0
    false_positive_fences: int = 0
    required_fences: int = 0
    clean_skips: int = 0
    data_races: int = 0
    unfenced_syncs: int = 0
    violations: list[Violation] = field(default_factory=list)
    service_log: list[tuple[int, str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no correctness violation was flagged (false-positive
        fences are overhead, not errors)."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"fences: {self.required_fences} required, "
            f"{self.false_positive_fences} false-positive, "
            f"{self.missed_fences} missed; "
            f"races: {self.data_races}; unfenced-sync: {self.unfenced_syncs}; "
            f"am-services: {len(self.service_log)}"
        )


def _leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Component-wise vector-clock comparison a <= b."""
    return all(x <= y for x, y in zip(a, b))


class HappensBeforeOracle:
    """Observer implementing the golden model + vector-clock race check.

    Parameters
    ----------
    num_procs:
        Rank count (vector-clock width).
    """

    def __init__(self, num_procs: int) -> None:
        self.num_procs = num_procs
        self.report = OracleReport()
        self._clock = [[0] * num_procs for _ in range(num_procs)]
        # Golden model: rank -> dst -> set of region keys written since
        # the rank's last fence to dst.
        self._outstanding: list[dict[int, set]] = [{} for _ in range(num_procs)]
        # Race detector: dst -> list of Accesses not yet pruned.
        self._accesses: dict[int, list[Access]] = {}
        self._access_index = 0
        # Fence certification: indices of this rank's uncertified write
        # accesses per dst (stamped certified on fence).
        self._uncertified: list[dict[int, list[Access]]] = [
            {} for _ in range(num_procs)
        ]
        self._certified: set[int] = set()  # access indices
        # Synchronization state.
        self._barrier_count = [0] * num_procs
        self._barrier_enters: dict[int, list[tuple[int, ...]]] = {}
        self._barrier_done: dict[int, int] = {}
        self._rmw_clock: dict[tuple[int, int], tuple[int, ...]] = {}
        self._seen_violations: set = set()

    # ------------------------------------------------------- clock ops

    def _tick(self, rank: int) -> tuple[int, ...]:
        clock = self._clock[rank]
        clock[rank] += 1
        return tuple(clock)

    def _join(self, rank: int, other: tuple[int, ...]) -> None:
        clock = self._clock[rank]
        for i, v in enumerate(other):
            if v > clock[i]:
                clock[i] = v

    def _flag(self, kind: str, rank: int, dst: int, detail: str, dedup) -> None:
        if dedup in self._seen_violations:
            return
        self._seen_violations.add(dedup)
        self.report.violations.append(Violation(kind, rank, dst, detail))
        if kind == "missed_fence":
            self.report.missed_fences += 1
        elif kind == "data_race":
            self.report.data_races += 1
        elif kind == "unfenced_sync":
            self.report.unfenced_syncs += 1

    # ------------------------------------------------- data movement

    def on_write(
        self, rank: int, dst: int, key, lo: int, nbytes: int, op: str
    ) -> None:
        clock = self._tick(rank)
        self._outstanding[rank].setdefault(dst, set()).add(key)
        kind = "a" if op == "acc" else "w"
        acc = Access(rank, dst, lo, lo + nbytes, kind, op, clock, self._access_index)
        self._access_index += 1
        self._check_races(acc)
        self._accesses.setdefault(dst, []).append(acc)
        self._uncertified[rank].setdefault(dst, []).append(acc)

    def on_read(
        self, rank: int, dst: int, key, lo: int, nbytes: int, op: str
    ) -> None:
        clock = self._tick(rank)
        acc = Access(rank, dst, lo, lo + nbytes, "r", op, clock, self._access_index)
        self._access_index += 1
        self._check_races(acc)
        self._accesses.setdefault(dst, []).append(acc)

    def _conflicts(self, a: Access, b: Access) -> bool:
        if a.rank == b.rank:
            return False
        if a.lo >= b.hi or b.lo >= a.hi:
            return False  # disjoint byte ranges
        if a.kind == "r" and b.kind == "r":
            return False
        if a.kind == "a" and b.kind == "a":
            return False  # accumulates commute
        return True

    def _check_races(self, new: Access) -> None:
        for old in self._accesses.get(new.dst, ()):  # new not yet stored
            if not self._conflicts(new, old):
                continue
            ordered = _leq(old.clock, new.clock) or _leq(new.clock, old.clock)
            if not ordered:
                self._flag(
                    "data_race",
                    new.rank,
                    new.dst,
                    f"{old.op} by r{old.rank} [{old.lo},{old.hi}) races "
                    f"{new.op} by r{new.rank} [{new.lo},{new.hi}) on r{new.dst}",
                    ("race", old.index, new.index),
                )
            else:
                first = old if _leq(old.clock, new.clock) else new
                if first.kind in ("w", "a") and first.index not in self._certified:
                    self._flag(
                        "unfenced_sync",
                        new.rank,
                        new.dst,
                        f"{first.op} by r{first.rank} [{first.lo},{first.hi}) "
                        f"ordered before a conflicting access only by "
                        f"synchronization, never fence-certified",
                        ("unfenced", first.index),
                    )

    # --------------------------------------------------------- fences

    def on_fence_decision(self, rank: int, dst: int, key, fenced: bool) -> None:
        required = key in self._outstanding[rank].get(dst, ())
        if required and fenced:
            self.report.required_fences += 1
        elif required and not fenced:
            self._flag(
                "missed_fence",
                rank,
                dst,
                f"get of region {key} on r{dst} with an outstanding write to "
                f"that region, tracker skipped the fence",
                ("missed", rank, dst, key, self._access_index),
            )
        elif fenced:
            self.report.false_positive_fences += 1
        else:
            self.report.clean_skips += 1

    def on_fence(self, rank: int, dst: int) -> None:
        self._tick(rank)
        self._outstanding[rank].pop(dst, None)
        for acc in self._uncertified[rank].pop(dst, ()):
            self._certified.add(acc.index)

    # -------------------------------------------------------- barriers

    def on_barrier_enter(self, rank: int) -> None:
        gen = self._barrier_count[rank]
        self._barrier_enters.setdefault(gen, []).append(self._tick(rank))

    def on_barrier_exit(self, rank: int) -> None:
        gen = self._barrier_count[rank]
        self._barrier_count[rank] += 1
        for entered in self._barrier_enters.get(gen, ()):
            self._join(rank, entered)
        self._tick(rank)
        done = self._barrier_done.get(gen, 0) + 1
        self._barrier_done[gen] = done
        if done == self.num_procs:
            self._prune(gen)

    def _prune(self, gen: int) -> None:
        """Drop accesses ordered before a fully-exited barrier generation.

        Every rank joined the generation's merged enter clock, so any
        later access is happens-after these — races involving them were
        already checked incrementally. Keeps the pairwise race check
        linear in per-epoch traffic instead of quadratic in run length.
        """
        enters = self._barrier_enters.pop(gen, [])
        self._barrier_done.pop(gen, None)
        if len(enters) < self.num_procs:
            return
        floor = tuple(max(vals) for vals in zip(*enters))
        for dst, accs in self._accesses.items():
            # Uncertified writes stay alive: the barrier orders them,
            # but only a fence certifies them.
            self._accesses[dst] = [
                a
                for a in accs
                if not _leq(a.clock, floor)
                or (a.kind in ("w", "a") and a.index not in self._certified)
            ]

    # ------------------------------------------------------------ rmw

    def on_rmw(self, rank: int, dst: int, addr: int) -> None:
        # Read-modify-writes to one cell are serialized by the target's
        # progress engine: each one is release-acquire ordered after the
        # previous (the load-balance counter's correctness argument).
        prev = self._rmw_clock.get((dst, addr))
        if prev is not None:
            self._join(rank, prev)
        self._rmw_clock[(dst, addr)] = self._tick(rank)

    # ------------------------------------------------------ target side

    def on_am_service(self, rank: int, dispatch_id: int, src: int) -> None:
        name = DISPATCH_NAMES.get(dispatch_id, f"dispatch_{dispatch_id}")
        self.report.service_log.append((rank, name, src))


def attach_oracle(job: "ArmciJob") -> HappensBeforeOracle:
    """Create an oracle and install it as every rank's observer."""
    oracle = HappensBeforeOracle(job.num_procs)
    for rt in job.processes:
        rt.observer = oracle
    return oracle
