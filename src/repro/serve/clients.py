"""Open-loop client load generation for the serving workload.

Millions of *simulated clients* are multiplexed onto the job's client
ranks: each rank owns a disjoint slice of the client population and
materializes that slice's entire request schedule up front as one
structured numpy array (vectorized — the per-request Python cost that
would otherwise dominate a million-client run never exists). Arrivals
are open-loop: a request's issue time never depends on any response.

Key popularity is Zipf(``zipf_alpha``) over the shared ``num_keys``
accumulate/get key space. PUT traffic instead targets per-rank
*private* key ranges appended after the shared range — accumulates
commute (and the deltas are integer-valued, so float addition is
exact in any order) while puts do not, so giving each client rank
exclusive last-writer-wins keys is what makes the golden model
deterministic without cross-rank ordering assumptions.

Arrival processes: ``"poisson"`` (exponential gaps at the rank's share
of the aggregate ``rate``) or ``"bursty"`` — a periodic on/off
intensity (``BURST_FACTOR`` times the mean rate for ``DUTY_CYCLE`` of
each ``BURST_EPOCH``, correspondingly less in the off phase, same
long-run mean), realized exactly by inverting the integrated intensity
of a unit-rate Poisson stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArmciError
from .mailbox import KIND_ACC, KIND_GET, KIND_PUT, SLOT_DTYPE

#: Period of the bursty arrival process's on/off intensity (seconds),
#: the burst's rate over the mean, and the share of each period it lasts
#: (``BURST_FACTOR * DUTY_CYCLE <= 1``: the off phase's rate is not negative).
BURST_EPOCH = 1e-3
BURST_FACTOR = 4.0
DUTY_CYCLE = 0.25
#: Shares of GET and ACC requests; the remainder is PUT traffic.
GET_FRACTION = 0.5
ACC_FRACTION = 0.4

#: Request schedule row (superset of the mailbox slot payload fields).
REQUEST_DTYPE = np.dtype(
    [
        ("client", "<u8"),
        ("kind", "<u2"),
        ("key", "<u8"),
        ("value", "<f8"),
        ("arrival", "<f8"),
        ("deadline", "<f8"),
    ]
)


@dataclass(frozen=True)
class ClientLoadConfig:
    """Shape of the open-loop client population (see module docstring).

    ``rate`` is the aggregate offered load (requests/second of simulated
    time) across all client ranks.
    """

    num_clients: int = 1024
    requests_per_client: int = 4
    num_keys: int = 256
    put_keys_per_rank: int = 16
    zipf_alpha: float = 1.0
    rate: float = 1e6
    arrival: str = "poisson"
    deadline: float = 5e-3
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ArmciError(f"need >= 1 client, got {self.num_clients}")
        if self.requests_per_client < 1:
            raise ArmciError(
                f"need >= 1 request per client, got {self.requests_per_client}"
            )
        if self.num_keys < 1:
            raise ArmciError(f"need >= 1 key, got {self.num_keys}")
        if self.put_keys_per_rank < 1:
            raise ArmciError(
                f"need >= 1 put key per rank, got {self.put_keys_per_rank}"
            )
        if self.rate <= 0:
            raise ArmciError(f"rate must be > 0, got {self.rate}")
        if self.arrival not in ("poisson", "bursty"):
            raise ArmciError(
                f"arrival must be 'poisson' or 'bursty', got {self.arrival!r}"
            )
        if self.deadline <= 0:
            raise ArmciError(f"deadline must be > 0, got {self.deadline}")

    def total_keys(self, n_client_ranks: int) -> int:
        """Size of the whole key space including private PUT ranges."""
        return self.num_keys + n_client_ranks * self.put_keys_per_rank

    def client_slice(self, rank_index: int, n_client_ranks: int) -> tuple[int, int]:
        """This rank's ``[lo, hi)`` slice of the client population."""
        base, extra = divmod(self.num_clients, n_client_ranks)
        lo = rank_index * base + min(rank_index, extra)
        return lo, lo + base + (1 if rank_index < extra else 0)


def _rng(cfg: ClientLoadConfig, rank_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(cfg.seed * 1_000_003 + rank_index)
    )


def _zipf_keys(
    rng: np.random.Generator, n: int, num_keys: int, alpha: float
) -> np.ndarray:
    """Zipf(alpha) draws over ``[0, num_keys)`` via inverse-CDF."""
    weights = 1.0 / np.power(np.arange(1, num_keys + 1, dtype=np.float64), alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.uint64)


def _arrival_times(
    cfg: ClientLoadConfig, rng: np.random.Generator, n: int, rank_rate: float
) -> np.ndarray:
    """Sorted arrival times for ``n`` requests at this rank's rate."""
    # Unit-rate Poisson measure; arrivals are its inverse image under
    # the (integrated) intensity function.
    measure = np.cumsum(rng.exponential(1.0, n))
    if cfg.arrival == "poisson":
        return measure / rank_rate
    # Bursty: intensity r*bf during [0, d*E) of each epoch, r*rl after,
    # with d*bf + (1-d)*rl == 1 so the long-run mean stays r.
    e = BURST_EPOCH
    d = DUTY_CYCLE
    bf = BURST_FACTOR
    rl = max(0.0, (1.0 - bf * d) / (1.0 - d))
    per_epoch = rank_rate * e  # total measure accumulated per epoch
    burst_measure = rank_rate * bf * d * e
    epoch = np.floor(measure / per_epoch)
    rem = measure - epoch * per_epoch
    in_burst = rem <= burst_measure
    off = np.empty(n)
    off[in_burst] = rem[in_burst] / (rank_rate * bf)
    if rl > 0.0:
        tail = ~in_burst
        off[tail] = d * e + (rem[tail] - burst_measure) / (rank_rate * rl)
    else:
        # Degenerate off phase (rate 0): everything lands in the burst.
        off[~in_burst] = d * e
    return epoch * e + off


def generate_requests(
    cfg: ClientLoadConfig, rank_index: int, n_client_ranks: int
) -> np.ndarray:
    """The full request schedule of client rank ``rank_index``.

    Deterministic in ``(cfg.seed, rank_index)`` alone — the golden
    model regenerates identical schedules without talking to the ranks.
    Rows are sorted by arrival time.
    """
    if not 0 <= rank_index < n_client_ranks:
        raise ArmciError(
            f"rank_index {rank_index} out of range for {n_client_ranks} ranks"
        )
    lo, hi = cfg.client_slice(rank_index, n_client_ranks)
    n = (hi - lo) * cfg.requests_per_client
    out = np.zeros(n, dtype=REQUEST_DTYPE)
    if n == 0:
        return out
    rng = _rng(cfg, rank_index)
    rank_rate = cfg.rate / n_client_ranks
    # Each simulated client issues exactly requests_per_client requests;
    # the permutation interleaves the population over the timeline.
    clients = np.repeat(
        np.arange(lo, hi, dtype=np.uint64), cfg.requests_per_client
    )
    out["client"] = rng.permutation(clients)
    u = rng.random(n)
    get = u < GET_FRACTION
    acc = ~get & (u < GET_FRACTION + ACC_FRACTION)
    put = ~get & ~acc
    out["kind"][get] = KIND_GET
    out["kind"][acc] = KIND_ACC
    out["kind"][put] = KIND_PUT
    shared = _zipf_keys(rng, n, cfg.num_keys, cfg.zipf_alpha)
    out["key"] = shared
    put_lo = cfg.num_keys + rank_index * cfg.put_keys_per_rank
    out["key"][put] = put_lo + rng.integers(
        0, cfg.put_keys_per_rank, int(put.sum()), dtype=np.uint64
    )
    # Integer-valued floats: sums are exact in any delivery order.
    out["value"][acc] = rng.integers(1, 10, int(acc.sum())).astype(np.float64)
    out["value"][put] = rng.integers(0, 1000, int(put.sum())).astype(np.float64)
    out["arrival"] = _arrival_times(cfg, rng, n, rank_rate)
    out["deadline"] = out["arrival"] + cfg.deadline
    return out


def golden_state(cfg: ClientLoadConfig, n_client_ranks: int) -> np.ndarray:
    """Reference key-space state after every mutation has been applied.

    Accumulates sum (order-free by construction); puts are last-writer-
    wins in arrival order, well-defined because each rank's PUT keys are
    private to it.
    """
    state = np.zeros(cfg.total_keys(n_client_ranks))
    for idx in range(n_client_ranks):
        req = generate_requests(cfg, idx, n_client_ranks)
        acc = req["kind"] == KIND_ACC
        np.add.at(state, req["key"][acc].astype(np.intp), req["value"][acc])
        put = np.flatnonzero(req["kind"] == KIND_PUT)
        if len(put):
            # Last write per key: reverse, keep first occurrence.
            keys = req["key"][put][::-1]
            _uniq, first = np.unique(keys, return_index=True)
            winners = put[len(put) - 1 - first]
            state[req["key"][winners].astype(np.intp)] = req["value"][winners]
    return state


def shard_of(keys, num_shards: int) -> np.ndarray:
    """Stable hash shard of each key (splitmix64 finalizer mod shards)."""
    z = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(num_shards)).astype(np.int64)


def requests_to_records(req: np.ndarray) -> np.ndarray:
    """Reshape schedule rows into mailbox slot records (seq unset)."""
    rec = np.zeros(len(req), dtype=SLOT_DTYPE)
    rec["kind"] = req["kind"]
    rec["client"] = req["client"].astype(np.uint32)
    rec["key"] = req["key"]
    rec["value"] = req["value"]
    rec["arrival"] = req["arrival"]
    rec["deadline"] = req["deadline"]
    return rec
