#!/usr/bin/env python3
"""What one blocking operation costs the host, layer by layer (the foMPI
table): Python calls, bytecode instructions, generator resumes, allocated
blocks, engine entries by callback and the generator frames a process
step resumes, for a blocking 16 B put + get pair and for one
``fetch_add`` on a knobs-off 2-node job, for the pair with obs on (its
spans, and its Python calls and bytecodes per span over the knobs-off
pair) and for the pair on the ledger's ``rma_guarded`` configuration
(chaos at a fixed seed, integrity, link health, obs and a deadline: its
spans, and the calls the span store makes per span); then the frames
per step of the 256-rank smoke Fig. 11
D run, with its most common frame chains, and its Python calls, builtin
calls and engine entries per wire op; then Python calls, builtin calls,
engine entries and frames per step per chunk of a zero-copy strided
put + get (Eq. 9's lattice) on the same knobs-off job; then
Python calls and numpy calls per served request on a reduced ``kv_idle``
shape; last, what importing each core layer costs a fresh interpreter
(``reach.LAYERS``):
``python tools/op_census.py [--src OTHER_TREE/src] [--backend pami|mpi3]``.
Counts per operation; they repeat exactly. A layer is a package under
``repro/``; a builtin is charged to its caller's layer, as in the ledger.

A numpy call is counted where a ``repro`` frame enters numpy: a numpy C
function or array method it calls, or a numpy Python function it calls
(the ``*_dispatcher`` half of an array function aside). What numpy calls
inside does not count, so the figure does not depend on numpy's
internals; ufunc calls and operators (indexing, arithmetic) raise no
profile event and are not counted either.

Bytecodes undercount what a span costs: a change to the span store that
cut ``rma_guarded``'s wall time 4.7 % moved the obs-on pair's bytecodes
per span only 194.6 -> 176.5. The store's array appends, dict probes and
tuple builds are single bytecodes whose C work varies; read a span-store
change off the ledger's ``wall_s`` pairs, with these counts beside it.
"""

import argparse
import gc
import pathlib
import statistics
import subprocess
import sys
from collections import Counter

from reach import LAYERS

N, OPS = 50, ("put+get", "fetch_add")  # operations per census; what it covers
OBS_ROW = "put+get, obs on"  # the pair again, on a job with ObsConfig(enabled=True)
#: The pair on the ledger's ``rma_guarded`` configuration, its chaos
#: injector seeded so the counts repeat.
GUARDED_ROW, GUARDED_SEED = "put+get, guarded", 2013
#: The SCF D row: ranks of the smoke Fig. 11 grid's largest D run, and
#: how many of its frame chains it prints.
SCF_PROCS, TOP_CHAINS = 256, 6
#: The ledger's reduced ``scf_d_at`` shape: ranks, ``nblocks``, ``nbf``.
SCF_REDUCED = (8, 4, 96)
#: The strided row: a zero-copy strided put + get of ``rows`` chunks of
#: ``chunk`` bytes at ``stride`` (no two chunks coalesce), run ``N`` times.
STRIDED_ROW, STRIDED_SHAPE = "strided put+get", (64, 256, 512)
#: What a wire op is: the ledger's ``pami.wire_ops``.
WIRE_OPS = ("pami.rdma_puts", "pami.rdma_gets", "pami.am_sent", "pami.rmw_posted")
#: The kv request row: a reduced ``kv_idle`` (6 ranks, 2 shards, 3 per
#: node, 2 requests per client at 0.5 M requests per simulated second),
#: run at two client counts; the difference, per extra request, leaves
#: out what set-up and the audit cost whatever the load.
KV_CLIENTS, KV_SEED = (64, 192), 2013
#: Fresh interpreters per layer in the cold-import table; it prints the median.
COLD_RUNS = 5
#: One cold import: its milliseconds, the modules it loads, how many of
#: them are ``repro``'s, and whether numpy is one.
COLD_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
    "t = time.perf_counter(); import {}; ms = (time.perf_counter() - t) * 1e3; "
    "new = set(sys.modules) - before; "
    "print(ms, len(new), sum(m.split('.')[0] == 'repro' for m in new), 'numpy' in new)"
)


def layer_of(filename: str) -> str:
    at = filename.rfind("/repro/")
    return filename[at + 7:].split("/", 1)[0].removesuffix(".py") if at >= 0 else "other"


def frames(body) -> tuple[str, ...]:
    """The generator frames a process step resumes: its body and every
    generator it delegates to by ``yield from``, outermost first."""
    chain = []
    while body is not None and hasattr(body, "gi_code"):
        chain.append(body.gi_code.co_name)
        body = body.gi_yieldfrom
    return tuple(chain)


class Frames:
    """Frames per process step: count, sum and maximum, and the chains."""

    def __init__(self) -> None:
        self.steps = self.total = self.deepest = 0
        self.chains = Counter()

    def add(self, chain: tuple[str, ...]) -> None:
        self.steps += 1
        self.total += len(chain)
        self.deepest = max(self.deepest, len(chain))
        self.chains[chain] += 1

    def __str__(self) -> str:
        return (f"frames per process step: mean {self.total / max(self.steps, 1):.3f}, "
                f"max {self.deepest}, over {self.steps} steps")


def is_numpy(func) -> bool:
    """Whether a C callable is numpy's (a function, or a method of a numpy object)."""
    module = getattr(func, "__module__", None) or type(getattr(func, "__self__", None)).__module__
    return module.startswith("numpy")


class Census:
    """The counters of one traced stretch, bracketed by ``start``/``stop``."""

    def __init__(self) -> None:
        self.calls, self.opcodes, self.entries = Counter(), Counter(), Counter()
        self.numpy = Counter()
        self.frames = Frames()
        self.resumes = self.blocks = self.spans = self.python = 0
        self.span_store = 0  # calls made in the span store's frames
        self._in_numpy = None  # the numpy C callable a repro frame is inside

    def profile(self, frame, event, arg) -> None:
        code, back = frame.f_code, frame.f_back
        if event in ("call", "c_call"):
            self.calls[layer_of(code.co_filename)] += 1
            self.span_store += code.co_filename.endswith("/repro/obs/span.py")
            self.count_numpy(frame, event, arg)
        elif event in ("c_return", "c_exception") and arg is self._in_numpy:
            self._in_numpy = None
        if event != "call":
            return
        self.python += 1
        if back is None:
            return
        self.resumes += bool(code.co_flags & 0x20)  # CO_GENERATOR
        waiter = code.co_filename.endswith("sim/process.py")
        if waiter and code.co_name == "_step":
            self.frames.add(frames(frame.f_locals["self"].body))
        if back.f_code.co_name == "run" and back.f_code.co_filename.endswith("engine.py"):
            arm = "WaitAny arm" if waiter and code.co_name != "_step" else code.co_name
            self.entries[arm] += 1
        elif waiter and code.co_name == "_step":
            self.entries["live arm"] += 1  # an arm that resumed its process

    def count_numpy(self, frame, event, arg) -> None:
        if self._in_numpy is not None:
            return  # numpy's own Python under a C method (``ndarray.sum``)
        if event == "c_call":
            if "/repro/" in frame.f_code.co_filename and is_numpy(arg):
                self.numpy[layer_of(frame.f_code.co_filename)] += 1
                self._in_numpy = arg
            return
        code, back = frame.f_code, frame.f_back
        if ("/numpy/" in code.co_filename and back is not None
                and "/repro/" in back.f_code.co_filename
                and not code.co_name.endswith("_dispatcher")):
            self.numpy[layer_of(back.f_code.co_filename)] += 1

    def trace(self, frame, event, _arg):
        frame.f_trace_opcodes = True
        self.opcodes[layer_of(frame.f_code.co_filename)] += event == "opcode"
        return self.trace

    def start(self, mode: str) -> None:
        gc.collect()
        self.blocks -= sys.getallocatedblocks()
        if mode == "calls":
            sys.setprofile(self.profile)
        elif mode == "opcodes":
            sys.settrace(self.trace)
            frame = sys._getframe(1)
            while frame is not None:  # already running: the body, the run loop
                frame.f_trace, frame.f_trace_opcodes = self.trace, True
                frame = frame.f_back

    def stop(self) -> None:
        sys.setprofile(None)
        sys.settrace(None)
        self.blocks += sys.getallocatedblocks()


def run(backend: str, mode: str, knobs: str = "off") -> dict[str, Census]:
    """The census of each of ``OPS`` with ``knobs`` ``"off"``, ``"obs"``
    (obs on) or ``"guarded"`` (the ledger's ``rma_guarded`` knobs)."""
    from repro.armci import ArmciConfig, ArmciJob, ObsConfig
    chaos, obs = None, knobs != "off"
    if knobs == "guarded":
        from repro.chaos import ChaosConfig
        from repro.machine.health import LinkHealthConfig
        from repro.pami.integrity import IntegrityConfig
        config = ArmciConfig(
            backend=backend, integrity=IntegrityConfig(), health=LinkHealthConfig(),
            obs=ObsConfig(enabled=True), default_deadline=1.0,
        )
        chaos = ChaosConfig.light(GUARDED_SEED)
    else:
        config = ArmciConfig(backend=backend, obs=ObsConfig(enabled=obs))
    job = ArmciJob(2, config=config, procs_per_node=1, chaos=chaos)
    job.init()
    census = {op: Census() for op in OPS}

    def body(rt):
        alloc = yield from rt.malloc(256)
        if rt.rank == 0:
            buf, remote = rt.world.space(0).allocate(64), alloc.addr(1)
            for op, n in ((OPS[0], 1), (OPS[1], 1), (OPS[0], N), (OPS[1], N)):
                timed = census[op] if n == N else Census()  # first, a warm-up each
                timed.spans -= len(job.obs.spans) if obs else 0
                timed.start(mode)
                for _ in range(n):
                    if op == "put+get":
                        yield from rt.put(1, buf, remote, 16)
                        yield from rt.get(1, buf + 16, remote, 16)
                    else:
                        yield from rt.rmw(1, remote + 64, "fetch_add", 1)
                timed.stop()
                timed.spans += len(job.obs.spans) if obs else 0
            yield from rt.fence_all()
        yield from rt.barrier()

    gc.disable()  # allocated blocks: what the op leaves behind, cycles included
    job.run(body)
    return census


def strided() -> tuple[Census, int, int]:
    """The census of ``N`` strided put + get pairs (``STRIDED_SHAPE``,
    after a warm-up pair) on a knobs-off 2-node job, the chunks they
    moved and the engine entries they executed."""
    from repro.armci import ArmciJob
    from repro.types import StridedDescriptor, StridedShape

    rows, chunk, stride = STRIDED_SHAPE
    desc = StridedDescriptor(StridedShape(chunk, (rows,)), (stride,), (stride,))
    job = ArmciJob(2, procs_per_node=1)
    job.init()
    census, executed = Census(), []

    def body(rt):
        alloc = yield from rt.malloc(rows * stride)
        if rt.rank == 0:
            space = rt.world.space(0)
            buf, back = space.allocate(rows * stride), space.allocate(rows * stride)
            for n in (1, N):
                timed = census if n == N else Census()
                executed.append(-rt.engine.events_executed)
                timed.start("calls")
                for _ in range(n):
                    yield from rt.puts(1, buf, alloc.addr(1), desc)
                    yield from rt.gets(1, back, alloc.addr(1), desc)
                timed.stop()
                executed[-1] += rt.engine.events_executed
            yield from rt.fence_all()
        yield from rt.barrier()

    job.run(body)
    return census, 2 * rows * N, executed[-1]


def scf_frames() -> Frames:
    """Frames per process step of the ``SCF_PROCS``-rank smoke Fig. 11 D run."""
    from repro.apps.nwchem.scf import run_scf
    from repro.armci import ArmciConfig
    from repro.bench.artifacts import FIG11_SMALL
    from repro.sim.process import SimProcess

    census, step = Frames(), SimProcess._step

    def counted(process, value):
        census.add(frames(process.body))
        return step(process, value)

    SimProcess._step = counted
    try:
        run_scf(SCF_PROCS, ArmciConfig.default_mode(), FIG11_SMALL, 16, "D")
    finally:
        SimProcess._step = step
    return census


def scf_per_wire_op(procs: int, mode: str, scf=None) -> tuple[float, float, float]:
    """Python calls, builtin calls and engine entries per wire op of one
    ``run_scf`` in ``mode`` (``"D"`` or ``"AT"``), job build included.
    ``scf`` defaults to the ledger's reduced shape at its task time."""
    from repro.apps.nwchem.scf import ScfConfig, run_scf
    from repro.armci import ArmciConfig

    if scf is None:
        _procs, nblocks, nbf = SCF_REDUCED
        scf = ScfConfig(nblocks=nblocks, nbf_override=nbf, iterations=1, task_time=2e-3)
    config = ArmciConfig.default_mode() if mode == "D" else ArmciConfig.async_thread_mode()
    jobs, calls = [], [0, 0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1
        elif event == "c_call":
            calls[1] += 1

    sys.setprofile(count)
    try:
        run_scf(procs, config, scf, on_job=jobs.append)
    finally:
        sys.setprofile(None)
    job = jobs[0]
    wire = sum(job.trace.count(name) for name in WIRE_OPS)
    return calls[0] / wire, calls[1] / wire, job.engine.events_executed / wire


def kv_request(backend: str = "pami") -> tuple[Counter, Counter]:
    """Python calls and numpy calls per served request, by layer."""
    from repro.armci import ArmciConfig
    from repro.serve import ClientLoadConfig, KvConfig, run_kv

    def serve(n):
        load = ClientLoadConfig(num_clients=n, requests_per_client=2, rate=0.5e6, seed=KV_SEED)
        return run_kv(6, load=load, kv_config=KvConfig(num_shards=2), procs_per_node=3,
                      armci_config=ArmciConfig(backend=backend))

    serve(KV_CLIENTS[0])  # a warm-up: lazy imports are not a request's cost
    sized, collecting = [], gc.isenabled()
    for n in KV_CLIENTS:
        census = Census()
        census.start("calls")
        gc.disable()  # no finalizer runs at a point the collector picks
        try:
            result = serve(n)
        finally:
            census.stop()
            if collecting:
                gc.enable()
        sized.append((result.requests, census))
    (r0, small), (r1, big) = sized

    def per_request(a: Counter, b: Counter) -> Counter:
        return Counter({k: (b[k] - a[k]) / (r1 - r0) for k in b})

    return per_request(small.calls, big.calls), per_request(small.numpy, big.numpy)


def cold_import(src: str, modules: tuple[str, ...]) -> str:
    """The table row of ``modules``: median ms of ``COLD_RUNS`` fresh imports,
    modules loaded, ``repro`` modules loaded, and whether numpy loads."""
    code = COLD_IMPORT.format(", ".join(modules))
    runs = [subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
            for _ in range(COLD_RUNS)]
    if any(run.returncode for run in runs):  # an older tree without the module
        return "does not import"
    rows = [run.stdout.split() for run in runs]
    ms = statistics.median(float(row[0]) for row in rows)
    _ms, loaded, own, numpy = rows[0]
    return f"{ms:7.1f}{int(loaded):9d}{int(own):7d}  {'yes' if numpy == 'True' else 'no'}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(pathlib.Path(__file__).parents[1] / "src"))
    ap.add_argument("--backend", default="pami")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    modes = ("calls", "opcodes", "plain")
    calls, opcodes, plain = (run(args.backend, m) for m in modes)
    for row, knobs in ((OBS_ROW, "obs"), (GUARDED_ROW, "guarded")):
        for table, on in zip((calls, opcodes, plain), (run(args.backend, m, knobs) for m in modes)):
            table[row] = on[OPS[0]]
    print(f"op census of {args.src} over {args.backend}, per operation")
    for op in (*OPS, OBS_ROW, GUARDED_ROW):
        c, o = calls[op].calls, opcodes[op].opcodes
        c["total"], o["total"] = sum(c.values()), sum(o.values())
        print(f"\n{op:<12}{'calls':>8}{'bytecodes':>11}")
        for layer in sorted(o, key=lambda k: -o[k]):
            print(f"  {layer:<10}{c[layer] / N:8.1f}{o[layer] / N:11.1f}")
        entries, live = calls[op].entries, calls[op].entries.pop("live arm", 0)
        print(f"  generator resumes {calls[op].resumes / N:.2f}, "
              f"allocated blocks left {plain[op].blocks / N:.2f}")
        print(f"  engine entries {sum(entries.values()) / N:.2f} (of the WaitAny arms, "
              f"{live / N:.2f} live): " + ", ".join(
                  f"{name} {count / N:.2f}" for name, count in entries.most_common()))
        print(f"  {calls[op].frames}")
        if op in (OBS_ROW, GUARDED_ROW):
            spans = calls[op].spans / N
            print(f"  spans per pair {spans:.2f}; span store calls per span "
                  f"{calls[op].span_store / N / spans:.2f}")
    on, off = OBS_ROW, OPS[0]
    spans = calls[on].spans / N
    python = (calls[on].python - calls[off].python) / N
    codes = (opcodes[on].opcodes["total"] - opcodes[off].opcodes["total"]) / N
    print(f"\n{on}, per span over the knobs-off pair: "
          f"{python / spans:.1f} Python calls, {codes / spans:.1f} bytecodes")
    census, chunks, entries = strided()
    python = census.python
    print(f"\n{STRIDED_ROW}, {STRIDED_SHAPE[0]} x {STRIDED_SHAPE[1]} B at stride "
          f"{STRIDED_SHAPE[2]}, per chunk: {python / chunks:.2f} Python calls, "
          f"{(sum(census.calls.values()) - python) / chunks:.2f} builtin calls, "
          f"{entries / chunks:.3f} engine entries, "
          f"{census.frames.total / max(census.frames.steps, 1) :.3f} frames per step "
          f"(max {census.frames.deepest})")
    scf = scf_frames()
    print(f"\nscf D, {SCF_PROCS} ranks (smoke Fig. 11): {scf}")
    for chain, count in scf.chains.most_common(TOP_CHAINS):
        print(f"  {count:8d}  {' > '.join(chain)}")
    from repro.bench.artifacts import FIG11_SMALL
    python, builtin, entries = scf_per_wire_op(SCF_PROCS, "D", FIG11_SMALL)
    print(f"  per wire op: {python:.1f} Python calls, {builtin:.1f} builtin calls, "
          f"{entries:.2f} engine entries")
    calls, numpy = kv_request(args.backend)
    calls["total"], numpy["total"] = sum(calls.values()), sum(numpy.values())
    print(f"\n{'kv request':<12}{'calls':>8}{'numpy':>8}")
    for layer in sorted(calls, key=lambda k: -calls[k]):
        print(f"  {layer:<10}{calls[layer]:8.1f}{numpy[layer]:8.1f}")
    print(f"\n{'cold import':<28}{'ms':>7}{'modules':>9}{'repro':>7}  numpy")
    for layer in LAYERS:
        name = " ".join(m.removeprefix("repro.") for m in layer)
        print(f"  {name:<26}{cold_import(args.src, layer)}")


if __name__ == "__main__":
    main()
