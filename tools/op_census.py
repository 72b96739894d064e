#!/usr/bin/env python3
"""What one blocking operation costs the host, layer by layer (the foMPI
table): Python calls, bytecode instructions, generator resumes, allocated
blocks and engine entries by callback, for a blocking 16 B put + get pair
and for one ``fetch_add`` on a knobs-off 2-node job; then Python calls and
numpy calls per served request on a reduced ``kv_idle`` shape; last, what
importing each core layer costs a fresh interpreter (``reach.LAYERS``):
``python tools/op_census.py [--src OTHER_TREE/src] [--backend pami|mpi3]``.
Counts per operation; they repeat exactly. A layer is a package under
``repro/``; a builtin is charged to its caller's layer, as in the ledger.

A numpy call is counted where a ``repro`` frame enters numpy: a numpy C
function or array method it calls, or a numpy Python function it calls
(the ``*_dispatcher`` half of an array function aside). What numpy calls
inside does not count, so the figure does not depend on numpy's
internals; ufunc calls and operators (indexing, arithmetic) raise no
profile event and are not counted either.
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


def is_numpy(func) -> bool:
    """Whether a C callable is numpy's (a function, or a method of a numpy object)."""
    module = getattr(func, "__module__", None) or type(getattr(func, "__self__", None)).__module__
    return module.startswith("numpy")


class Census:
    """The counters of one traced stretch, bracketed by ``start``/``stop``."""

    def __init__(self) -> None:
        self.calls, self.opcodes, self.entries = Counter(), Counter(), Counter()
        self.numpy = Counter()
        self.resumes = self.blocks = 0
        self._in_numpy = None  # the numpy C callable a repro frame is inside

    def profile(self, frame, event, arg) -> None:
        code, back = frame.f_code, frame.f_back
        if event in ("call", "c_call"):
            self.calls[layer_of(code.co_filename)] += 1
            self.count_numpy(frame, event, arg)
        elif event in ("c_return", "c_exception") and arg is self._in_numpy:
            self._in_numpy = None
        if event != "call" or back is None:
            return
        self.resumes += bool(code.co_flags & 0x20)  # CO_GENERATOR
        waiter = code.co_filename.endswith("sim/process.py")
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


def run(backend: str, mode: str) -> dict[str, Census]:
    from repro.armci import ArmciConfig, ArmciJob
    job = ArmciJob(2, config=ArmciConfig(backend=backend), procs_per_node=1)
    job.init()
    census = {op: Census() for op in OPS}

    def body(rt):
        alloc = yield from rt.malloc(256)
        if rt.rank == 0:
            buf, remote = rt.world.space(0).allocate(64), alloc.addr(1)
            for op, n in ((OPS[0], 1), (OPS[1], 1), (OPS[0], N), (OPS[1], N)):
                timed = census[op] if n == N else Census()  # first, a warm-up each
                timed.start(mode)
                for _ in range(n):
                    if op == "put+get":
                        yield from rt.put(1, buf, remote, 16)
                        yield from rt.get(1, buf + 16, remote, 16)
                    else:
                        yield from rt.rmw(1, remote + 64, "fetch_add", 1)
                timed.stop()
            yield from rt.fence_all()
        yield from rt.barrier()

    gc.disable()  # allocated blocks: what the op leaves behind, cycles included
    job.run(body)
    return census


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
    calls, opcodes, plain = (run(args.backend, m) for m in ("calls", "opcodes", "plain"))
    print(f"op census of {args.src} over {args.backend}, per operation")
    for op in OPS:
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
