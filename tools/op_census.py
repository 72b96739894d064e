#!/usr/bin/env python3
"""What one blocking operation costs the host, layer by layer (the foMPI
table): Python calls, bytecode instructions, generator resumes, allocated
blocks and engine entries by callback, for a blocking 16 B put + get pair
and for one ``fetch_add`` on a knobs-off 2-node job:
``python tools/op_census.py [--src OTHER_TREE/src] [--backend pami|mpi3]``.
Counts per operation; they repeat exactly. A layer is a package under
``repro/``; a builtin is charged to its caller's layer, as in the ledger.
"""

import argparse
import gc
import pathlib
import sys
from collections import Counter

N, OPS = 50, ("put+get", "fetch_add")  # operations per census; what it covers


def layer_of(filename: str) -> str:
    at = filename.rfind("/repro/")
    return filename[at + 7:].split("/", 1)[0].removesuffix(".py") if at >= 0 else "other"


class Census:
    """The counters of one traced stretch, bracketed by ``start``/``stop``."""

    def __init__(self) -> None:
        self.calls, self.opcodes, self.entries = Counter(), Counter(), Counter()
        self.resumes = self.blocks = 0

    def profile(self, frame, event, _arg) -> None:
        code, back = frame.f_code, frame.f_back
        if event in ("call", "c_call"):
            self.calls[layer_of(code.co_filename)] += 1
        if event != "call" or back is None:
            return
        self.resumes += bool(code.co_flags & 0x20)  # CO_GENERATOR
        waiter = code.co_filename.endswith("sim/process.py")
        if back.f_code.co_name == "run" and back.f_code.co_filename.endswith("engine.py"):
            arm = "WaitAny arm" if waiter and code.co_name != "_step" else code.co_name
            self.entries[arm] += 1
        elif waiter and code.co_name == "_step":
            self.entries["live arm"] += 1  # an arm that resumed its process

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


if __name__ == "__main__":
    main()
