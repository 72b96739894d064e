"""The one-customer rule (DESIGN §3): the static half of ``tools/reach.py``.

The measured half — every customer run under the profiler — is the CI
suite ``reach`` (``python tools/reach.py --check``, minutes). What tier-1
holds is everything that needs no run: the keep file is well-formed and
not stale, the deleted modules stay deleted, no config option is left
that nothing assigns, and the profiler hook sees what it should. It also
holds the layering the census reports: each core layer loads only the
layers beneath it, and the paper's core imports none of its extensions.
"""

import dataclasses
import fnmatch
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import reach  # noqa: E402


#: Runtime-API keywords no call outside ``tests`` set to a second value:
#: per-call deadlines, caller-supplied handles, reduce ops, accumulate
#: scales and the rest. Their defaults are the behaviour now.
DELETED_KEYWORDS = (
    *(f"ArmciProcess.{op}.timeout" for op in (
        "put", "get", "puts", "gets", "putv", "getv", "acc", "rmw", "fence",
        "fence_all", "wait_all", "barrier", "notify_wait", "lock", "quiesce")),
    "Handle.wait.timeout",
    *(f"ArmciProcess.{op}.handle" for op in (
        "nbput", "nbget", "nbputs", "nbgets", "nbputv", "nbgetv", "nbputv_aggregated",
        "nbacc")),
    "ArmciJob.__init__.params", "ArmciJob.__init__.max_regions",
    "ArmciProcess.allreduce.op", "ArmciProcess.group_allreduce.op",
    "ArmciProcess.acc.scale", "ArmciProcess.nbacc.scale", "GlobalArray.acc.scale",
    "SharedCounter.next.stride", "DistributedTaskPool.create.fault_tolerant",
    "GlobalArray.create.grid",
)


@pytest.fixture(scope="module")
def known():
    return reach.functions(REPO)


class TestOneCustomerRule:
    def test_every_keep_line_is_well_formed_and_matches_a_function(self, known):
        names = {name for name, _lines in known.values()}
        fields = reach.options(REPO)
        rows = reach.keep_lines()
        assert rows, "tools/reach_keep.txt is empty"
        for row in rows:
            assert len(row) == 3, f"not `pattern category reason`: {row}"
            pattern, category, reason = row
            assert category in reach.CATEGORIES, row
            assert len(reason.split()) >= 3, f"no reason a reviewer can check: {row}"
            if reach.names_a_field(pattern):
                assert pattern in fields, f"stale keep (no such field): {pattern}"
                assert fields[pattern] == ["tests"], f"stale keep (has a customer): {pattern}"
            else:
                assert fnmatch.filter(names, pattern), f"stale keep (matches nothing): {pattern}"

    def test_the_option_surface_is_every_frozen_config_dataclass(self):
        classes = reach.config_classes(REPO)
        assert len(classes) == 11
        assert classes["ScfConfig"] == "repro.apps.nwchem.scf"
        assert classes["RetryPolicy"] == "repro.armci.config"
        assert "BGQParams" not in classes  # the calibrated machine model, not an option
        for name, module in classes.items():
            cls = getattr(importlib.import_module(module), name)
            assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen

    @pytest.mark.parametrize(
        "module", ["repro.apps.transport", "repro.machine.node", "repro.util.stats"]
    )
    def test_deleted_modules_do_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_deleted_options_and_extras_stay_deleted(self):
        import inspect

        from repro.apps.nwchem import ScfConfig
        from repro.apps.nwchem.tasks import fock_task_list
        from repro.armci import ArmciConfig
        from repro.armci.config import RetryPolicy
        from repro.chaos import ChaosConfig, ChaosEngine
        from repro.gax import BlockDistribution, GlobalArray
        from repro.machine.health import LinkHealthConfig
        from repro.machine.network import TorusNetwork
        from repro.pami.integrity import IntegrityConfig
        from repro.recover import RecoveryConfig
        from repro.serve.actor import ActorSystem
        from repro.serve.clients import ClientLoadConfig
        from repro.serve.kv import KvConfig
        from repro.serve.termination import FourCounterTermination
        from repro.workloads import PatternConfig

        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert names(RecoveryConfig).isdisjoint({"mode", "enabled", "max_recoveries"})
        assert names(ChaosConfig).isdisjoint({"retransmit_delay", "max_retransmits"})
        assert names(IntegrityConfig).isdisjoint({"retransmit_delay", "enabled"})
        assert names(LinkHealthConfig).isdisjoint(
            {"enabled", "suspect_after", "dead_after", "probe_period"})
        # Module constants now, or derived from another field.
        assert names(RetryPolicy).isdisjoint({"base_delay", "multiplier"})
        assert "coalesce_chunks" not in names(ArmciConfig)
        assert names(ClientLoadConfig).isdisjoint(
            {"burst_factor", "duty_cycle", "get_fraction", "acc_fraction"})
        assert names(KvConfig).isdisjoint({"poll_interval", "replicate"})
        assert names(ScfConfig).isdisjoint(
            {"screening_threshold", "diag_time_per_element", "damping", "converge_tol"})
        assert names(PatternConfig).isdisjoint({"seed", "acc_fraction"})
        assert "screening_threshold" not in inspect.signature(fock_task_list).parameters
        assert "poll_interval" not in inspect.signature(ActorSystem).parameters
        assert "poll_interval" not in inspect.signature(FourCounterTermination.create).parameters
        # One per-pair ordering map: repro.pami.ordering's.
        assert "_last_deliver" not in ChaosEngine.__slots__
        assert "_last_deliver" not in inspect.getsource(TorusNetwork)
        assert not hasattr(ChaosEngine, "ordered_deliver")
        assert not hasattr(TorusNetwork, "ordered_deliver")
        # One id for a group message: repro.armci.dispatch.GROUP_MESSAGE.
        import repro.armci.groups

        assert not hasattr(repro.armci.groups, "GROUP_MSG_ID")
        assert not hasattr(BlockDistribution, "from_bounds")
        assert not hasattr(GlobalArray, "symmetrize")
        # One owner per decision: the wire's "can this copy be perturbed"
        # is ``Delivery.at_risk``; the tracker set is one table; the
        # mutants are test fixtures; one block split; one rank-0 rig.
        import supplementary
        from repro.apps.nwchem import tasks
        from repro.armci import consistency
        from repro.pami import delivery

        assert not hasattr(delivery, "lossy")
        assert not any(
            hasattr(consistency, name)
            for name in ("register_tracker", "is_known_tracker", "known_trackers")
        )
        assert not hasattr(tasks, "_block_ranges")
        assert not hasattr(supplementary, "_rank0")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.verify.mutation")
        # One execution model: the sharded PDES runtime and the engine
        # hooks only it used are gone, and ``Engine.run`` has no horizon.
        from repro import errors
        from repro.obs.critical_path import CriticalSegment
        from repro.obs.metrics import Gauge, Histogram, MetricsRegistry
        from repro.sim.engine import Engine

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.parallel")
        assert not hasattr(Engine, "schedule_at")
        assert not hasattr(Engine, "next_event_time")
        assert list(inspect.signature(Engine.run).parameters) == ["self"]
        assert not hasattr(errors, "PdesError")
        assert {"__getstate__", "__setstate__"}.isdisjoint(vars(TorusNetwork))
        assert not any(hasattr(cls, "merge") for cls in (Gauge, Histogram, MetricsRegistry))
        assert not hasattr(CriticalSegment, "duration")
        # Only the runtime a customer enters: no notify, no ARMCI
        # mutexes, no group barrier or broadcast, no immediate AM, no
        # per-id dispatch, no spare wait commands, one oracle mode.
        import repro.sim
        import repro.verify
        from repro.armci import dispatch, groups
        from repro.armci.runtime import ArmciProcess
        from repro.pami import activemsg
        from repro.pami.client import PamiClient
        from repro.sim import primitives, process, resources
        from repro.verify import oracle

        for module in ("repro.armci.notify", "repro.armci.locks"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        assert not any(hasattr(ArmciProcess, name) for name in (
            "notify", "notify_wait", "notify_board", "lock", "unlock", "mutexes",
            "group_barrier", "group_broadcast"))
        assert not any(hasattr(groups, name) for name in ("group_barrier", "group_broadcast"))
        assert list(inspect.signature(groups._sequence).parameters) == ["rt", "group"]
        assert not any(hasattr(dispatch, name) for name in (
            "LOCK_REQUEST", "UNLOCK_REQUEST", "NOTIFY"))
        assert not hasattr(activemsg, "send_am_immediate")
        assert not hasattr(PamiClient, "register_dispatch")
        assert "_dispatch" not in PamiClient.__slots__
        for module in (repro.sim, primitives):
            assert not any(hasattr(module, name) for name in ("WaitEvent", "WaitAll"))
        assert not any(hasattr(module, "Semaphore") for module in (repro.sim, resources))
        assert {"_wait_all", "_one_of_all", "_awaited", "_pending"}.isdisjoint(
            dir(process.SimProcess))
        assert not hasattr(repro.verify, "target_lock")
        assert "lock" not in repro.verify.FUZZ_TARGETS
        assert not any(hasattr(oracle.HappensBeforeOracle, name) for name in (
            "on_lock", "on_unlock", "on_notify", "on_notify_wait"))
        assert "strict_sync" not in inspect.signature(oracle.HappensBeforeOracle).parameters
        assert "strict_sync" not in inspect.signature(oracle.attach_oracle).parameters

    def test_every_runtime_keyword_has_a_customer(self):
        """The second half of the option surface: a defaulted keyword of
        the runtime API stays only with a customer outside ``tests``
        (``reach.KEYWORDS`` names it), and the deleted ones stay deleted."""
        live = reach.keywords()
        assert len(live) == len(set(live)) == len(reach.KEYWORDS)
        assert sorted(set(live) - reach.KEYWORDS.keys()) == [], "keyword with no customer"
        assert sorted(reach.KEYWORDS.keys() - set(live)) == [], "stale KEYWORDS entry"
        assert [k for k, why in reach.KEYWORDS.items() if len(why.split()) < 3] == []
        assert set(live).isdisjoint(DELETED_KEYWORDS)

    def test_every_config_option_is_assigned_by_something(self):
        fields = reach.options(REPO)
        assert len(fields) > 50, "the options census lost the config classes"
        assert [name for name, trees in fields.items() if not trees] == []
        assert reach.unkept_options(fields, reach.keep_lines()) == ([], [])

    def test_a_keyword_passed_on_to_another_callee_sets_nothing(self, tmp_path):
        """``ActorSystem(rt, poll_interval=kv.poll_interval)`` reads the
        field; only a call to the class (or ``cls``, a classmethod or
        ``replace``) sets it."""
        (tmp_path / "src").mkdir()
        (tmp_path / "examples").mkdir()
        (tmp_path / "src" / "kv.py").write_text(
            "@dataclass(frozen=True)\n"
            "class KvConfig:\n"
            "    num_shards: int = 2\n"
            "    poll_interval: float = 2e-6\n"
            "\n"
            "    @classmethod\n"
            "    def single(cls):\n"
            "        return cls(num_shards=1)\n"
            "\n"
            "ActorSystem(rt, poll_interval=kv.poll_interval)\n"
            "FourCounterTermination.create(rt, poll_interval=kv.poll_interval)\n"
        )
        (tmp_path / "examples" / "run.py").write_text("dict(poll_interval=1e-6)\n")
        assert reach.options(tmp_path) == {"KvConfig.num_shards": ["src"],
                                           "KvConfig.poll_interval": []}

    def test_a_positional_argument_sets_the_field_in_its_place(self, tmp_path):
        """``PatternConfig(pattern, …)`` sets ``pattern``; ``*args`` sets
        nothing the census can name."""
        (tmp_path / "src").mkdir()
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "src" / "patterns.py").write_text(
            "@dataclasses.dataclass(frozen=True)\n"
            "class PatternConfig:\n"
            "    pattern: str\n"
            "    num_ops: int = 16\n"
            "    msg_size: int = 1024\n"
        )
        (tmp_path / "benchmarks" / "run.py").write_text(
            "PatternConfig('hotspot', msg_size=64)\nPatternConfig(*spec)\n"
        )
        assert reach.options(tmp_path) == {
            "PatternConfig.pattern": ["benchmarks"],
            "PatternConfig.num_ops": [],
            "PatternConfig.msg_size": ["benchmarks"],
        }

    def test_a_shared_field_name_counts_only_for_its_own_class(self, tmp_path):
        """``KvConfig.seed`` is not set by ``ChaosConfig.light(seed=1)``."""
        (tmp_path / "src").mkdir()
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "src" / "configs.py").write_text(
            "class ChaosConfig:\n"
            "    seed: int = 0\n"
            "    drop_prob: float = 0.0\n"
            "\n"
            "    @classmethod\n"
            "    def light(cls, seed=0):\n"
            "        return cls(seed=seed)\n"
            "\n"
            "class KvConfig:\n"
            "    seed: int = 0\n"
            "    keys: int = 1\n"
        )
        (tmp_path / "benchmarks" / "run.py").write_text(
            "ChaosConfig.light(seed=1)\nreplace(config, drop_prob=0.1, keys=2)\n"
        )
        assert reach.options(tmp_path) == {
            "ChaosConfig.seed": ["benchmarks"],
            "ChaosConfig.drop_prob": ["benchmarks"],
            "KvConfig.seed": [],
            "KvConfig.keys": ["benchmarks"],
        }

    def test_the_profiler_hook_sees_what_runs_and_only_that(self, known):
        from repro.armci import ArmciConfig, ArmciJob

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(16)
                yield from rt.put(1, buf, alloc.addr(1), 16)
                yield from rt.get(1, buf, alloc.addr(1), 16)
            yield from rt.barrier()

        def run():
            job = ArmciJob(2, config=ArmciConfig(), procs_per_node=1)
            job.init()
            job.run(body)

        entered = {known[site][0] for site in reach.census(run) if site in known}
        assert "repro.armci.runtime.ArmciProcess.put" in entered
        assert "repro.armci.runtime.ArmciProcess.get" in entered
        assert "repro.verify.fuzz.target_chaos" not in entered
        assert "repro.verify.fuzz.target_chaos" in {name for name, _l in known.values()}


#: A child interpreter: import the paper artifacts, run one 4-rank knobs-off
#: job per mode over every paper operation, print the repro modules loaded.
KNOBS_OFF_JOB = """
import json, sys
import repro.bench.artifacts
from repro.armci import ArmciConfig, ArmciJob
from repro.armci.vector import IoVector
from repro.types import StridedDescriptor, StridedShape

def body(rt):
    alloc = yield from rt.malloc(1024)
    peer = (rt.rank + 1) % rt.job.num_procs
    buf, remote = rt.world.space(rt.rank).allocate(1024), alloc.addr(peer)
    desc = StridedDescriptor(StridedShape(16, (4,)), (32,), (32,))
    yield from rt.put(peer, buf, remote, 64)
    yield from rt.get(peer, buf + 64, remote, 64)
    yield from rt.acc(peer, buf, remote + 128, 64)
    yield from rt.rmw(peer, remote + 256, "fetch_add", 1)
    yield from rt.puts(peer, buf, remote + 320, desc)
    yield from rt.gets(peer, buf + 512, remote + 320, desc)
    yield from rt.putv(peer, IoVector((buf, buf + 32), (remote + 512, remote + 576), (16, 16)))
    yield from rt.fence(peer)
    yield from rt.barrier()

for config in (ArmciConfig.default_mode(), ArmciConfig.async_thread_mode()):
    job = ArmciJob(4, config=config, procs_per_node=2)
    job.init()
    job.run(body)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def in_child(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter over this tree's ``src``."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("REPRO_ARMCI_BACKEND", None)  # the knobs-off backend is PAMI
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def loaded_by(modules) -> list[str]:
    """Every module a fresh interpreter holds after importing ``modules``."""
    code = f"import json, sys; import {', '.join(modules)}; print(json.dumps(sorted(sys.modules)))"
    return json.loads(in_child(code).splitlines()[-1])


#: The subpackages and extension modules outside the core's layers: each
#: must import first in a fresh interpreter, so no import cycle hides
#: behind whichever module a caller happens to load before it.
FIRST_IMPORTS = ("apps.nwchem", "bench", "chaos", "model", "obs.export", "recover", "serve",
                 "util", "verify", "workloads")


class TestLayering:
    """Each core layer cold-starts at its own floor: importing it loads no
    ``repro`` module of a layer above it, and the bottom of the stack
    (the engine, the topology, the machine) loads no numpy. The package
    root re-exports nothing (DESIGN §3)."""

    @pytest.mark.parametrize("depth", range(len(reach.LAYERS)),
                             ids=[layer[0].removeprefix("repro.") for layer in reach.LAYERS])
    def test_a_layer_loads_only_the_layers_beneath_it(self, depth):
        loaded = loaded_by(reach.LAYERS[depth])
        beneath = [m for layer in reach.LAYERS[:depth + 1] for m in layer]
        assert [m for m in loaded if m.startswith("repro.") and not reach.within(m, beneath)] == []
        if depth < reach.STDLIB:
            assert "numpy" not in loaded

    def test_the_package_root_exports_only_its_version(self):
        code = "import repro; print([n for n in vars(repro) if not n.startswith('__')])"
        assert in_child(code).strip() == "[]"

    @pytest.mark.parametrize("module", FIRST_IMPORTS)
    def test_any_subpackage_imports_first(self, module):
        assert f"repro.{module}" in loaded_by((f"repro.{module}",))


class TestOneCore:
    """The paper's subsystem neither imports nor wires its extensions:
    each attaches at its own point (``world.chaos``, ``world.integrity``,
    ``network.route_table``, ``rt.obs``, ``job.recovery``), and a job
    with every knob off loads none of them (DESIGN §3)."""

    def test_a_knobs_off_job_loads_no_extension(self):
        out = in_child(KNOBS_OFF_JOB)
        extensions = [m for modules in reach.EXTENSIONS.values() for m in modules]
        assert len(extensions) == 11
        loaded = json.loads(out.splitlines()[-1])
        assert "repro.bench.artifacts" in loaded
        assert [m for m in loaded if reach.within(m, extensions)] == []

    def test_one_fault_schedule(self):
        from repro.chaos import ChaosConfig

        assert "link_faults" not in {f.name for f in dataclasses.fields(ChaosConfig)}
