"""The one-customer rule (DESIGN §3): the static half of ``tools/reach.py``.

The measured half — every customer run under the profiler — is the CI
suite ``reach`` (``python tools/reach.py --check``, minutes). What tier-1
holds is everything that needs no run: the keep file is well-formed and
not stale, the deleted modules stay deleted, no config option is left
that nothing assigns, and the profiler hook sees what it should.
"""

import dataclasses
import fnmatch
import importlib
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import reach  # noqa: E402


@pytest.fixture(scope="module")
def known():
    return reach.functions(REPO)


class TestOneCustomerRule:
    def test_every_keep_line_is_well_formed_and_matches_a_function(self, known):
        names = {name for name, _lines in known.values()}
        rows = reach.keep_lines()
        assert rows, "tools/reach_keep.txt is empty"
        for row in rows:
            assert len(row) == 3, f"not `pattern category reason`: {row}"
            pattern, category, reason = row
            assert category in reach.CATEGORIES, row
            assert len(reason.split()) >= 3, f"no reason a reviewer can check: {row}"
            assert fnmatch.filter(names, pattern), f"stale keep (matches nothing): {pattern}"

    @pytest.mark.parametrize(
        "module", ["repro.apps.transport", "repro.machine.node", "repro.util.stats"]
    )
    def test_deleted_modules_do_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_deleted_options_and_extras_stay_deleted(self):
        from repro.gax import BlockDistribution, GlobalArray
        from repro.recover import RecoveryConfig

        assert "mode" not in {f.name for f in dataclasses.fields(RecoveryConfig)}
        assert not hasattr(BlockDistribution, "from_bounds")
        assert not hasattr(GlobalArray, "symmetrize")

    def test_every_config_option_is_assigned_by_something(self):
        fields = reach.options(REPO)
        assert len(fields) > 50, "the options census lost the config classes"
        assert [name for name, trees in fields.items() if not trees] == []

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
        assert "repro.verify.fuzz.target_lock" not in entered
        assert "repro.verify.fuzz.target_lock" in {name for name, _l in known.values()}
