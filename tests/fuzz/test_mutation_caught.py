"""Oracle self-test: a deliberately broken tracker must be caught, and
the shrinker must reduce failures to a minimal divergence log.

The mutants are fixtures, not product code: each monkeypatches one
:class:`~repro.armci.consistency.CsMrTracker` method for one test, so a
fuzz target run on the default ``cs_mr`` tracker exercises the full
production path — config validation, ``make_tracker``, every op site —
with one seeded defect the oracle must flag.
"""

import os

import pytest

from repro.armci.consistency import CsMrTracker
from repro.sim.engine import Engine, RandomTieBreakPolicy
from repro.verify import (
    FuzzResult,
    shrink_seed,
    target_strided,
    write_divergence_log,
)


@pytest.fixture
def broken_on_write(monkeypatch):
    """Mutant: ``cs_mr`` never records writes, so no get ever fences.

    Every get that follows an outstanding write to the same region is a
    missed fence the oracle must report.
    """

    def on_write(self, dst, key):
        self._check_key(key)  # keep the key-validation behaviour

    monkeypatch.setattr(CsMrTracker, "on_write", on_write)


@pytest.fixture
def broken_fence(monkeypatch):
    """Mutant: ``cs_mr`` fences never clear write status.

    Sound but pessimal — every region written once fences forever. The
    oracle reports these as false-positive fences, never as missed
    fences: the overhead/correctness distinction the counters encode.
    """
    monkeypatch.setattr(CsMrTracker, "on_fence", lambda self, dst: None)


class TestMutantCaught:
    def test_broken_on_write_caught_within_25_seeds(self, broken_on_write, tmp_path):
        caught = None
        for seed in range(25):
            r = target_strided(seed)
            if not r.ok:
                caught = (seed, r)
                break
        assert caught is not None, "mutant survived 25 seeds"
        seed, r = caught
        assert r.oracle.report.missed_fences > 0
        # Shrink the failure and emit the divergence artifact.
        shrunk = shrink_seed(target_strided, seed)
        path = write_divergence_log(shrunk.log, str(tmp_path))
        assert os.path.exists(path)
        text = open(path).read()
        assert "missed_fence" in text
        assert f"seed:          {seed}" in text

    def test_broken_fence_is_overhead_not_error(self, broken_fence):
        # The over-fencing mutant must never produce a missed fence —
        # the oracle distinguishes pessimal from broken.
        r = target_strided(0)
        rep = r.oracle.report
        assert rep.missed_fences == 0
        assert rep.false_positive_fences > 0


def _schedule_sensitive_target(
    seed, policy="random", tracker="cs_mr", limit=None
):
    """Synthetic engine-level target: fails iff the policy reorders one
    specific pair of logically concurrent events.

    Exercises the shrinker's bisection path, which the tracker mutants
    (schedule-independent failures) never reach.
    """
    engine = Engine(policy=RandomTieBreakPolicy(seed, limit=limit))
    order = []
    for i in range(32):
        engine.schedule(1e-6, lambda _a, i=i: order.append(i))
    engine.run()
    failures = []
    if order.index(20) < order.index(4):
        failures.append("event 20 overtook event 4")
    return FuzzResult(
        target="synthetic",
        seed=seed,
        policy=engine.policy.describe(),
        digest=engine.schedule_digest,
        decisions=engine.policy._issued,
        counters={},
        oracle=None,
        failures=failures,
    )


class TestShrinker:
    def test_bisects_schedule_dependent_failure(self):
        failing_seed = next(
            s for s in range(200) if not _schedule_sensitive_target(s).ok
        )
        shrunk = shrink_seed(_schedule_sensitive_target, failing_seed)
        assert not shrunk.failing.ok
        assert 0 < shrunk.minimal_limit <= shrunk.failing.decisions
        # Minimality: one decision fewer passes.
        assert shrunk.passing is not None and shrunk.passing.ok
        assert shrunk.log.render()  # renders without a service log

    def test_shrink_rejects_passing_seed(self):
        passing_seed = next(
            s for s in range(200) if _schedule_sensitive_target(s).ok
        )
        with pytest.raises(ValueError):
            shrink_seed(_schedule_sensitive_target, passing_seed)

    def test_schedule_independent_failure_reports_limit_zero(self, broken_on_write):
        shrunk = shrink_seed(target_strided, 0)
        assert shrunk.minimal_limit == 0
        assert shrunk.passing is None
        assert "schedule-independent" in shrunk.log.note
