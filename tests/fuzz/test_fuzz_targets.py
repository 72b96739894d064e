"""The schedule-exploration acceptance tests.

These are the headline checks: the five workload targets stay clean —
oracle and semantics — on every explored schedule, the harness actually
explores distinct schedules fast enough to live in CI, and the default
engine's behaviour is bit-identical to a FIFO policy.
"""

import os
import time

import pytest

from repro.verify import (
    FUZZ_TARGETS,
    explore,
    make_policy,
    shrink_seed,
    target_chaos,
    target_scf,
    target_strided,
    target_vector,
    write_divergence_log,
)

#: CI's fuzz suite widens this via the environment; the tier-1 run
#: keeps it small so the suite stays fast.
SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "5"))


def _fail_with_divergence_log(name, seed, result, policy, tracker):
    """Shrink a failing seed and persist the divergence log (CI uploads
    ``$REPRO_FUZZ_LOG_DIR`` as an artifact) before failing the test."""
    try:
        shrunk = shrink_seed(
            FUZZ_TARGETS[name], seed, policy=policy, tracker=tracker
        )
        path = write_divergence_log(shrunk.log)
    except Exception as exc:  # shrinker itself must never mask the failure
        path = f"<shrink failed: {exc}>"
    pytest.fail(
        f"{name} seed {seed} ({policy}/{tracker}): {result.failures[:3]} "
        f"— divergence log: {path}"
    )


class TestExploration:
    def test_explores_100_distinct_schedules_under_60s(self):
        t0 = time.time()
        results = explore(seeds=10)
        elapsed = time.time() - t0
        digests = {r.digest for r in results}
        failures = [f for r in results for f in r.failures]
        assert not failures, failures[:5]
        assert len(results) >= 100
        assert len(digests) >= 100, (
            f"only {len(digests)} distinct schedules in {len(results)} runs"
        )
        assert elapsed < 60.0, f"exploration took {elapsed:.1f}s"

    def test_same_seed_same_schedule(self):
        a = target_strided(3)
        b = target_strided(3)
        assert a.digest == b.digest
        assert a.counters == b.counters

    def test_different_seeds_differ(self):
        digests = {target_strided(s).digest for s in range(6)}
        assert len(digests) == 6


@pytest.mark.parametrize("name", sorted(FUZZ_TARGETS))
@pytest.mark.parametrize("policy", ["random", "pct"])
class TestTargetsClean:
    def test_cs_mr_clean(self, name, policy):
        for seed in range(SEEDS):
            r = FUZZ_TARGETS[name](seed, policy=policy, tracker="cs_mr")
            if not r.ok:
                _fail_with_divergence_log(name, seed, r, policy, "cs_mr")
            assert r.oracle.report.missed_fences == 0

    def test_cs_tgt_correct_but_overfences(self, name, policy):
        # cs_tgt must also be *correct* on every schedule — its defect is
        # overhead (false positives), never a missed fence.
        r = FUZZ_TARGETS[name](0, policy=policy, tracker="cs_tgt")
        if not r.ok:
            _fail_with_divergence_log(name, 0, r, policy, "cs_tgt")
        assert r.oracle.report.missed_fences == 0


class TestTrackerSeparation:
    def test_strided_target_separates_trackers(self):
        mr = target_strided(0)
        tgt = target_strided(0, tracker="cs_tgt")
        assert mr.oracle.report.false_positive_fences == 0
        assert tgt.oracle.report.false_positive_fences > 0
        assert (
            mr.counters["armci.fences_forced"]
            < tgt.counters["armci.fences_forced"]
        )

    def test_required_fences_still_taken_by_cs_mr(self):
        r = target_strided(0)
        assert r.oracle.report.required_fences > 0


class TestFifoEquivalence:
    def test_fifo_policy_matches_default_engine(self):
        # The explicit FIFO policy must reproduce the no-policy engine's
        # behaviour exactly — every counter identical.
        base = target_strided(0, policy="fifo")
        again = target_strided(99, policy="fifo")  # seed ignored by FIFO
        assert base.counters == again.counters
        assert base.digest == again.digest

    def test_random_limit_zero_is_fifo(self):
        fifo = target_vector(0, policy="fifo")
        limited = target_vector(0, policy="random", limit=0)
        assert limited.counters == fifo.counters

    def test_make_policy_rejects_unknown(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            make_policy("zigzag", 0)
