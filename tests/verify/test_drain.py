"""The shared post-drain gates can fail.

:func:`repro.verify.drain.audit_drain` backs the ``faults`` and
``fsfaults`` checks and the chaos load-generator modes, so a gate that
always passes would blind all of them at once.  After a clean in-process
drain the audit passes; a deleted committed entry, a run committed
under a skewed engine seed and a queue record for no expected job must
each be named.
"""

from repro.data import ScenarioMatrix
from repro.models.zoo import default_zoo
from repro.verify.drain import QueueRig, jobs_by_digest, recover, run_keys

TINY = ScenarioMatrix(
    name="drain",
    compositions=(("loiter",),),
    regimes=("day",),
    seeds=(3,),
    frame_budgets=(16,),
)
SPECS = ("marlin-tiny", "single:yolov7-tiny@gpu")
SEED = 1234


def drained(tmp_path):
    rig = QueueRig(
        tmp_path, default_zoo(), poll_interval=0.01, lease_duration=5.0, max_attempts=3
    )
    jobs = rig.enqueue(TINY.scenarios(), SPECS, (), SEED)
    rig.worker("w0").drain()
    return rig, jobs


def test_clean_drain_passes_and_a_deleted_entry_is_named(tmp_path):
    rig, jobs = drained(tmp_path)
    clean = rig.audit(jobs, SEED)
    assert clean.passed, clean.failures()
    assert clean.run_entries == clean.expected_entries == 2

    key = next(iter(run_keys(jobs_by_digest(jobs), rig.zoo, SEED).values()))
    rig.worker("probe").run_store.path_for(key).unlink()
    broken = rig.audit(jobs, SEED)
    assert not broken.passed
    assert broken.run_entries == 1
    assert any("1 run-store entries for 2 unique jobs" in f for f in broken.failures())
    assert any("no committed run" in m for m in broken.serial_mismatches)


def test_run_committed_under_a_skewed_seed_is_a_serial_mismatch(tmp_path, monkeypatch):
    import repro.service.worker as worker_mod

    real = worker_mod.run_policy

    def skewed(policy, trace, soc=None, engine_seed=SEED, fast=False):
        return real(policy, trace, soc=soc, engine_seed=engine_seed + 1, fast=fast)

    monkeypatch.setattr(worker_mod, "run_policy", skewed)
    rig, jobs = drained(tmp_path)
    outcome = rig.audit(jobs, SEED)
    assert outcome.run_entries == outcome.expected_entries
    assert not outcome.passed
    assert outcome.serial_mismatches
    assert all("frame records diverge from serial" in m for m in outcome.serial_mismatches)


def test_queue_record_outside_the_job_set_is_named(tmp_path):
    rig, jobs = drained(tmp_path)
    extra = jobs[1]
    outcome = rig.audit(jobs[:1], SEED)
    assert not outcome.passed
    assert outcome.foreign_jobs == [next(iter(jobs_by_digest([extra])))[:12]]
    assert any("1 queue records for no enqueued job" in f for f in outcome.failures())


def test_recover_repends_only_jobs_whose_effect_is_missing(tmp_path):
    rig, jobs = drained(tmp_path)
    keys = run_keys(jobs_by_digest(jobs), rig.zoo, SEED)
    digest, key = next(iter(keys.items()))
    rig.worker("probe").run_store.path_for(key).unlink()

    recovery = recover(rig.master, jobs, rig.run_root, rig.trace_store, rig.zoo,
                       engine_seed=SEED)
    assert recovery.repended == 1
    states = {r["job_id"]: r["state"] for r in rig.master.records()}
    assert states[digest] == "pending"
    assert sorted(states.values()) == ["done", "pending"]
    # Once healed, the audit passes again and a second pass has nothing to do.
    rig.worker("heal").drain()
    assert rig.audit(jobs, SEED).passed
    assert recover(rig.master, jobs, rig.run_root, rig.trace_store, rig.zoo,
                   engine_seed=SEED).repended == 0
