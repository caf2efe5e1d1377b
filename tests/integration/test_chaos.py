"""The chaos invariant: a seeded fault storm never changes the answers.

One seeded :meth:`FaultPlan.chaos` kills a device mid-stream, peppers
another with transient transfer corruption (enough to quarantine it),
plants stuck bitcells on a third, and corrupts a spill slab. A 50-job
stream over the pool must complete with results identical to a
fault-free run, the observer must show the injections and the healing,
and a second run from the same seed must replay bit-for-bit.
"""

import numpy as np
import pytest

from repro.engine.system import CAPEConfig
from repro.faults import FaultPlan
from repro.obs import Observer
from repro.runtime import ExecConfig
from repro.runtime.job import Footprint, Job, JobState, SegmentedJob
from repro.runtime.pool import DevicePool

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes

SEED = 0xCA9E
KILL_CYCLE = 3_000.0  # the doomed device dies mid-stream


def make_jobs():
    """50 fresh jobs: loads, computes, and one spill-served segmented job."""
    jobs = []
    for i in range(49):
        rng = np.random.default_rng(1000 + i)
        if i % 2 == 0:
            data = rng.integers(0, 1 << 20, size=64).astype(np.int64)

            def body(system, data=data):
                system.memory.write_words(0x1000, data)
                system.vsetvl(64)
                system.vle(1, 0x1000)
                system.vadd(2, 1, 1)
                return int(system.vredsum(2, signed=False))

            golden = int(2 * data.sum())
        else:
            k = int(rng.integers(1, 1 << 16))

            def body(system, k=k):
                system.vsetvl(32)
                system.vmv_vx(1, k)
                system.vadd(2, 1, 1)
                return int(system.vredsum(2, signed=False))

            golden = 32 * 2 * k
        # Odd jobs run on the bit-level backend, so the planted stuck
        # bitcells actually sit under live microcode.
        jobs.append(
            Job(f"job{i:02d}", body, Footprint(lanes=64, resident=True),
                golden=golden, backend="bitplane" if i % 2 else None)
        )

    # One oversized job: spill-served over several passes, so the
    # corrupted spill slab and the parity words actually engage.
    rng = np.random.default_rng(7)
    data = rng.integers(0, 1 << 16, size=400).astype(np.int64)

    def segment(system, offset, vl, pass_index):
        if pass_index == 0:
            system.memory.write_words(0x2000 + 4 * offset,
                                      data[offset:offset + vl])
            system.vle(1, 0x2000 + 4 * offset)
            system.vmv_vx(2, 0)
        system.vadd(2, 2, 1)
        if pass_index == 2:
            return int(system.vredsum(2, signed=False))

    jobs.append(
        SegmentedJob(
            "segmented",
            total_lanes=400,
            segment_body=segment,
            live_vregs=(1, 2),
            passes=3,
            finalize=sum,
            golden=int(3 * data.sum()),
        )
    )
    return jobs


def run_stream(fault_plan=None, observer=None, superplan=True):
    pool = DevicePool(
        (NANO, NANO, NANO),
        memory_bytes=1 << 26,  # room for the spill slab base
        fault_plan=fault_plan,
        observer=observer,
        failure_threshold=2,
        quarantine_cycles=2_000.0,
        retry_backoff_cycles=300.0,
        max_retries=4,
        exec=ExecConfig(superplan=superplan),
    )
    jobs = pool.submit_stream(make_jobs(), interarrival_cycles=40.0)
    report = pool.run(max_events=100_000)
    return pool, jobs, report


def chaos_plan():
    return FaultPlan.chaos(seed=SEED, devices=3, kill_cycle=KILL_CYCLE)


def test_chaos_stream_completes_identical_to_fault_free():
    _, clean_jobs, clean_report = run_stream()
    obs = Observer()
    pool, jobs, report = run_stream(fault_plan=chaos_plan(), observer=obs)

    # Every job completed, validated, with the same output as fault-free.
    assert report.completed == 50 and report.failed == 0
    assert all(j.state is JobState.DONE for j in jobs)
    clean_outputs = {j.name: j.result.output for j in clean_jobs}
    for job in jobs:
        assert job.result.output == clean_outputs[job.name], job.name

    # The storm actually happened: injections, retries, a quarantine,
    # and exactly one device death are visible in the observer.
    snapshot = obs.metrics.snapshot()

    def total(metric, kind):
        return sum(
            v for (name, labels), v in snapshot.items()
            if name == metric and ("kind", kind) in labels
        )

    assert total("faults.injected", "device_kill") == 1
    assert total("faults.injected", "transfer") > 0
    assert total("faults.injected", "stuck_bit") > 0
    assert total("faults.injected", "slab") > 0
    # The corrupted slabs were *caught* by parity, not silently restored.
    assert total("faults.detected", "spill_parity") > 0
    assert report.retries > 0
    assert obs.metrics.value("runtime.retries") == report.retries
    assert report.quarantines > 0
    assert obs.metrics.value("runtime.quarantined") == report.quarantines
    assert report.device_deaths == 1
    dead = [d for d in pool.devices if not d.health.alive]
    assert len(dead) == 1
    assert dead[0].injector.dead


def test_chaos_replays_bit_for_bit_from_the_seed():
    def fingerprint():
        _, jobs, report = run_stream(fault_plan=chaos_plan())
        return (
            [(r.name, r.state, r.attempts, r.device_id,
              r.start_cycle, r.finish_cycle) for r in report.jobs],
            report.retries,
            report.quarantines,
            report.device_deaths,
            report.makespan_cycles,
            [j.result.output for j in jobs],
        )

    assert fingerprint() == fingerprint()


def test_chaos_plan_itself_is_reproducible():
    assert chaos_plan() == chaos_plan()
    assert chaos_plan().as_dict() == chaos_plan().as_dict()


@pytest.mark.slow
def test_chaos_stream_identical_with_superplans():
    """The full storm replayed with whole-kernel superplans on and off:
    devices with attached injectors are ineligible per dispatch, so they
    keep the per-primitive fault-divergence ladder, while clean devices
    fuse their kernels — and nothing about the schedule, outputs, or
    healing ledger may move."""

    def fingerprint(**kwargs):
        _, jobs, report = run_stream(fault_plan=chaos_plan(), **kwargs)
        return (
            [(r.name, r.state, r.attempts, r.device_id,
              r.start_cycle, r.finish_cycle) for r in report.jobs],
            report.completed,
            report.failed,
            report.retries,
            report.quarantines,
            report.device_deaths,
            report.makespan_cycles,
            [j.result.output for j in jobs],
        )

    baseline = fingerprint(superplan=False)
    fused = fingerprint(superplan=True)
    assert fused == baseline
