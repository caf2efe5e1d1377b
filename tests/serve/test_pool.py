"""ServePool: deterministic bookkeeping, process execution, healing."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.engine.system import CAPEConfig
from repro.faults import DeviceKill, FaultPlan, TagFlip, WorkerKill
from repro.obs import Observer
from repro.runtime import DevicePool, ExecConfig, Footprint, Job
from repro.serve import JobSpec, ServePool

TINY = CAPEConfig(name="tiny", num_chains=64)
TINY2 = CAPEConfig(name="tiny2", num_chains=128)


def mixed_specs(n=10):
    specs = []
    for i in range(n):
        if i % 3 == 0:
            specs.append(
                JobSpec(
                    f"dot{i}", "dot",
                    {"x": np.arange(8) + i, "y": np.arange(8)}, lanes=8,
                )
            )
        elif i % 3 == 1:
            specs.append(
                JobSpec(
                    f"match{i}", "match_count",
                    {"data": np.arange(16) % 5, "needle": i % 5}, lanes=16,
                )
            )
        else:
            specs.append(
                JobSpec(
                    f"saxpy{i}", "saxpy_sum",
                    {"x": np.arange(8), "y": np.arange(8) + i, "a": 2},
                    lanes=8,
                )
            )
    return specs


def run_sequential(specs, configs, fault_plan=None, **kwargs):
    pool = DevicePool(configs, fault_plan=fault_plan, **kwargs)
    jobs = pool.submit_stream(
        [s.to_job() for s in specs], interarrival_cycles=10.0
    )
    report = pool.run()
    return pool, jobs, report


def run_served(specs, configs, workers=2, fault_plan=None, **kwargs):
    pool = ServePool(
        configs, fault_plan=fault_plan, exec=ExecConfig(workers=workers),
        **kwargs,
    )
    jobs = pool.submit_specs(specs, interarrival_cycles=10.0)
    report = pool.run()
    return pool, jobs, report


def result_tuples(jobs):
    return [
        (
            j.name,
            j.result.output,
            j.result.service_cycles,
            j.result.energy_j,
            j.result.error,
        )
        for j in jobs
    ]


class TestDeterminism:
    def test_results_bit_identical_to_sequential(self):
        specs = mixed_specs()
        _, seq_jobs, seq_report = run_sequential(specs, [TINY, TINY2])
        _, srv_jobs, srv_report = run_served(specs, [TINY, TINY2])
        assert result_tuples(srv_jobs) == result_tuples(seq_jobs)

    def test_placement_and_telemetry_identical(self):
        specs = mixed_specs()
        _, _, seq_report = run_sequential(specs, [TINY, TINY2])
        _, _, srv_report = run_served(specs, [TINY, TINY2])
        seq = seq_report.as_dict()
        srv = srv_report.as_dict()

        def strip_ids(jobs):
            # job_id is a process-global Job counter; both pools ran in
            # this test process, so it differs by construction order.
            return [
                {k: v for k, v in job.items() if k != "job_id"}
                for job in jobs
            ]

        assert strip_ids(srv["jobs"]) == strip_ids(seq["jobs"])
        assert srv["devices"] == seq["devices"]

    def test_device_fault_plan_identical_across_tiers(self):
        # A device-scoped chaos plan (transient tag flips) must corrupt
        # the same jobs in the same way in-process and cross-process.
        plan = FaultPlan(
            seed=42,
            faults=(
                TagFlip(element=0, bit=1, at_search=3, device=0),
                TagFlip(element=1, bit=0, at_search=9, device=1),
            ),
        )
        specs = mixed_specs()
        _, seq_jobs, _ = run_sequential(
            specs, [TINY, TINY2], fault_plan=plan, backend="bitplane"
        )
        _, srv_jobs, _ = run_served(
            specs, [TINY, TINY2], fault_plan=plan, backend="bitplane"
        )
        assert result_tuples(srv_jobs) == result_tuples(seq_jobs)

    def test_one_worker_matches_many(self):
        specs = mixed_specs()
        _, one_jobs, _ = run_served(specs, [TINY, TINY2], workers=1)
        _, two_jobs, _ = run_served(specs, [TINY, TINY2], workers=2)
        assert result_tuples(one_jobs) == result_tuples(two_jobs)


class TestConstruction:
    def test_reserved_kwargs_rejected(self):
        # Execution shape rides in ExecConfig only; the workers own
        # their plan caches, so there is no pool-level cache keyword.
        with pytest.raises(TypeError, match="parallelism"):
            ServePool([TINY], parallelism=4)
        with pytest.raises(TypeError, match="plan_cache"):
            ServePool([TINY], plan_cache=False)

    def test_needs_a_worker(self):
        with pytest.raises(ConfigError):
            ServePool([TINY], exec=ExecConfig(workers=0))

    def test_workers_clamped_to_devices(self):
        pool = ServePool([TINY], exec=ExecConfig(workers=8))
        assert pool.num_workers == 1

    def test_plain_job_rejected_at_execution(self):
        pool = ServePool([TINY])
        pool.submit(
            Job("opaque", body=lambda system: 1, footprint=Footprint(lanes=8))
        )
        with pytest.raises(ConfigError, match="JobSpec"):
            pool.run()


class TestPlanCache:
    def test_per_worker_caches_warm_and_hit(self):
        warm = JobSpec("warm", "vadd_sum", {"data": np.arange(8)}, lanes=8)
        specs = [
            JobSpec(f"s{i}", "vadd_sum", {"data": np.arange(8) + i}, lanes=8)
            for i in range(6)
        ]
        pool, jobs, _ = run_served(
            specs, [TINY, TINY], workers=2,
            backend="bitplane", plan_cache_warmup=[warm],
        )
        totals = pool.plan_cache_totals()
        assert set(totals["per_worker"]) == {0, 1}
        # Every served job hit the warmed cache; only the warmup missed.
        assert totals["total"]["hits"] >= len(specs)
        assert all(j.result.error is None for j in jobs)

    def test_bitplane_mirror_lives_only_in_the_workers(self):
        """The parent's devices only do bookkeeping, so they build no
        bit-level mirror; the served jobs still run on the workers'."""
        specs = [
            JobSpec(f"d{i}", "dot",
                    {"x": np.arange(8) + i, "y": np.arange(8)}, lanes=8)
            for i in range(4)
        ]
        pool, jobs, _ = run_served(
            specs, [TINY, TINY], workers=2, backend="bitplane"
        )
        assert [d.system.backend for d in pool.devices] == [None, None]
        # Only the mirror compiles plans: the workers ran it.
        assert pool.plan_cache_totals()["total"]["compiles"] > 0
        for spec, job in zip(specs, jobs):
            assert job.result.error is None
            x, y = spec.payload["x"], spec.payload["y"]
            assert job.result.output == int((x * y).sum())


class TestHealing:
    def test_worker_kill_completes_all_jobs_identically(self):
        """The acceptance path: a seeded worker kill loses a device, the
        quarantine/re-placement machinery re-runs the stranded jobs on
        survivors, and every output matches the fault-free run."""
        specs = mixed_specs(12)
        configs = [TINY, TINY2, TINY]
        _, ref_jobs, _ = run_served(specs, configs, workers=3)
        plan = FaultPlan(faults=(WorkerKill(at_job=2, worker=1),))
        pool, jobs, report = run_served(
            specs, configs, workers=3, fault_plan=plan
        )
        assert all(j.result is not None for j in jobs)
        assert {j.name: j.result.output for j in jobs} == {
            j.name: j.result.output for j in ref_jobs
        }
        dead = [d for d in pool.devices if d.health.state.name == "DEAD"]
        assert [d.device_id for d in dead] == [1]
        assert pool.worker_of[1] == 1

    def test_worker_kill_emits_observable_death(self):
        observer = Observer()
        plan = FaultPlan(faults=(WorkerKill(at_job=1, worker=0),))
        specs = mixed_specs(6)
        pool = ServePool([TINY, TINY2], fault_plan=plan, observer=observer)
        pool.submit_specs(specs, interarrival_cycles=10.0)
        pool.run()
        assert observer.metrics.counter("serve.worker_deaths").value == 1

    def test_remote_device_kill_walks_the_ladder(self):
        # DeviceKill fires inside the *worker's* injector; the death flag
        # rides the reply back and retires the pool-side device.
        plan = FaultPlan(faults=(DeviceKill(at_cycle=0.0, device=0),))
        specs = mixed_specs(8)
        pool, jobs, _ = run_served(
            specs, [TINY, TINY2], workers=2,
            fault_plan=plan, backend="bitplane",
        )
        assert pool.devices[0].health.state.name == "DEAD"
        assert all(j.result is not None and j.result.error is None for j in jobs)
