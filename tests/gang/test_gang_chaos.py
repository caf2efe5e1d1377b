"""Gangs under chaos: fault storms, worker kills, gateway failover.

Gang execution must never weaken the self-healing ladder: devices with
live CSB faults are ineligible and heal sequentially, a worker killed
mid-gang strands the whole batch onto survivors, and a gateway retries
gang orphans exactly like single-request orphans. Everything here
compares against the equivalent fault-free or gang-free run.
"""

import asyncio

import numpy as np
import pytest

from repro.engine.system import CAPEConfig
from repro.faults import FaultPlan, WorkerKill
from repro.obs import Observer
from repro.runtime import ExecConfig
from repro.runtime.job import Footprint, Job
from repro.runtime.pool import DevicePool
from repro.serve import Gateway, JobSpec, ServeConfig, ServePool

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes
TINY = CAPEConfig(name="tiny", num_chains=64)

pytestmark = pytest.mark.slow


def make_jobs(n=30):
    """Bit-plane jobs with a gang-friendly shape (no per-job scalars)."""
    jobs = []
    for i in range(n):
        rng = np.random.default_rng(2000 + i)
        data = rng.integers(0, 1 << 20, size=64).astype(np.int64)

        def body(system, data=data):
            system.memory.write_words(0x1000, data)
            system.vsetvl(64)
            system.vle(1, 0x1000)
            system.vadd(2, 1, 1)
            system.vmul(3, 2, 1)
            return int(system.vredsum(3, signed=False))

        golden = int((2 * data * data).sum())
        jobs.append(
            Job(f"job{i:02d}", body, Footprint(lanes=64, resident=True),
                golden=golden, backend="bitplane")
        )
    return jobs


def run_stream(gang, fault_plan=None, observer=None):
    pool = DevicePool(
        (NANO, NANO, NANO),
        memory_bytes=1 << 26,
        fault_plan=fault_plan,
        observer=observer,
        failure_threshold=2,
        quarantine_cycles=2_000.0,
        retry_backoff_cycles=300.0,
        max_retries=4,
        exec=ExecConfig(gang=gang),
    )
    jobs = pool.submit_stream(make_jobs(), interarrival_cycles=40.0)
    report = pool.run(max_events=100_000)
    return pool, jobs, report


def fingerprint(jobs, report):
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


def chaos_plan():
    return FaultPlan.chaos(seed=0xCA9E, devices=3, kill_cycle=3_000.0)


class TestDevicePoolChaos:
    def test_chaos_stream_identical_with_gangs_enabled(self):
        """The full seeded storm with gang=True: faulty devices drop to
        the sequential healing ladder (ineligible, never ganged), and
        every observable matches the gang=False replay of the same
        storm."""
        _, seq_jobs, seq_report = run_stream(False, fault_plan=chaos_plan())
        obs = Observer()
        _, jobs, report = run_stream(
            True, fault_plan=chaos_plan(), observer=obs
        )
        assert fingerprint(jobs, report) == fingerprint(seq_jobs, seq_report)
        # Whatever the storm failed, it failed identically in both runs;
        # everything else completed.
        assert report.completed + report.failed == len(jobs)
        # The storm gated some members out of gangs...
        assert obs.metrics.total("gang.miss", reason="faults") > 0
        # ...but healthy devices kept ganging through it.
        assert obs.metrics.total("gang.hit") > 0

    def test_fault_free_gang_stream_matches_sequential(self):
        _, seq_jobs, seq_report = run_stream(False)
        _, jobs, report = run_stream(True)
        assert fingerprint(jobs, report) == fingerprint(seq_jobs, seq_report)


class TestServePoolGangHealing:
    def _specs(self, n=12):
        return [
            JobSpec(
                f"dot{i}", "dot",
                {"x": np.arange(16) + i, "y": np.arange(16) + 1},
                lanes=16,
            )
            for i in range(n)
        ]

    def _run(self, fault_plan=None, gang=True, workers=3):
        pool = ServePool(
            [TINY, TINY, TINY], backend="bitplane", fault_plan=fault_plan,
            exec=ExecConfig(workers=workers, gang=gang),
        )
        jobs = pool.submit_specs(self._specs(), interarrival_cycles=10.0)
        report = pool.run()
        return pool, jobs, report

    def test_worker_kill_mid_gang_completes_all_jobs(self):
        """A worker dies *before executing* a gang batch it was sent:
        the whole batch fails over like a crash and re-places on the
        survivors, outputs identical to the fault-free run."""
        _, ref_jobs, _ = self._run()
        plan = FaultPlan(faults=(WorkerKill(at_job=2, worker=1),))
        pool, jobs, _ = self._run(fault_plan=plan)
        assert all(j.result is not None for j in jobs)
        assert {j.name: j.result.output for j in jobs} == {
            j.name: j.result.output for j in ref_jobs
        }
        dead = [d for d in pool.devices if d.health.state.name == "DEAD"]
        assert [d.device_id for d in dead] == [1]


class TestGatewayGang:
    def _spec(self, name, i):
        return JobSpec(
            name, "dot", {"x": np.arange(8) + i, "y": np.arange(8)}, lanes=8
        )

    def _golden(self, i):
        return int(((np.arange(8) + i) * np.arange(8)).sum())

    def test_gateway_gang_results_match_gang_free(self):
        def serve_all(gang, observer=None):
            async def main():
                cfg = ServeConfig(configs=(TINY, TINY), backend="bitplane")
                exec_config = ExecConfig(workers=2, gang=gang)
                async with Gateway(
                    cfg, observer=observer, exec=exec_config
                ) as gw:
                    return await asyncio.gather(
                        *(gw.submit_retrying(self._spec(f"r{i}", i))
                          for i in range(10))
                    )

            return asyncio.run(main())

        obs = Observer()
        ganged = serve_all(True, observer=obs)
        plain = serve_all(False)
        assert [r.output for r in ganged] == [r.output for r in plain]
        assert [r.output for r in ganged] == [
            self._golden(i) for i in range(10)
        ]
        assert obs.metrics.total("gang.hit") == 10

    def test_gateway_gang_worker_death_retries_orphans(self):
        # Worker 0 dies on its first job: the first request always goes
        # to device 0, so the kill cannot miss however fast worker 1
        # drains the rest.
        async def main():
            cfg = ServeConfig(
                configs=(TINY, TINY), backend="bitplane",
                fault_plan=FaultPlan(faults=(WorkerKill(at_job=1, worker=0),)),
            )
            exec_config = ExecConfig(workers=2, gang=True)
            async with Gateway(cfg, exec=exec_config) as gw:
                results = await asyncio.gather(
                    *(gw.submit_retrying(self._spec(f"r{i}", i))
                      for i in range(8))
                )
                return results, gw.report()

        results, report = asyncio.run(main())
        assert [r.output for r in results] == [
            self._golden(i) for i in range(8)
        ]
        assert report.worker_deaths == 1
        assert report.retries >= 1
