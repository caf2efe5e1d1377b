"""Gang execution through the pools: identity, metrics, fallbacks.

``DevicePool(exec=ExecConfig(gang=...))`` routes each wave through
:func:`repro.gang.run_ganged`; ``ServePool`` ships gang batches to its
worker processes. Either way the contract is the one ``gang=False``
defines: results, placement, telemetry, and microop totals
bit-identical to running every job on its own device.
"""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.engine.system import CAPEConfig
from repro.gang import GangReplay
from repro.obs import Observer
from repro.runtime import DevicePool, ExecConfig
from repro.serve import JobSpec, ServePool

TINY = CAPEConfig(name="tiny", num_chains=64)

pytestmark = []


def dot_specs(n=8, lanes=8):
    return [
        JobSpec(
            f"dot{i}", "dot",
            {"x": np.arange(lanes) + i, "y": np.arange(lanes) + 1},
            lanes=lanes,
        )
        for i in range(n)
    ]


def run_device_pool(specs, observer=None, configs=(TINY, TINY), gang="auto"):
    pool = DevicePool(
        configs, backend="bitplane", observer=observer,
        exec=ExecConfig(gang=gang),
    )
    jobs = [spec.to_job() for spec in specs]
    for job in jobs:
        pool.submit(job)
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


def microops(observer):
    return {
        key: value
        for key, value in observer.metrics.snapshot().items()
        if key[0] == "csb.microops"
    }


class TestDevicePoolIdentity:
    def test_all_gang_modes_match_sequential(self):
        specs = dot_specs()
        base_obs = Observer()
        _, base_jobs, base_report = run_device_pool(
            specs, observer=base_obs, gang=False
        )
        for gang in (True, "auto"):
            obs = Observer()
            _, jobs, report = run_device_pool(specs, observer=obs, gang=gang)
            assert result_tuples(jobs) == result_tuples(base_jobs)
            assert report.makespan_cycles == base_report.makespan_cycles
            assert microops(obs) == microops(base_obs)

    def test_gang_metrics_count_every_member(self):
        obs = Observer()
        run_device_pool(dot_specs(8), observer=obs, gang=True)
        assert obs.metrics.total("gang.hit") == 8
        assert obs.metrics.total("gang.miss") == 0
        assert obs.metrics.total("gang.ejected") == 0

    def test_reference_backend_job_takes_the_sequential_path(self):
        specs = dot_specs(4)
        ref = JobSpec(
            "ref", "dot",
            {"x": np.arange(8), "y": np.arange(8) + 1},
            lanes=8, backend="reference",
        )
        obs = Observer()
        _, jobs, _ = run_device_pool(specs + [ref], observer=obs, gang=True)
        base_obs = Observer()
        _, base_jobs, _ = run_device_pool(
            specs + [ref], observer=base_obs, gang=False
        )
        assert result_tuples(jobs) == result_tuples(base_jobs)
        assert obs.metrics.total("gang.miss", reason="backend") == 1
        assert obs.metrics.total("gang.hit") == 4

    def test_auto_mode_demotes_single_device_batches(self):
        # One device => every launch batch is a singleton => "auto"
        # never gangs, but the results are the sequential results.
        specs = dot_specs(4)
        obs = Observer()
        _, jobs, _ = run_device_pool(
            specs, observer=obs, configs=(TINY,), gang="auto"
        )
        _, base_jobs, _ = run_device_pool(specs, configs=(TINY,), gang=False)
        assert result_tuples(jobs) == result_tuples(base_jobs)
        assert obs.metrics.total("gang.hit") == 0
        assert obs.metrics.total("gang.miss", reason="singleton") == 4

    @staticmethod
    def run_with_one_ejection(specs):
        """A gang pool run whose first gang ejects its first member;
        returns the jobs, the observer and how often the hook fired."""
        fired = {"count": 0}

        def hook(replay, index, kind):
            # Corrupt the first member's destination ahead of its
            # validating sync, once per pool run (first gang only).
            if kind == "sync" and replay._pending and fired["count"] == 0:
                vd = replay._pending[0].vd
                planes = replay.backend.register_planes(vd)
                planes[0, replay.member_slice(0)] ^= 1
                replay.backend.set_register_planes(vd, planes)
                fired["count"] += 1

        obs = Observer()
        GangReplay.chaos_hook = hook
        try:
            _, jobs, _ = run_device_pool(specs, observer=obs, gang=True)
        finally:
            GangReplay.chaos_hook = None
        return jobs, obs, fired["count"]

    def test_mid_gang_ejection_heals_through_the_sequential_path(self):
        specs = dot_specs(6)
        _, base_jobs, _ = run_device_pool(specs, gang=False)
        jobs, obs, fired = self.run_with_one_ejection(specs)
        assert fired == 1
        assert result_tuples(jobs) == result_tuples(base_jobs)
        assert obs.metrics.total("gang.ejected") == 1
        assert obs.metrics.total("gang.miss", reason="ejected") == 1
        assert obs.metrics.total("gang.hit") == 5

    def test_gang_size_is_observed_once_per_surviving_member(self):
        """In process as over the wire (``count_gang_outcome``), each
        ``gang.hit`` observes its gang's size once; an ejected member
        observes nothing."""
        jobs, obs, fired = self.run_with_one_ejection(dot_specs(6))
        assert fired == 1
        assert obs.metrics.total("gang.ejected") == 1
        sizes = [h for _labels, h in obs.metrics.series("gang.size")]
        assert sum(h.count for h in sizes) == obs.metrics.total("gang.hit")


class TestExecConfigWiring:
    def test_exec_config_sets_the_pool_knobs(self):
        pool = DevicePool((TINY,), exec=ExecConfig(gang=True, superplan=False))
        assert pool.exec.gang is True
        assert [d.system.superplan for d in pool.devices] == [False]

    def test_exec_config_defaults_to_auto_gang(self):
        pool = DevicePool((TINY,))
        assert pool.exec.gang == "auto"
        assert [d.system.superplan for d in pool.devices] == [True]

    def test_conflicting_knobs_are_rejected(self):
        # ExecConfig is the one execution-shape input: no per-surface
        # keyword can disagree with it.
        for knob in ("gang", "superplan", "plan_cache", "parallelism"):
            with pytest.raises(TypeError, match=knob):
                DevicePool((TINY,), **{knob: True})

    def test_bad_gang_mode_is_rejected_everywhere(self):
        with pytest.raises(ConfigError, match="gang must be"):
            ExecConfig(gang="always")

    def test_exec_config_validates_counts(self):
        with pytest.raises(ConfigError):
            ExecConfig(workers=0)


class TestServePoolGang:
    def test_served_gang_matches_sequential(self):
        specs = dot_specs(8)
        _, base_jobs, _ = run_device_pool(specs, gang=False)
        obs = Observer()
        pool = ServePool(
            (TINY, TINY), backend="bitplane", observer=obs,
            exec=ExecConfig(workers=2, gang=True),
        )
        jobs = pool.submit_specs(specs)
        pool.run()
        assert result_tuples(jobs) == result_tuples(base_jobs)
        assert obs.metrics.total("gang.hit") == 8

    def test_serve_exec_config_conflict_rejected(self):
        for knob in ("workers", "gang", "superplan", "wire"):
            with pytest.raises(TypeError, match=knob):
                ServePool((TINY,), **{knob: True})
