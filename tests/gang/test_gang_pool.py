"""Gang execution through the pools: identity, metrics, fallbacks.

``DevicePool(gang=...)`` routes each launch batch through
:func:`repro.gang.run_ganged`; ``ServePool`` ships gang batches to its
worker processes. Either way the contract is the one the sequential
tier defines: results, placement, telemetry, and microop totals
bit-identical to ``gang=False``.
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


def run_device_pool(specs, observer=None, configs=(TINY, TINY), **kwargs):
    pool = DevicePool(
        configs, backend="bitplane", observer=observer, **kwargs
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
        for knobs in (
            {"gang": True},
            {"gang": "auto"},
            {"exec": ExecConfig(gang=True)},
        ):
            obs = Observer()
            _, jobs, report = run_device_pool(specs, observer=obs, **knobs)
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

    def test_mid_gang_ejection_heals_through_the_sequential_path(self):
        specs = dot_specs(6)
        _, base_jobs, _ = run_device_pool(specs, gang=False)
        fired = {"count": 0}

        def hook(replay, index, kind):
            # Corrupt the first member's destination ahead of its
            # validating sync, once per pool run (first gang only).
            if kind == "sync" and replay._pending and fired["count"] == 0:
                vd = replay._pending[0]
                replay.backend.bits[0, vd, replay.member_slice(0)] ^= 1
                fired["count"] += 1

        obs = Observer()
        GangReplay.chaos_hook = hook
        try:
            _, jobs, _ = run_device_pool(specs, observer=obs, gang=True)
        finally:
            GangReplay.chaos_hook = None
        assert fired["count"] == 1
        assert result_tuples(jobs) == result_tuples(base_jobs)
        assert obs.metrics.total("gang.ejected") == 1
        assert obs.metrics.total("gang.miss", reason="ejected") == 1
        assert obs.metrics.total("gang.hit") == 5


class TestExecConfigWiring:
    def test_exec_config_sets_the_pool_knobs(self, monkeypatch):
        from repro.runtime import ThreadParallelismWarning
        import repro.runtime.pool as pool_module

        # The warning targets 1-CPU hosts: pretend to be one, and reset
        # its once-per-process latch, so the check holds on any host.
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(pool_module, "_thread_parallelism_warned", False)
        with pytest.warns(ThreadParallelismWarning):
            pool = DevicePool(
                (TINY,), exec=ExecConfig(parallelism=2, gang=True)
            )
        assert pool.gang is True
        assert pool.parallelism == 2

    def test_exec_config_defaults_to_auto_gang(self):
        pool = DevicePool((TINY,), exec=ExecConfig())
        assert pool.gang == "auto"

    def test_legacy_keywords_still_work_without_exec(self):
        pool = DevicePool((TINY,), gang=True)
        assert pool.gang is True
        assert DevicePool((TINY,)).gang is False

    def test_conflicting_knobs_are_rejected(self):
        with pytest.raises(ConfigError, match="inside ExecConfig"):
            DevicePool((TINY,), gang=True, exec=ExecConfig())
        with pytest.raises(ConfigError, match="inside ExecConfig"):
            DevicePool((TINY,), parallelism=4, exec=ExecConfig(gang=True))

    def test_bad_gang_mode_is_rejected_everywhere(self):
        with pytest.raises(ConfigError, match="gang must be"):
            DevicePool((TINY,), gang="always")
        with pytest.raises(ConfigError, match="gang must be"):
            ExecConfig(gang="always")

    def test_exec_config_validates_counts(self):
        with pytest.raises(ConfigError):
            ExecConfig(parallelism=0)
        with pytest.raises(ConfigError):
            ExecConfig(workers=0)


class TestServePoolGang:
    def test_served_gang_matches_sequential(self):
        specs = dot_specs(8)
        _, base_jobs, _ = run_device_pool(specs, gang=False)
        obs = Observer()
        pool = ServePool(
            (TINY, TINY), workers=2, backend="bitplane",
            observer=obs, gang=True,
        )
        jobs = pool.submit_specs(specs)
        pool.run()
        assert result_tuples(jobs) == result_tuples(base_jobs)
        assert obs.metrics.total("gang.hit") == 8

    def test_serve_exec_config_conflict_rejected(self):
        with pytest.raises(ConfigError, match="inside ExecConfig"):
            ServePool((TINY,), gang=True, exec=ExecConfig())
