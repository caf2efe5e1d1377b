"""The unified submission API.

``api.submit(specs, pool=...)`` must return the same answers on every
execution surface — a fresh device, an existing pool, a gateway — and
every surface must take its execution shape from one ``ExecConfig``.
"""

import warnings

import numpy as np
import pytest

from repro.api import (
    ConfigError,
    Device,
    DevicePool,
    ExecConfig,
    Gateway,
    Job,
    JobResult,
    JobSpec,
    Observer,
    ServeConfig,
    ServePool,
    submit,
)
from repro.engine.system import CAPEConfig
from repro.runtime.job import Footprint

TINY = CAPEConfig(name="tiny", num_chains=64)


def dot_spec(name, i=0):
    return JobSpec(
        name, "dot", {"x": np.arange(8) + i, "y": np.arange(8)}, lanes=8
    )


def dot_golden(i=0):
    return int(((np.arange(8) + i) * np.arange(8)).sum())


class TestSubmitSingleDevice:
    def test_single_spec_returns_a_single_result(self):
        result = submit(dot_spec("one", 3), config=TINY)
        assert isinstance(result, JobResult)
        assert result.output == dot_golden(3)
        assert result.error is None

    def test_spec_list_returns_results_in_order(self):
        results = submit([dot_spec(f"s{i}", i) for i in range(4)], config=TINY)
        assert [r.output for r in results] == [dot_golden(i) for i in range(4)]

    def test_bitplane_backend_rides_along(self):
        result = submit(dot_spec("b", 1), config=TINY, backend="bitplane")
        assert result.output == dot_golden(1)

    def test_non_spec_input_is_rejected_with_the_bridge_hint(self):
        job = Job("j", lambda system: 1, Footprint(lanes=8))
        with pytest.raises(ConfigError, match="JobSpec.from_job"):
            submit([job])


class TestSubmitPool:
    def test_pool_instance_runs_the_batch(self):
        pool = DevicePool((TINY, TINY))
        results = submit(
            [dot_spec(f"p{i}", i) for i in range(6)], pool=pool
        )
        assert [r.output for r in results] == [dot_golden(i) for i in range(6)]

    def test_gang_pool_matches_plain_pool(self):
        specs = [dot_spec(f"g{i}", i) for i in range(6)]
        plain = submit(specs, pool=DevicePool((TINY, TINY), backend="bitplane"))
        ganged = submit(
            specs,
            pool=DevicePool(
                (TINY, TINY), backend="bitplane", exec=ExecConfig(gang=True)
            ),
        )
        assert [
            (r.output, r.service_cycles, r.energy_j) for r in ganged
        ] == [(r.output, r.service_cycles, r.energy_j) for r in plain]

    def test_construction_knobs_alongside_a_pool_are_rejected(self):
        pool = DevicePool((TINY,))
        # The default ExecConfig() is what every call carries; a
        # non-default one would be ignored by the built pool: refused.
        with pytest.raises(ConfigError, match="already"):
            submit([dot_spec("x")], pool=pool, exec=ExecConfig(gang=False))
        with pytest.raises(ConfigError, match="already"):
            submit([dot_spec("x")], pool=pool, backend="bitplane")
        with pytest.raises(ConfigError, match="already"):
            submit([dot_spec("x")], pool=pool, config=TINY)
        with pytest.raises(ConfigError, match="already"):
            submit([dot_spec("x")], pool=pool, observer=Observer())

    def test_unknown_pool_type_is_rejected(self):
        with pytest.raises(ConfigError, match="pool="):
            submit([dot_spec("x")], pool=object())

    def test_reused_pool_hits_the_warm_plan_cache(self):
        observer = Observer()
        # Every device shares the process-wide plan cache.
        pool = DevicePool([TINY], backend="bitplane", observer=observer)
        # The pool publishes per-device: the series carries a device label.
        hit_counter = observer.metrics.counter("plan.cache.hit", device="tiny#0")
        first = submit([dot_spec(f"w{i}", i) for i in range(3)], pool=pool)
        hits_after_first = hit_counter.value
        second = submit([dot_spec(f"v{i}", i) for i in range(3)], pool=pool)
        assert [r.output for r in first + second] == [
            dot_golden(i) for i in range(3)
        ] * 2
        # The second batch re-uses plans the first compiled: hits rise.
        assert hit_counter.value > hits_after_first

    def test_reused_pool_continues_the_clock(self):
        pool = DevicePool([TINY])
        submit(
            [dot_spec(f"c{i}", i) for i in range(2)], pool=pool,
            interarrival_cycles=10.0,
        )
        first_end = pool.clock.now
        assert first_end > 0
        submit([dot_spec(f"d{i}", i) for i in range(2)], pool=pool)
        assert pool.clock.now >= first_end


class TestSubmitGateway:
    def test_serve_config_boots_a_gateway(self):
        results = submit(
            [dot_spec(f"r{i}", i) for i in range(5)],
            pool=ServeConfig(configs=(TINY, TINY)),
        )
        assert [r.output for r in results] == [dot_golden(i) for i in range(5)]
        assert all(isinstance(r, JobResult) for r in results)

    def test_exec_config_overrides_serve_workers_and_gang(self):
        results = submit(
            [dot_spec(f"w{i}", i) for i in range(4)],
            pool=ServeConfig(configs=(TINY, TINY), backend="bitplane"),
            exec=ExecConfig(workers=1, gang=True),
        )
        assert [r.output for r in results] == [dot_golden(i) for i in range(4)]


class TestOneExecutionShape:
    def test_every_surface_defaults_to_exec_config(self):
        """DevicePool, ServePool and Gateway take their execution shape
        from ExecConfig() when given none (no worker is started)."""
        assert DevicePool((TINY,)).exec == ExecConfig()
        assert ServePool((TINY,)).exec == ExecConfig()
        assert Gateway(ServeConfig(configs=(TINY,))).exec == ExecConfig()
        assert ExecConfig().gang == "auto" and ExecConfig().superplan is True
        # Where compiled plans are kept is not part of the shape.
        with pytest.raises(TypeError, match="plan_cache"):
            ExecConfig(plan_cache=False)

    def test_superplan_is_a_plain_bool(self):
        with pytest.raises(ConfigError, match="superplan"):
            ExecConfig(superplan="auto")

    def test_exec_must_be_an_exec_config(self):
        with pytest.raises(ConfigError, match="ExecConfig"):
            DevicePool((TINY,), exec={"gang": True})
        with pytest.raises(ConfigError, match="ExecConfig"):
            submit(dot_spec("x"), config=TINY, exec={"gang": True})


class TestBridges:
    def test_job_from_spec_round_trip(self):
        spec = dot_spec("rt", 5)
        job = Job.from_spec(spec)
        assert JobSpec.from_job(job) is spec
        device = Device(TINY)
        job.result = job.execute(device.system)
        assert job.result.output == dot_golden(5)

    def test_plain_job_becomes_a_body_spec(self):
        def body(system):
            system.vsetvl(4)
            system.vmv_vx(1, 7)
            return int(system.vredsum(1, signed=False))

        job = Job("plain", body, Footprint(lanes=4), golden=28)
        spec = JobSpec.from_job(job)
        assert spec.kernel == "__body__"
        assert spec.golden == 28
        result = submit(spec, config=TINY)
        assert result.output == 28 and result.validated

    def test_validate_callables_cannot_cross(self):
        job = Job(
            "v", lambda system: 1, Footprint(lanes=4),
            validate=lambda out: out == 1,
        )
        with pytest.raises(ConfigError, match="golden="):
            JobSpec.from_job(job)


class TestDeprecatedShims:
    def test_submit_itself_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = submit(dot_spec("quiet"), config=TINY)
        assert result.output == dot_golden(0)
