"""Gateway: admission, quotas, backpressure, failover, shutdown."""

import asyncio

import numpy as np
import pytest

from repro.common.errors import (
    AdmissionError,
    ConfigError,
    QuotaExceededError,
)
from repro.engine.system import CAPEConfig
from repro.faults import FaultPlan, SlowWorker, WorkerKill
from repro.serve import (
    Gateway,
    JobSpec,
    ServeConfig,
    TenantQuota,
)

TINY = CAPEConfig(name="tiny", num_chains=64)


def dot_spec(name, i=0, tenant="default", lanes=8):
    return JobSpec(
        name, "dot", {"x": np.arange(8) + i, "y": np.arange(8)},
        lanes=lanes, tenant=tenant,
    )


def dot_golden(i=0):
    return int(((np.arange(8) + i) * np.arange(8)).sum())


def run(coro):
    return asyncio.run(coro)


class TestServing:
    def test_submit_returns_correct_results(self):
        async def main():
            async with Gateway(ServeConfig(configs=(TINY, TINY))) as gw:
                results = await asyncio.gather(
                    *(gw.submit(dot_spec(f"r{i}", i)) for i in range(8))
                )
            return results

        results = run(main())
        assert [r.output for r in results] == [dot_golden(i) for i in range(8)]
        assert all(r.ok and r.wall_s > 0 for r in results)

    def test_report_counts_and_latency_percentiles(self):
        async def main():
            async with Gateway(ServeConfig(configs=(TINY,))) as gw:
                await asyncio.gather(
                    *(gw.submit(dot_spec(f"r{i}", i)) for i in range(5))
                )
                return gw.report()

        report = run(main())
        assert report.submitted == report.completed == 5
        assert report.rejected == 0
        as_dict = report.as_dict()
        assert as_dict["p50_latency_s"] > 0
        assert as_dict["p99_latency_s"] >= as_dict["p50_latency_s"]
        assert as_dict["plan_cache"]  # per-worker snapshots rode along

    def test_per_tenant_accounting(self):
        async def main():
            async with Gateway(ServeConfig(configs=(TINY,))) as gw:
                await asyncio.gather(
                    gw.submit(dot_spec("a", tenant="acme")),
                    gw.submit(dot_spec("b", tenant="acme")),
                    gw.submit(dot_spec("c", tenant="umbrella")),
                )
                return gw.report()

        report = run(main())
        assert report.per_tenant == {"acme": 2, "umbrella": 1}

    def test_submit_before_start_raises(self):
        gateway = Gateway(ServeConfig(configs=(TINY,)))
        with pytest.raises(ConfigError, match="not started"):
            gateway.submit_nowait(dot_spec("early"))


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self):
        async def main():
            cfg = ServeConfig(configs=(TINY,), max_queue=2)
            async with Gateway(cfg) as gw:
                accepted, rejection = [], None
                for i in range(6):
                    try:
                        accepted.append(gw.submit_nowait(dot_spec(f"r{i}", i)))
                    except AdmissionError as exc:
                        rejection = exc
                await asyncio.gather(*accepted)
                return len(accepted), rejection

        n_accepted, rejection = run(main())
        assert n_accepted == 2
        assert rejection is not None and rejection.reason == "queue_full"
        assert rejection.retry_after_s is not None
        assert rejection.retry_after_s > 0

    def test_retrying_client_completes_past_shedding(self):
        async def main():
            cfg = ServeConfig(
                configs=(TINY,), max_queue=2, retry_after_s=0.005
            )
            async with Gateway(cfg) as gw:
                results = await asyncio.gather(
                    *(
                        gw.submit_retrying(dot_spec(f"r{i}", i), attempts=50)
                        for i in range(8)
                    )
                )
                return results, gw.report()

        results, report = run(main())
        assert [r.output for r in results] == [dot_golden(i) for i in range(8)]
        assert report.completed == 8

    def test_retry_hint_backs_off_before_the_first_reply(self):
        """Until a request completes, the hint follows the oldest
        in-flight request's age: callers shed while the first reply is
        slow back off instead of spending every retry at the floor."""
        plan = FaultPlan(faults=(SlowWorker(delay_s=0.5, at_jobs=(1,)),))

        async def main():
            cfg = ServeConfig(
                configs=(TINY,), max_queue=2,
                retry_after_s=0.005, fault_plan=plan,
            )
            async with Gateway(cfg) as gw:
                return await asyncio.gather(
                    *(
                        gw.submit_retrying(dot_spec(f"r{i}", i), attempts=50)
                        for i in range(8)
                    ),
                    return_exceptions=True,
                )

        results = run(main())
        failed = [r for r in results if isinstance(r, BaseException)]
        assert not failed, failed
        assert [r.output for r in results] == [dot_golden(i) for i in range(8)]

    def test_closed_gateway_rejects(self):
        async def main():
            async with Gateway(ServeConfig(configs=(TINY,))) as gw:
                await gw.submit(dot_spec("one"))
                await gw.drain()
                with pytest.raises(AdmissionError, match="draining"):
                    gw.submit_nowait(dot_spec("late"))

        run(main())


class TestQuotas:
    def test_pending_quota_rejects_excess(self):
        async def main():
            cfg = ServeConfig(
                configs=(TINY,),
                default_quota=TenantQuota(max_pending=2),
            )
            async with Gateway(cfg) as gw:
                accepted = [gw.submit_nowait(dot_spec(f"r{i}", i)) for i in range(2)]
                with pytest.raises(QuotaExceededError) as excinfo:
                    gw.submit_nowait(dot_spec("over"))
                await asyncio.gather(*accepted)
                # Quota released on completion: admission works again.
                await gw.submit(dot_spec("after"))
                return excinfo.value, gw.report()

        exc, report = run(main())
        assert exc.tenant == "default" and exc.reason == "quota"
        assert report.rejected_quota == 1
        assert report.completed == 3

    def test_lane_quota_uses_footprints(self):
        async def main():
            cfg = ServeConfig(
                configs=(TINY,),
                default_quota=TenantQuota(max_pending=10, max_lanes=100),
            )
            async with Gateway(cfg) as gw:
                first = gw.submit_nowait(dot_spec("big", lanes=64))
                with pytest.raises(QuotaExceededError, match="lanes"):
                    gw.submit_nowait(dot_spec("too-big", lanes=64))
                await first

        run(main())

    def test_quotas_are_per_tenant(self):
        async def main():
            cfg = ServeConfig(
                configs=(TINY,),
                quotas={"starved": TenantQuota(max_pending=1)},
            )
            async with Gateway(cfg) as gw:
                first = gw.submit_nowait(dot_spec("a", tenant="starved"))
                with pytest.raises(QuotaExceededError):
                    gw.submit_nowait(dot_spec("b", tenant="starved"))
                # The default-quota tenant is unaffected.
                second = gw.submit_nowait(dot_spec("c", tenant="other"))
                await asyncio.gather(first, second)

        run(main())


class TestFailover:
    def test_worker_death_retries_on_survivors(self):
        async def main():
            cfg = ServeConfig(
                configs=(TINY, TINY),
                fault_plan=FaultPlan(faults=(WorkerKill(at_job=2, worker=0),)),
            )
            async with Gateway(cfg) as gw:
                results = await asyncio.gather(
                    *(gw.submit_retrying(dot_spec(f"r{i}", i)) for i in range(8))
                )
                return results, gw.report()

        results, report = run(main())
        assert [r.output for r in results] == [dot_golden(i) for i in range(8)]
        assert report.worker_deaths == 1
        assert report.retries >= 1
        assert any(r.retries > 0 for r in results)

    def test_total_capacity_loss_fails_pending(self):
        async def main():
            cfg = ServeConfig(
                configs=(TINY,),
                fault_plan=FaultPlan(faults=(WorkerKill(at_job=1, worker=0),)),
                max_retries=1,
            )
            async with Gateway(cfg) as gw:
                futures = [gw.submit_nowait(dot_spec(f"r{i}", i)) for i in range(3)]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                return outcomes, gw.report()

        outcomes, report = run(main())
        assert all(isinstance(o, Exception) for o in outcomes)
        assert report.worker_deaths == 1
        assert report.failed == 3
