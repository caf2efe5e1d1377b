"""Serving live traffic through the process-sharded asyncio gateway.

Where ``serving_pool.py`` replays a recorded job stream deterministically
under the simulated clock, this example serves *live* requests on the
wall clock through ``repro.serve``: four devices sharded across worker
processes behind an asyncio :class:`~repro.api.Gateway`.

Three tenants share the pool. ``batch`` has deep quota but no lane cap;
``interactive`` is capped tighter; ``abusive`` floods the gateway past
its queue bound and gets shed with ``retry_after_s`` hints instead of
degrading the others. Every request is a picklable
:class:`~repro.api.JobSpec` naming a registered kernel — including
``match_count``, the content-addressable search the substrate is named
for — and every output is checked against its numpy golden.

With ``--kill-worker`` a seeded :class:`~repro.api.WorkerKill` crashes
worker 0 mid-serving (a hard ``os._exit``, no goodbye): the gateway
retires its devices, re-queues the in-flight requests onto survivors,
and still completes every well-behaved request.

Run:  python examples/serving_gateway.py [--kill-worker] [--workers N]
"""

import argparse
import asyncio

import numpy as np

from repro.api import (
    AdmissionError,
    CAPE32K,
    ExecConfig,
    FaultPlan,
    Gateway,
    JobSpec,
    ServeConfig,
    TenantQuota,
    WorkerKill,
)


def make_specs(tenant, count, offset=0):
    specs = []
    for i in range(count):
        base = np.arange(32) + offset + i
        if i % 3 == 0:
            specs.append(JobSpec(
                f"{tenant}-dot{i}", "dot",
                {"x": base, "y": np.arange(32) + 1},
                lanes=32, tenant=tenant,
                golden=int((base * (np.arange(32) + 1)).sum()),
            ))
        elif i % 3 == 1:
            specs.append(JobSpec(
                f"{tenant}-match{i}", "match_count",
                {"data": base % 11, "needle": i % 11},
                lanes=32, tenant=tenant,
                golden=int((base % 11 == i % 11).sum()),
            ))
        else:
            specs.append(JobSpec(
                f"{tenant}-saxpy{i}", "saxpy_sum",
                {"x": base, "y": np.arange(32), "a": 2},
                lanes=32, tenant=tenant,
                golden=int((2 * base + np.arange(32)).sum()),
            ))
    return specs


async def well_behaved(gateway, specs):
    """Honour retry_after_s — the cooperating-client loop."""
    return await asyncio.gather(
        *(gateway.submit_retrying(spec, attempts=60) for spec in specs)
    )


async def abusive(gateway, specs):
    """Fire everything at once, never back off; count the shed."""
    served, shed = 0, 0
    futures = []
    for spec in specs:
        try:
            futures.append(gateway.submit_nowait(spec))
        except AdmissionError:
            shed += 1
    for result in await asyncio.gather(*futures, return_exceptions=True):
        served += not isinstance(result, Exception)
    return served, shed


async def main(args):
    fault_plan = None
    if args.kill_worker:
        fault_plan = FaultPlan(faults=(WorkerKill(at_job=3, worker=0),))
    config = ServeConfig(
        configs=(CAPE32K,) * 4,
        max_queue=12,
        quotas={
            "interactive": TenantQuota(max_pending=4, max_lanes=50_000),
            "batch": TenantQuota(max_pending=16),
        },
        fault_plan=fault_plan,
    )
    # The execution shape: worker processes, and (by default) workers
    # fuse each kernel's microcode into one cached superplan where
    # eligible; fault-plan targets keep the per-primitive path.
    exec_config = ExecConfig(workers=args.workers)
    async with Gateway(config, exec=exec_config) as gateway:
        batch = asyncio.create_task(
            well_behaved(gateway, make_specs("batch", 12))
        )
        interactive = asyncio.create_task(
            well_behaved(gateway, make_specs("interactive", 8, offset=100))
        )
        abuse = asyncio.create_task(
            abusive(gateway, make_specs("abusive", 40, offset=500))
        )
        batch_results = await batch
        interactive_results = await interactive
        abusive_served, abusive_shed = await abuse
        report = gateway.report()

    for result in (*batch_results, *interactive_results):
        assert result.ok and result.validated, result
    print("tenant          served  validated")
    print(f"batch           {len(batch_results):6d}  all golden-checked")
    print(f"interactive     {len(interactive_results):6d}  all golden-checked")
    print(f"abusive         {abusive_served:6d}  ({abusive_shed} shed at admission)")
    print()
    summary = report.as_dict()
    print(f"gateway: {summary['completed']} completed, "
          f"{summary['rejected']} rejected "
          f"({summary['rejected_queue_full']} queue-full, "
          f"{summary['rejected_quota']} quota), "
          f"p50 {summary['p50_latency_s'] * 1e3:.1f} ms, "
          f"p99 {summary['p99_latency_s'] * 1e3:.1f} ms")
    if args.kill_worker:
        print(f"worker deaths: {summary['worker_deaths']} "
              f"(devices failed over, {summary['retries']} re-queued "
              f"requests)")
        assert summary["worker_deaths"] == 1
    per_worker = ", ".join(
        f"worker {w}: {c['hits']}h/{c['misses']}m"
        for w, c in sorted(summary["plan_cache"].items())
    )
    print(f"per-process plan caches: {per_worker}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--kill-worker", action="store_true",
        help="crash worker 0 mid-serving and fail over",
    )
    asyncio.run(main(parser.parse_args()))
