"""Serving a mixed job stream on a multi-tenant CAPE device pool.

The single-shot simulator becomes a servable engine: 22 jobs — Phoenix
applications and microbenchmarks at mixed sizes, priorities, and
deadlines — arrive over time and are sharded across three devices (two
CAPE32k, one CAPE131k). Placement is capacity-aware best-fit, queues
are reordered shortest-job-first, and idle devices steal work.

One job carries 200,000 lanes of live state — more than even CAPE131k's
131,072-lane CSB — and is served through context spill/restore: the
register file is time-shared between segments, with every spill's HBM
cycles and energy charged to the job. Every job's output is validated
against its numpy golden model before the telemetry is reported.

The pool publishes into an :class:`~repro.api.Observer`: every device's
engine counters are labelled ``device=...``, the scheduler counts
arrivals/completions/steals, and each job leaves a span on the runtime
timeline — the same numbers the telemetry report aggregates, but live
and queryable (see docs/OBSERVABILITY.md).

With ``--chaos <seed>`` the same stream is served through a seeded
fault storm (see docs/FAULTS.md): one CAPE32k shard dies mid-stream and
the other suffers repeated HBM load corruption — enough to quarantine
it. The pool retries, quarantines, re-places, and still completes every
job with validated results; the printed report gains the self-healing
ledger and the per-device injection summary.

Run:  python examples/serving_pool.py [--chaos 0xCA9E]
"""

import argparse

import numpy as np

from repro.api import (
    CAPE131K,
    CAPE32K,
    DevicePool,
    DeviceKill,
    ExecConfig,
    FaultPlan,
    Job,
    Observer,
    SegmentedJob,
    TransferFault,
)
from repro.eval.serving import serving_report
from repro.workloads.micro import (
    Dotprod,
    IdxSearch,
    MemcpyBench,
    Saxpy,
    VVAdd,
    VVMul,
)
from repro.workloads.phoenix import (
    Histogram,
    KMeans,
    LinearRegression,
    MatMul,
    StringMatch,
    WordCount,
)

#: Two small shards plus one large for capacity-hungry jobs.
POOL = (CAPE32K, CAPE32K, CAPE131K)

#: Cycles between job arrivals (a steady submission stream).
INTERARRIVAL = 500.0


def oversized_job() -> SegmentedJob:
    """An iterative accumulate over 200k resident lanes: y = 3a.

    The live registers (input + accumulator) exceed every device, so
    the runtime partitions the lanes into MAX_VL segments and
    spills/restores the register file between them on each of the three
    passes — the capacity cliff served instead of failing.
    """
    n = 200_000
    rng = np.random.default_rng(99)
    a = rng.integers(0, 1 << 16, size=n).astype(np.int64)
    base = 0x0010_0000

    def segment(system, offset, vl, pass_index):
        if pass_index == 0:
            system.memory.write_words(base + 4 * offset, a[offset : offset + vl])
            system.vle(1, base + 4 * offset)  # input slice
            system.vmv_vx(2, 0)  # accumulator
        system.vadd(2, 2, 1)
        if pass_index == 2:
            return int(system.vredsum(2, signed=False))

    return SegmentedJob(
        "3a-accum",
        total_lanes=n,
        segment_body=segment,
        live_vregs=(1, 2),
        passes=3,
        finalize=sum,
        golden=int((3 * a).sum()),
        priority=1,
    )


def make_jobs():
    """22 mixed jobs: micro + Phoenix + one oversized spill-served."""
    jobs = [
        # A burst of streaming microbenchmarks at mixed sizes.
        Job.from_workload(VVAdd(n=1 << 14, seed=1)),
        Job.from_workload(VVMul(n=1 << 14, seed=2)),
        Job.from_workload(Saxpy(n=1 << 14, seed=3)),
        Job.from_workload(MemcpyBench(n=1 << 15, seed=4)),
        Job.from_workload(Dotprod(n=1 << 14, seed=5)),
        Job.from_workload(IdxSearch(n=1 << 14, seed=6)),
        Job.from_workload(VVAdd(n=1 << 16, seed=7)),
        Job.from_workload(Saxpy(n=1 << 16, seed=8)),
        Job.from_workload(MemcpyBench(n=1 << 16, seed=9)),
        Job.from_workload(Dotprod(n=1 << 15, seed=10)),
        # Latency-sensitive interactive lookups: high priority + deadline.
        Job.from_workload(
            IdxSearch(n=1 << 13, seed=11), priority=2, deadline_cycles=60_000
        ),
        Job.from_workload(
            IdxSearch(n=1 << 13, seed=12), priority=2, deadline_cycles=60_000
        ),
        # Phoenix applications (scaled to the simulation budget).
        Job.from_workload(Histogram(n=1 << 15)),
        Job.from_workload(LinearRegression(n=1 << 15)),
        Job.from_workload(MatMul(m=16, n=512, p=16), lanes=16 * 512),
        Job.from_workload(StringMatch(n=1 << 14)),
        Job.from_workload(WordCount(n=1 << 14)),
        Job.from_workload(
            KMeans(points=40_000, dims=4, k=4, iterations=2),
            lanes=40_000,
            resident=True,  # placement keeps the dataset CSB-resident
        ),
        # Background batch work at low priority.
        Job.from_workload(VVAdd(n=1 << 15, seed=13), priority=-1),
        Job.from_workload(VVMul(n=1 << 15, seed=14), priority=-1),
        Job.from_workload(Histogram(n=1 << 14, seed=15), priority=-1),
        # The capacity-cliff job, spill-served on the big device.
        oversized_job(),
    ]
    return jobs


def chaos_plan(seed: int) -> FaultPlan:
    """A seeded storm aimed at the two small shards.

    Device 0 (CAPE32k) dies mid-stream; device 1 (CAPE32k) suffers
    repeated load corruption — enough consecutive failures to trip the
    quarantine threshold. The CAPE131k stays healthy so the
    capacity-hungry jobs always have a home; everything else about the
    storm (when, which element, which bit) comes from the seed.
    """
    rng = np.random.default_rng(seed)
    faults = [DeviceKill(at_cycle=float(rng.integers(4_000, 12_000)),
                         device=0)]
    # Spread the corruption over distinct transfer windows so successive
    # jobs on the flaky shard keep failing (tripping its quarantine)
    # instead of one job absorbing every flip.
    for i in range(8):
        faults.append(
            TransferFault(
                kind="load",
                at_transfer=3 * i + int(rng.integers(1, 4)),
                element=int(rng.integers(0, 256)),
                bit=int(rng.integers(0, 32)),
                device=1,
            )
        )
    return FaultPlan(faults=tuple(faults), seed=seed)


def serve_stream(policy: str, observer: Observer = None, fault_plan=None):
    healing = dict(failure_threshold=2) if fault_plan is not None else {}
    # The default ExecConfig carries the execution shape; scheduling
    # policy, observability, and fault plans stay per-call arguments.
    # Superplans fuse kernels on clean bit-plane devices and quietly
    # stand down wherever the fault storm attaches an injector.
    pool = DevicePool(
        POOL, policy=policy, observer=observer, fault_plan=fault_plan,
        exec=ExecConfig(),
        **healing,
    )
    pool.submit_stream(make_jobs(), interarrival_cycles=INTERARRIVAL)
    return pool, pool.run()


def chaos_section(pool, report, observer):
    """Print the healing ledger behind a chaos run."""
    print()
    print("chaos: seeded fault storm served through self-healing")
    metrics = observer.metrics
    print(
        f"  injected: {metrics.total('faults.injected'):.0f} faults, "
        f"retries: {report.retries}, quarantines: {report.quarantines}, "
        f"device deaths: {report.device_deaths}"
    )
    for device in pool.devices:
        inj = device.injector
        if inj is None or not inj.injected:
            continue
        state = device.health.state.name.lower()
        kinds = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(inj.injected.items())
        )
        print(f"  {device.name}: {kinds} ({state})")
    retried = [r for r in report.jobs if r.attempts > 0]
    if retried:
        worst = max(retried, key=lambda r: r.attempts)
        print(
            f"  {len(retried)} jobs re-placed after failures "
            f"(worst: {worst.name!r}, {worst.attempts} retries) — "
            f"all outputs still validated"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--chaos",
        metavar="SEED",
        type=lambda s: int(s, 0),
        default=None,
        help="serve the stream through a seeded fault storm "
             "(e.g. --chaos 0xCA9E) and print the self-healing ledger",
    )
    args = parser.parse_args()
    plan = chaos_plan(args.chaos) if args.chaos is not None else None

    observer = Observer()
    pool, report = serve_stream("sjf", observer=observer, fault_plan=plan)
    title = "CAPE device pool — 22 jobs, 2x CAPE32k + 1x CAPE131k, SJF"
    if plan is not None:
        title += f" — chaos seed {args.chaos:#x}"
    print(serving_report(report, title=title))

    if plan is not None:
        chaos_section(pool, report, observer)

    failed = [j for j in report.jobs if not j.validated]
    assert not failed, f"jobs failed golden validation: {failed}"
    spilled = [j for j in report.jobs if j.spills]
    assert spilled, "expected the oversized job to be spill-served"
    big = spilled[0]
    print()
    print(
        f"capacity cliff served: {big.name!r} ({big.lanes:,} lanes > "
        f"{max(c.max_vl for c in POOL):,}) ran with {big.spills} spills / "
        f"{big.restores} restores instead of failing"
    )

    metrics = observer.metrics
    print()
    print("observer counters (runtime + per-device engine):")
    print(
        f"  jobs arrived/done: "
        f"{metrics.total('runtime.jobs', event='arrived'):.0f}/"
        f"{metrics.total('runtime.jobs', event='done'):.0f}, "
        f"steals: {metrics.total('runtime.steals'):.0f}, "
        f"spills: {metrics.total('runtime.spills'):.0f} "
        f"({metrics.total('runtime.spill_bytes'):,.0f} bytes)"
    )
    for labels, counter in metrics.series("engine.cycles"):
        if labels.get("kind") == "compute":
            print(
                f"  {labels['device']}: {counter.value:,.0f} compute cycles"
            )
    job_spans = sum(1 for _ in observer.tracer.spans("runtime"))
    print(f"  runtime timeline: {job_spans} spans (jobs + program scopes)")

    _, fifo = serve_stream("fifo")
    print()
    print(
        f"policy comparison: mean turnaround fifo "
        f"{fifo.mean_turnaround_cycles():,.0f} cycles vs sjf "
        f"{report.mean_turnaround_cycles():,.0f} cycles"
    )


if __name__ == "__main__":
    main()
