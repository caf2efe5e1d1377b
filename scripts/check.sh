#!/usr/bin/env bash
# Repo health check: byte-compile the library, then run the tier-1 suite.
#
# Usage:  scripts/check.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall src =="
python -m compileall -q src

echo "== backend equivalence smoke =="
python - <<'EOF'
import numpy as np
from repro.assoc.emulator import AssociativeEmulator

rng = np.random.default_rng(0)
a = rng.integers(0, 1 << 32, size=16, dtype=np.int64)
b = rng.integers(0, 1 << 32, size=16, dtype=np.int64)
for mnemonic in ("vadd.vv", "vmul.vv", "vmslt.vv", "vredsum.vs"):
    runs = {}
    for backend in ("reference", "bitplane"):
        emu = AssociativeEmulator(num_cols=16, backend=backend)
        runs[backend] = emu.run(mnemonic, a, b, width=32)
    ref, fast = runs["reference"], runs["bitplane"]
    assert np.array_equal(np.asarray(ref.result), np.asarray(fast.result)), mnemonic
    assert ref.stats.counts == fast.stats.counts, mnemonic
print("reference == bitplane on", "vadd.vv vmul.vv vmslt.vv vredsum.vs")
EOF

echo "== lowered replay smoke (odd width) =="
python - <<'EOF'
import numpy as np

from repro.csb.chain import Chain
from repro.engine.bitexec import run_microcode
from repro.plan import compile_chain_program
from repro.plan.recorder import NUM_ROWS

# Packed-plane replay at a width that is not a multiple of 8: each plan
# replays lowered on a 37-column bit-plane chain under a partial window,
# and through the generic per-primitive path on a reference chain that
# holds the same bits and tags. Both must end identical, charge for
# charge (docs/PERFORMANCE.md, "Packed planes"); the three shifts cover
# the three plane-move patterns (vsra replicates the sign plane).
S, C, VSTART, VL = 32, 37, 5, 31
rng = np.random.default_rng(37)
bits = rng.integers(0, 2, (S, NUM_ROWS, C), dtype=np.uint8)
tags = rng.integers(0, 2, (S, C), dtype=np.uint8)
cases = (
    ("vadd.vv", 2, None), ("vmul.vv", 2, None),
    ("vmslt.vv", 2, None), ("vsll.vi", None, 3),
    ("vsrl.vi", None, 3), ("vsra.vi", None, 3),
)
for mnemonic, vs2, scalar in cases:
    plan = compile_chain_program(
        S, lambda rec: run_microcode(
            rec, mnemonic, 3, 1, vs2, scalar, None, 32, False
        ),
    )
    chains = {}
    for backend in ("bitplane", "reference"):
        chain = Chain(S, C, backend=backend)
        for sub, view in enumerate(chain.subarrays):
            view.bits[:] = bits[sub]
            view.tags = tags[sub]
        chain.set_active_window(VSTART, VL - VSTART)
        plan.replay(chain)
        chains[backend] = chain
    fast, ref = chains["bitplane"], chains["reference"]
    for got, want in zip(fast.subarrays, ref.subarrays):
        assert np.array_equal(got.bits, want.bits), mnemonic
        assert np.array_equal(got.tags, want.tags), mnemonic
    assert fast.stats.counts == ref.stats.counts, mnemonic
print(f"lowered == generic replay at {C} columns, window [{VSTART}, {VL}):",
      " ".join(m for m, _, _ in cases))
EOF

echo "== observability smoke =="
python - <<'EOF'
import json

from repro.api import CAPE32K, Device, Observer

obs = Observer()
device = Device(CAPE32K, backend="bitplane", observer=obs)
device.run(
    """
        li a0, 64
        vsetvli t0, a0, e32
        vmv.v.x v1, a0
        vmv.v.x v2, t0
        vadd.vv v3, v1, v2
        ecall
    """
)
cats = set(obs.tracer.categories())
assert {"interpreter", "microcode", "runtime"} <= cats, cats
for family in ("csb.microops", "vcu.instructions", "engine.cycles",
               "isa.instructions"):
    assert obs.metrics.total(family) > 0, family
payload = json.loads(obs.tracer.chrome_json())
assert payload["traceEvents"]
print(f"traced bitplane run: {len(obs.tracer)} events, "
      f"{len(obs.metrics)} metric series, chrome export valid")
EOF

echo "== perf smoke (plan cache) =="
python - <<'EOF'
import sys

sys.path.insert(0, "benchmarks")
from bench_fig9_microbenchmarks import run_plan_cache_compare

# The BENCH_5 measurement, live: warm plan-cache replay vs a cache
# that keeps nothing (compile per dispatch), timed as alternating
# off/on pairs in this one process. The plan cache must be purely a
# host-speed win: identical checksum, identical csb.microops, and a
# median per-pair speedup of at least 1.5x.
payload = run_plan_cache_compare()
assert payload["checksum_identical"], payload
assert payload["microops_identical"], payload
speedup = payload["speedup_on_vs_off"]
assert speedup >= 1.5, f"plan cache speedup {speedup}x < 1.5x"
print(f"plan cache: {payload['plan_cache_on_seconds']}s warm vs "
      f"{payload['plan_cache_off_seconds']}s compiling per dispatch "
      f"(median of "
      f"{payload['pairs']} pairs, {speedup}x), checksum and microops "
      f"identical")
EOF

echo "== perf smoke (superplan) =="
python - <<'EOF'
import sys

import numpy as np

sys.path.insert(0, "benchmarks")
from bench_fig9_microbenchmarks import run_superplan_compare

from repro.api import ExecConfig, JobSpec, plan_cache_snapshot, submit

# The BENCH_8 measurement, live: warm per-instruction plan replay vs
# whole-kernel superplan replay of the fig9 suite, timed as alternating
# pairs in this one process. The superplan must not change a result —
# identical checksum, identical csb.microops. Both routes check and
# re-sync in the bit-plane domain, so the ratio (about 1.2x) is printed,
# not gated; the paired gate below guards the fused route's speed.
payload = run_superplan_compare()
assert payload["checksum_identical"], payload
assert payload["microops_identical"], payload
speedup = payload["speedup_superplan"]

# The unified surface reaches the same machinery: submit() fuses under
# the default ExecConfig, and the one stats surface shows the fused
# traces.
assert ExecConfig().superplan
result = submit(
    JobSpec("sp-dot", "dot", {"x": np.arange(16), "y": np.arange(16)},
            lanes=16),
    backend="bitplane",
)
assert result.output == int((np.arange(16) * np.arange(16)).sum())
snap = plan_cache_snapshot()
assert snap["superplans"] >= 1, snap
print(f"superplan: {payload['superplan_seconds']}s fused vs "
      f"{payload['per_instruction_seconds']}s per-instruction (median of "
      f"{payload['pairs']} pairs, {speedup}x warm, not gated), "
      f"checksum+microops identical; {snap['superplans']} superplans cached")
EOF

echo "== perf gate (superplan, paired against a pinned revision) =="
# Warm fused fig9 in fresh interpreters: the working tree against the
# pinned revision's src/ (git archive), 10 pairs alternating which runs
# first. Fails above BENCHMARK.json's host-time bound, and when the
# revision is missing.
python benchmarks/paired_gate.py 10d1a18

echo "== fault-injection smoke =="
python - <<'EOF'
import numpy as np

from repro.api import FaultPlan, Observer
from repro.engine.system import CAPEConfig
from repro.runtime.job import Footprint, Job
from repro.runtime.pool import DevicePool

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes


def make_jobs():
    jobs = []
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        data = rng.integers(0, 1 << 20, size=64).astype(np.int64)

        def body(system, data=data):
            system.memory.write_words(0x1000, data)
            system.vsetvl(64)
            system.vle(1, 0x1000)
            system.vadd(2, 1, 1)
            return int(system.vredsum(2, signed=False))

        jobs.append(
            Job(f"smoke{i:02d}", body, Footprint(lanes=64, resident=True),
                golden=int(2 * data.sum()),
                backend="bitplane" if i % 2 else None)
        )
    return jobs


def run(plan=None, observer=None):
    pool = DevicePool(
        (NANO, NANO, NANO), memory_bytes=1 << 22, fault_plan=plan,
        observer=observer, failure_threshold=2, quarantine_cycles=2_000.0,
        retry_backoff_cycles=300.0, max_retries=4,
    )
    jobs = pool.submit_stream(make_jobs(), interarrival_cycles=40.0)
    return jobs, pool.run(max_events=100_000)


# A seeded storm: one device dies mid-stream, another gets stuck
# bitcells, a third gets transient HBM corruption (docs/FAULTS.md).
plan = FaultPlan.chaos(seed=0xCA9E, devices=3, kill_cycle=3_000.0)
clean_jobs, _ = run()
obs = Observer()
jobs, report = run(plan=plan, observer=obs)

assert report.completed == 50 and report.failed == 0, report.summary()
clean = {j.name: j.result.output for j in clean_jobs}
for job in jobs:
    assert job.result.output == clean[job.name], job.name
assert obs.metrics.total("faults.injected") > 0
assert report.retries > 0 and report.device_deaths == 1
print(f"chaos stream (seed {plan.seed:#x}): 50/50 jobs identical to "
      f"fault-free run through {obs.metrics.total('faults.injected'):.0f} "
      f"injected faults, {report.retries} retries, "
      f"{report.quarantines} quarantines, {report.device_deaths} device death")
EOF

echo "== serving smoke (process-sharded gateway) =="
python - <<'EOF'
import asyncio

import numpy as np

from repro.engine.system import CAPEConfig
from repro.runtime import DevicePool, ExecConfig
from repro.serve import Gateway, JobSpec, ServeConfig

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes


def make_specs():
    specs = []
    for i in range(20):
        if i % 2:
            specs.append(JobSpec(
                f"dot{i:02d}", "dot",
                {"x": np.arange(16) + i, "y": np.arange(16) + 1}, lanes=16,
            ))
        else:
            specs.append(JobSpec(
                f"match{i:02d}", "match_count",
                {"data": np.arange(32) % 5, "needle": i % 5}, lanes=32,
            ))
    return specs


# Sequential reference: the same mix through the in-process pool.
pool = DevicePool((NANO, NANO), memory_bytes=1 << 22)
seq_jobs = pool.submit_stream(
    [s.to_job() for s in make_specs()], interarrival_cycles=40.0
)
pool.run()
seq = {j.name: j.result.output for j in seq_jobs}


async def main():
    cfg = ServeConfig(configs=(NANO, NANO), memory_bytes=1 << 22)
    async with Gateway(cfg, exec=ExecConfig(workers=2)) as gateway:
        return await asyncio.gather(
            *(gateway.submit_retrying(s) for s in make_specs())
        )

results = asyncio.run(main())
assert len(results) == 20 and all(r.ok for r in results)
served = {r.name: r.output for r in results}
assert served == seq, "gateway outputs diverged from sequential pool"
workers = {r.worker_id for r in results}
print(f"gateway served 20/20 mixed jobs across workers {sorted(workers)}; "
      f"checksums match the sequential pool")
EOF

echo "== resilience smoke (transport-fault storm) =="
python - <<'EOF'
import sys

sys.path.insert(0, "benchmarks")
from bench_resilience import assert_resilience, run_benchmark

# The BENCH_9 soak, smoke-sized and live: one seeded transport storm
# (hang + stragglers + dropped/garbled replies + a process kill)
# through the gateway, fault-free vs hedging-off vs hedging-on. Every
# admitted request must complete bit-identical to fault-free, and the
# hedged storm p99 must beat unhedged — the unhedged tail is a
# detection timeout, the hedged tail a service time (docs/SERVING.md).
payload = run_benchmark(num_requests=48)
assert_resilience(payload)
off, on = payload["storm_hedging_off"], payload["storm_hedging_on"]
assert on["goodput_req_per_s"] > 0 and off["goodput_req_per_s"] > 0
print(
    f"storm (seed {payload['storm']['seed']}): "
    f"{payload['requests']}/{payload['requests']} requests bit-identical "
    f"to fault-free; goodput {on['goodput_req_per_s']} req/s hedged vs "
    f"{off['goodput_req_per_s']} unhedged, p99 {on['p99_latency_s']:.3f}s "
    f"vs {off['p99_latency_s']:.3f}s "
    f"({payload['p99_improvement_hedged']}x)"
)
EOF

echo "== wire smoke (shm data plane + batched dispatch) =="
python - <<'EOF'
import glob
import sys

sys.path.insert(0, "benchmarks")
from bench_serving import run_wire_compare

# The BENCH_10 large-payload cell, live: the same 1M-element request
# stream through the gateway on the inline-pickle plane vs the
# shared-memory plane with a 2 ms batch window. The shm plane must be
# purely a transport win — numpy-computed checksums identical in both
# modes — and at least 1.5x the pickle plane's req/s (the committed
# BENCH_10.json records >= 3x; the smoke bar leaves headroom for a
# loaded host). Afterwards /dev/shm must hold no cape-* residue: the
# parent owns every slab and ring and unlinks them all at close.
point = run_wire_compare(1_000_000, 12)
assert point["checksums_identical"], point
for tier in ("pickle", "shm"):
    assert point[tier]["completed"] == point["requests"], point[tier]
    assert point[tier]["payload_bytes_out"] > 0, point[tier]
assert point["shm"]["shm_hits"] > 0, point["shm"]
speedup = point["speedup_shm_vs_pickle"]
assert speedup >= 1.5, f"shm+batched speedup {speedup}x < 1.5x"
residue = glob.glob("/dev/shm/cape-wire-*") + glob.glob("/dev/shm/cape-ring-*")
assert not residue, f"leaked shm segments: {residue}"
print(f"wire: {point['requests']} x {point['payload_bytes']} B requests, "
      f"{point['shm']['req_per_s']} req/s shm+batched vs "
      f"{point['pickle']['req_per_s']} pickle ({speedup}x), "
      f"{point['shm']['jobs_per_frame']} jobs/frame, checksums identical, "
      f"no /dev/shm residue")
EOF

echo "== gang smoke (stacked plan replay) =="
python - <<'EOF'
import time

import numpy as np

from repro.engine.system import CAPEConfig
from repro.obs import Observer
from repro.runtime import ExecConfig
from repro.runtime.job import Footprint, Job
from repro.runtime.pool import DevicePool

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes


def make_jobs():
    # Homogeneous mix: identical program structure (no per-job
    # scalars — those land in the plan key and split the gang),
    # member-specific data.
    jobs = []
    for i in range(8):
        rng = np.random.default_rng(0x6A46 + i)
        a = rng.integers(0, 1 << 20, 256).astype(np.int64)

        def body(system, a=a):
            system.memory.write_words(0x1000, a)
            system.vsetvl(256)
            system.vle(1, 0x1000)
            system.vadd(2, 1, 1)
            for _ in range(12):
                system.vmul(3, 2, 1)
                system.vadd(2, 3, 1)
            return int(system.vredsum(2, signed=False))

        jobs.append(Job(f"gang{i}", body, Footprint(lanes=256)))
    return jobs


def run(gang):
    # Superplans off on both sides: the bar compares stacked replay
    # with per-device replay of the same per-instruction plans.
    obs = Observer()
    pool = DevicePool((NANO,) * 8, backend="bitplane", observer=obs,
                      exec=ExecConfig(gang=gang, superplan=False))
    jobs = make_jobs()
    for job in jobs:
        pool.submit(job)
    start = time.perf_counter()
    report = pool.run()
    wall = time.perf_counter() - start
    outputs = [j.result.output for j in jobs]
    uops = obs.metrics.total("csb.microops")
    return wall, outputs, uops, report.makespan_cycles, obs


run(False)  # warm the shared plan cache
seq_wall, seq_out, seq_uops, seq_makespan, _ = min(
    (run(False) for _ in range(2)), key=lambda r: r[0]
)
gang_wall, gang_out, gang_uops, gang_makespan, obs = min(
    (run(True) for _ in range(2)), key=lambda r: r[0]
)
assert gang_out == seq_out, "gang outputs diverged from sequential"
assert gang_uops == seq_uops, (gang_uops, seq_uops)
assert gang_makespan == seq_makespan
assert obs.metrics.total("gang.hit") == 8, "batch did not gang"
speedup = seq_wall / gang_wall
assert speedup >= 2.0, f"gang speedup {speedup:.2f}x < 2x"
print(f"gang: 8 homogeneous jobs over 8 devices in {gang_wall:.3f}s vs "
      f"{seq_wall:.3f}s sequential ({speedup:.1f}x), checksums, microops "
      f"({gang_uops:.0f}) and makespan identical")
EOF

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== benchmark self-tests =="
# pyproject's testpaths=["tests"] never collects perfbench/; name it.
python -m pytest -q perfbench

echo "== slow markers =="
python -m pytest -q -m slow benchmarks/bench_table2_microops.py \
    benchmarks/bench_fig11_phoenix.py tests/integration/test_chaos.py \
    tests/serve/test_saturation.py tests/gang/test_gang_chaos.py \
    tests/serve/test_resilience.py tests/serve/test_wire.py
