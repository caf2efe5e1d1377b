"""Gang-execution benchmark: one stacked replay vs per-device mirrors.

A homogeneous batch of compute-heavy bit-plane jobs is pushed through a
:class:`~repro.runtime.pool.DevicePool` of K same-shape devices twice —
``ExecConfig(gang=False)`` (each device walks its own mirror) and
``ExecConfig(gang=True)``
(each launch wave becomes one stacked :class:`~repro.gang.GangReplay`
whose every plan step is one int op over packed planes spanning all K
member column blocks). The jobs share their program *structure* (no per-job
scalars — a scalar lands in the plan key and would split the gang), so
every wave gangs at full width.

Writes ``BENCH_7.json``. Correctness is asserted always: outputs,
simulated makespan, and per-device ``csb.microops`` totals must be
bit-identical across modes, and a chaos-hook run that corrupts one
member mid-gang must eject exactly that member and still produce
identical outputs. The speedup is asserted only in the full
``__main__`` measurement (the pytest entry is smoke-sized and merely
records it).

Run directly (``python benchmarks/bench_gang.py``) for the full
measurement.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.engine.system import CAPEConfig
from repro.gang import GangReplay
from repro.obs import Observer
from repro.runtime import ExecConfig
from repro.runtime.job import Footprint, Job
from repro.runtime.pool import DevicePool

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_7.json"

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes
ROUNDS = 12  # vmul+vadd rounds per job: compute-heavy, plan-cache warm


def make_jobs(n, vl=256):
    """n structurally-identical jobs over member-specific data."""
    jobs = []
    for i in range(n):
        rng = np.random.default_rng(0xBE7 + i)
        a = rng.integers(0, 1 << 20, vl).astype(np.int64)
        b = rng.integers(0, 1 << 20, vl).astype(np.int64)

        def body(system, a=a, b=b):
            system.memory.write_words(0x1000, a)
            system.memory.write_words(0x1000 + 4 * len(b), b)
            system.vsetvl(len(a))
            system.vle(1, 0x1000)
            system.vle(2, 0x1000 + 4 * len(b))
            for r in range(ROUNDS):
                system.vmul(3 + (r % 2), 1, 2)
                system.vadd(5, 3 + (r % 2), 1)
            return int(system.vredsum(5, signed=False))

        jobs.append(
            Job(f"gang{i:02d}", body, Footprint(lanes=vl, resident=True))
        )
    return jobs


def drive_pool(num_jobs, devices, gang, observer=None):
    # Superplans off, as BENCH_7 measured: the comparison is gang vs
    # per-device replay of the same per-instruction plans.
    pool = DevicePool(
        (NANO,) * devices, backend="bitplane", observer=observer,
        exec=ExecConfig(gang=gang, superplan=False),
    )
    jobs = make_jobs(num_jobs)
    for job in jobs:
        pool.submit(job)
    start = time.perf_counter()
    report = pool.run()
    wall = time.perf_counter() - start
    return jobs, report, wall


def measure(num_jobs, devices, gang, repeats=3):
    """Best-of-N wall time plus the run's correctness fingerprint."""
    best = None
    for _ in range(repeats):
        obs = Observer()
        jobs, report, wall = drive_pool(num_jobs, devices, gang, observer=obs)
        if best is None or wall < best[2]:
            microops = {
                key: value
                for key, value in obs.metrics.snapshot().items()
                if key[0] == "csb.microops"
            }
            best = (jobs, report, wall, microops, obs)
    return best


def ejection_run(num_jobs, devices):
    """Corrupt one member mid-gang; the batch must heal to identical."""
    fired = {"count": 0}

    def hook(replay, index, kind):
        if kind == "sync" and replay._pending and fired["count"] == 0:
            vd = replay._pending[0].vd
            planes = replay.backend.register_planes(vd)
            planes[0, replay.member_slice(0)] ^= 1
            replay.backend.set_register_planes(vd, planes)
            fired["count"] += 1

    obs = Observer()
    GangReplay.chaos_hook = hook
    try:
        jobs, report, _ = drive_pool(num_jobs, devices, True, observer=obs)
    finally:
        GangReplay.chaos_hook = None
    assert fired["count"] == 1, "chaos hook never fired"
    return jobs, report, obs


def run_benchmark(num_jobs=32, devices=16, repeats=3):
    # Warm the process-global plan cache so both modes replay plans.
    drive_pool(devices, devices, False)

    seq_jobs, seq_report, seq_wall, seq_microops, _ = measure(
        num_jobs, devices, False, repeats
    )
    gang_jobs, gang_report, gang_wall, gang_microops, gang_obs = measure(
        num_jobs, devices, True, repeats
    )

    outputs = [j.result.output for j in seq_jobs]
    checksum_identical = [j.result.output for j in gang_jobs] == outputs
    cycles_identical = (
        [(j.result.service_cycles, j.result.energy_j) for j in gang_jobs]
        == [(j.result.service_cycles, j.result.energy_j) for j in seq_jobs]
        and gang_report.makespan_cycles == seq_report.makespan_cycles
    )
    microops_identical = gang_microops == seq_microops

    ej_jobs, _ej_report, ej_obs = ejection_run(num_jobs, devices)
    ejection_identical = [j.result.output for j in ej_jobs] == outputs

    return {
        "benchmark": (
            "gang execution: one stacked CompiledPlan replay across K "
            "devices vs per-device bit-plane mirrors"
        ),
        "config": {
            "design_point": "nano (8 chains, 256 lanes)",
            "devices": devices,
            "jobs": num_jobs,
            "rounds_per_job": ROUNDS,
            "vl": 256,
            "repeats": repeats,
        },
        "sequential_seconds": round(seq_wall, 4),
        "gang_seconds": round(gang_wall, 4),
        "speedup": round(seq_wall / gang_wall, 2),
        "gang_hits": gang_obs.metrics.total("gang.hit"),
        "gang_misses": gang_obs.metrics.total("gang.miss"),
        "checksum_identical": checksum_identical,
        "cycles_energy_makespan_identical": cycles_identical,
        "microops_identical": microops_identical,
        "mid_gang_ejection": {
            "ejected_members": ej_obs.metrics.total("gang.ejected"),
            "outputs_identical_to_fault_free": ejection_identical,
        },
    }


def test_bench_gang():
    payload = run_benchmark(num_jobs=8, devices=8, repeats=1)
    print()
    print(json.dumps(payload, indent=2))
    assert payload["checksum_identical"]
    assert payload["cycles_energy_makespan_identical"]
    assert payload["microops_identical"]
    assert payload["gang_hits"] == 8 and payload["gang_misses"] == 0
    assert payload["mid_gang_ejection"]["ejected_members"] == 1
    assert payload["mid_gang_ejection"]["outputs_identical_to_fault_free"]


if __name__ == "__main__":
    payload = run_benchmark()
    assert payload["checksum_identical"]
    assert payload["cycles_energy_makespan_identical"]
    assert payload["microops_identical"]
    assert payload["mid_gang_ejection"]["outputs_identical_to_fault_free"]
    assert payload["speedup"] >= 4.0, payload["speedup"]
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {BENCH_JSON}")
