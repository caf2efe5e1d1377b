"""Chaos-soak benchmark: the serving tier under a transport-fault storm.

Drives one seeded :meth:`FaultPlan.transport_storm` — hangs, stragglers,
dropped replies, garbled replies, a process kill — through the asyncio
:class:`Gateway` three ways on an identical request stream:

* **fault-free** — the checksum oracle and the latency floor;
* **storm, hedging off** — recovery rides the hang/timeout detectors
  alone, so every wedged dispatch eats the full detection budget;
* **storm, hedging on** — stragglers are re-dispatched after
  ``hedge_after_s`` and the first clean reply wins, collapsing the tail.

Writes ``BENCH_9.json``: p50/p99 wall latency and goodput (completed
requests per wall second) per mode, hedge/breaker/fault counters, and
the checksum verdicts. The resilience claims are asserted always:
every admitted request completes, all three checksums are identical,
and the storm's p99 improves with hedging on vs off. Wall-clock
*magnitudes* vary with the host; the p99 ordering does not, because the
unhedged tail is a detection timeout while the hedged tail is a service
time.

Run directly (``python benchmarks/bench_resilience.py``) for the full
soak, or via pytest for the smoke-sized version check.sh runs.
"""

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.engine.system import CAPEConfig
from repro.faults import FaultPlan
from repro.runtime import ExecConfig
from repro.serve import Gateway, JobSpec, ResilienceConfig, ServeConfig

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_9.json"

TINY = CAPEConfig(name="tiny", num_chains=64)
WORKERS = 4
STORM_SEED = 9

#: Shared policy: fast heartbeats, a 0.5 s hang verdict.
BASE = dict(heartbeat_interval_s=0.02, hang_timeout_s=0.5)
HEDGE_AFTER_S = 0.05


def build_specs(n, seed=9):
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        if i % 2 == 0:
            specs.append(
                JobSpec(
                    f"r{i:03d}", "dot",
                    {"x": rng.integers(0, 99, size=16),
                     "y": rng.integers(0, 99, size=16)},
                    lanes=16,
                )
            )
        else:
            specs.append(
                JobSpec(
                    f"r{i:03d}", "match_count",
                    {"data": rng.integers(0, 7, size=32),
                     "needle": int(rng.integers(0, 7))},
                    lanes=32,
                )
            )
    return specs


def storm_plan():
    """The seeded storm: same integer, same storm, every run."""
    return FaultPlan.transport_storm(
        STORM_SEED,
        workers=WORKERS,
        hangs=1,
        slows=2,
        drops=2,
        garbles=2,
        kills=1,
        max_job=8,
        slow_delay_s=(0.05, 0.2),
    )


def checksum(results):
    ordered = sorted(results, key=lambda r: r.name)
    return hash(tuple((r.name, r.output) for r in ordered))


def run_mode(specs, fault_plan, resilience, worker_timeout):
    async def main():
        cfg = ServeConfig(
            configs=(TINY,) * WORKERS,
            max_queue=max(64, len(specs)),
            worker_timeout=worker_timeout,
            fault_plan=fault_plan,
            resilience=resilience,
        )
        exec_config = ExecConfig(workers=WORKERS)
        async with Gateway(cfg, exec=exec_config) as gateway:
            start = time.perf_counter()
            results = await asyncio.gather(
                *(gateway.submit_retrying(s, attempts=50) for s in specs)
            )
            elapsed = time.perf_counter() - start
            return elapsed, results, gateway.report()

    elapsed, results, report = asyncio.run(main())
    return {
        "wall_s": round(elapsed, 4),
        "goodput_req_per_s": round(report.completed / elapsed, 1),
        "p50_latency_s": round(report.latency_percentile(50), 6),
        "p99_latency_s": round(report.latency_percentile(99), 6),
        "completed": report.completed,
        "failed": report.failed,
        "retries": report.retries,
        "worker_deaths": report.worker_deaths,
        "worker_unresponsive": report.worker_unresponsive,
        "hedges_issued": report.hedges_issued,
        "hedges_won": report.hedges_won,
        "hedges_wasted": report.hedges_wasted,
        "breaker_trips": report.breaker_trips,
        "transport_faults": dict(report.transport_faults),
        "checksum": checksum(results),
    }


def run_benchmark(num_requests=96):
    import os

    specs = build_specs(num_requests)
    storm = storm_plan()

    free = run_mode(
        specs, None, ResilienceConfig(**BASE), worker_timeout=5.0
    )
    off = run_mode(
        specs, storm, ResilienceConfig(**BASE), worker_timeout=1.0
    )
    on = run_mode(
        specs, storm,
        ResilienceConfig(**BASE, hedge=True, hedge_after_s=HEDGE_AFTER_S),
        worker_timeout=1.0,
    )

    oracle = free.pop("checksum")
    verdicts = {
        "storm_hedging_off": off.pop("checksum") == oracle,
        "storm_hedging_on": on.pop("checksum") == oracle,
    }
    return {
        "benchmark": "serving-tier resilience under a transport-fault storm",
        "cpu_count": os.cpu_count(),
        "requests": num_requests,
        "workers": WORKERS,
        "storm": storm.as_dict(),
        "policy": {
            **BASE,
            "hedge_after_s": HEDGE_AFTER_S,
            "worker_timeout_s": 1.0,
        },
        "fault_free": free,
        "storm_hedging_off": off,
        "storm_hedging_on": on,
        "checksums_identical_to_fault_free": verdicts,
        "p99_improvement_hedged": round(
            off["p99_latency_s"] / max(on["p99_latency_s"], 1e-9), 2
        ),
        "note": (
            "the unhedged storm tail is a detection timeout (hang verdict "
            "or per-dispatch fallback); the hedged tail is a service time "
            "— p99 ordering holds on any host, magnitudes do not"
        ),
    }


def assert_resilience(payload):
    for mode, ok in payload["checksums_identical_to_fault_free"].items():
        assert ok, f"{mode} diverged from the fault-free checksum"
    for mode in ("fault_free", "storm_hedging_off", "storm_hedging_on"):
        tier = payload[mode]
        assert tier["completed"] == payload["requests"], (mode, tier)
        assert tier["failed"] == 0, (mode, tier)
    off, on = payload["storm_hedging_off"], payload["storm_hedging_on"]
    assert on["hedges_issued"] >= 1
    assert on["p99_latency_s"] < off["p99_latency_s"], (
        "hedging did not improve the storm p99",
        on["p99_latency_s"],
        off["p99_latency_s"],
    )


def test_bench_resilience():
    payload = run_benchmark(num_requests=48)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(json.dumps(payload, indent=2))
    assert_resilience(payload)


if __name__ == "__main__":
    payload = run_benchmark()
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    assert_resilience(payload)
    print(f"wrote {BENCH_JSON}")
