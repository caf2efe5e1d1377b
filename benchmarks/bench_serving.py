"""Serving-tier benchmark: process sharding vs the sequential pool.

Measures the two repro.serve front doors against the sequential
in-process :class:`DevicePool` on an identical job mix:

* the deterministic batch tier (:class:`ServePool`) at 1/2/4 workers —
  wall time and bit-identical-to-sequential checksums;
* the asyncio :class:`Gateway` at 1/2/4 workers — request throughput
  (req/s) and p50/p99 wall latency under a concurrent open-loop client.

Writes ``BENCH_6.json``. Process sharding can only show a speedup when
the host has cores to shard across. The scaling ratio is therefore
*recorded* alongside ``cpu_count`` — asserted nowhere — and the
correctness claims (checksums identical, all requests served) are
asserted always.

Run directly (``python benchmarks/bench_serving.py``) for the full
measurement, or via pytest for a smaller smoke-sized version.

**BENCH_10 — the wire sweep.** A second benchmark sweeps request
payload size (small/medium/large int64 arrays) through the gateway
under both data planes: ``ExecConfig(wire="pickle")`` (everything
inline on the pipe) and ``wire="shm"`` plus a micro-batching window (payloads cross
as shared-memory descriptors, each dispatch round rides one frame).
Every result is checked against a numpy-computed expectation, so the
speedup claim and the bit-identity claim come from the same run.
Writes ``BENCH_10.json``.
"""

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.engine.system import CAPEConfig
from repro.runtime import DevicePool, ExecConfig
from repro.serve import Gateway, JobSpec, ServeConfig, ServePool, TenantQuota
from repro.serve.spec import KERNELS, register_kernel

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_6.json"
BENCH10_JSON = Path(__file__).resolve().parent.parent / "BENCH_10.json"

TINY = CAPEConfig(name="tiny", num_chains=64)
WORKER_COUNTS = (1, 2, 4)

#: The wire sweep's payload sizes, in int64 elements (8 bytes each).
PAYLOAD_SIZES = {"small": 1024, "medium": 65536, "large": 1_000_000}

if "wire_probe" not in KERNELS:  # survive double import (pytest + path)

    @register_kernel("wire_probe")
    def _wire_probe(system, payload):
        """Device-light, payload-heavy: the wire-bound serving shape.

        The device runs one associative search over the leading slice
        (constant work however large the request), while the checksum
        covers the *whole* array — so a correct answer proves the full
        payload crossed the wire intact, whichever data plane carried
        it.
        """
        data = np.asarray(payload["data"], dtype=np.int64)
        head = data[: int(payload["head"])]
        needle = int(payload["needle"])
        system.vsetvl(len(head))
        addr = 0x1000
        system.memory.write_words(addr, head)
        system.vle(1, addr)
        system.vmseq_vx(2, 1, needle)
        matches = int(system.vmask_popcount(2))
        checksum = int(np.int64(data.sum()) & 0x7FFFFFFF)
        return (checksum, matches)


def build_wire_specs(n, elements):
    """``n`` deterministic wire_probe requests of ``elements`` int64s."""
    specs = []
    expected = []
    for i in range(n):
        data = (np.arange(elements, dtype=np.int64) * 31 + i) % 1013
        needle = i % 7
        specs.append(
            JobSpec(
                f"wire{i}",
                "wire_probe",
                {"data": data, "head": 64, "needle": needle},
                lanes=64,
            )
        )
        expected.append(
            (
                int(np.int64(data.sum()) & 0x7FFFFFFF),
                int(np.count_nonzero(data[:64] == needle)),
            )
        )
    return specs, expected


def build_specs(n):
    """A deterministic mixed request stream (index is the seed)."""
    specs = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            specs.append(
                JobSpec(
                    f"dot{i}", "dot",
                    {"x": np.arange(16) + i, "y": np.arange(16) + 1},
                    lanes=16,
                )
            )
        elif kind == 1:
            specs.append(
                JobSpec(
                    f"match{i}", "match_count",
                    {"data": np.arange(32) % 7, "needle": i % 7}, lanes=32,
                )
            )
        else:
            specs.append(
                JobSpec(
                    f"saxpy{i}", "saxpy_sum",
                    {"x": np.arange(16), "y": np.arange(16) + i, "a": 3},
                    lanes=16,
                )
            )
    return specs


def checksum(outputs):
    return hash(tuple(outputs))


def exec_for(workers=1):
    """One ExecConfig drives every tier: worker count for the process
    shards, everything else at its default."""
    return ExecConfig(workers=workers)


def run_sequential(specs, configs):
    pool = DevicePool(configs, exec=exec_for())
    jobs = pool.submit_stream(
        [s.to_job() for s in specs], interarrival_cycles=10.0
    )
    start = time.perf_counter()
    pool.run()
    elapsed = time.perf_counter() - start
    return elapsed, [j.result.output for j in jobs]


def run_serve_pool(specs, configs, workers):
    pool = ServePool(configs, exec=exec_for(workers))
    jobs = pool.submit_specs(specs, interarrival_cycles=10.0)
    start = time.perf_counter()
    pool.run()
    elapsed = time.perf_counter() - start
    return elapsed, [j.result.output for j in jobs]


def run_gateway(specs, configs, workers):
    async def main():
        cfg = ServeConfig(
            configs=tuple(configs), max_queue=max(64, len(specs)),
        )
        async with Gateway(cfg, exec=exec_for(workers)) as gateway:
            start = time.perf_counter()
            results = await asyncio.gather(
                *(gateway.submit_retrying(spec) for spec in specs)
            )
            elapsed = time.perf_counter() - start
            return elapsed, results, gateway.report()

    elapsed, results, report = asyncio.run(main())
    return {
        "wall_s": round(elapsed, 4),
        "req_per_s": round(len(specs) / elapsed, 1),
        "p50_latency_s": round(report.latency_percentile(50), 6),
        "p99_latency_s": round(report.latency_percentile(99), 6),
        "completed": report.completed,
        "outputs": [r.output for r in results],
    }


def run_benchmark(num_requests=120):
    import os

    configs = [TINY, TINY, TINY, TINY]
    specs = build_specs(num_requests)

    seq_wall, seq_outputs = run_sequential(specs, configs)
    seq_checksum = checksum(seq_outputs)

    batch_tiers = {}
    for workers in WORKER_COUNTS:
        wall, outputs = run_serve_pool(specs, configs, workers)
        batch_tiers[workers] = {
            "wall_s": round(wall, 4),
            "req_per_s": round(num_requests / wall, 1),
            "checksum_identical_to_sequential": checksum(outputs)
            == seq_checksum,
        }

    gateway_tiers = {}
    gw_checksums_ok = True
    for workers in WORKER_COUNTS:
        tier = run_gateway(specs, configs, workers)
        gw_checksums_ok &= checksum(tier.pop("outputs")) == seq_checksum
        gateway_tiers[workers] = tier

    scaling = round(
        gateway_tiers[4]["req_per_s"] / gateway_tiers[1]["req_per_s"], 2
    )
    return {
        "benchmark": "repro.serve process-sharded serving vs sequential pool",
        "cpu_count": os.cpu_count(),
        "requests": num_requests,
        "devices": len(configs),
        "sequential": {
            "wall_s": round(seq_wall, 4),
            "req_per_s": round(num_requests / seq_wall, 1),
        },
        "serve_pool": {str(k): v for k, v in batch_tiers.items()},
        "gateway": {str(k): v for k, v in gateway_tiers.items()},
        "gateway_checksums_identical": gw_checksums_ok,
        "scaling_workers4_vs_1": scaling,
        "note": (
            "scaling is recorded, not asserted: on a 1-CPU host process "
            "sharding pays IPC overhead with no cores to shard across "
            "(same wall as BENCH_5's thread finding); correctness "
            "(identical checksums, all requests served) is asserted "
            "always"
        ),
    }


def run_wire_mode(specs, expected, mode, window_s, workers=2):
    """Serve ``specs`` through a gateway under one data-plane mode."""

    async def main():
        # Admit the whole sweep at once: the point is to measure the
        # wire, not the admission backoff policy.
        bound = max(64, len(specs))
        cfg = ServeConfig(
            configs=(TINY,) * 4,
            max_queue=bound,
            default_quota=TenantQuota(max_pending=bound),
        )
        wire_exec = ExecConfig(
            workers=workers, wire=mode, batch_window_s=window_s
        )
        async with Gateway(cfg, exec=wire_exec) as gateway:
            start = time.perf_counter()
            results = await asyncio.gather(
                *(gateway.submit_retrying(spec) for spec in specs)
            )
            elapsed = time.perf_counter() - start
            report = gateway.report()
            stats = dict(gateway.wire_stats)
            return elapsed, results, report, stats

    elapsed, results, report, stats = asyncio.run(main())
    outputs = [r.output for r in results]
    frames = stats.get("frames", 0)
    return {
        "wall_s": round(elapsed, 4),
        "req_per_s": round(len(specs) / elapsed, 1),
        "p50_latency_s": round(report.latency_percentile(50), 6),
        "p99_latency_s": round(report.latency_percentile(99), 6),
        "completed": report.completed,
        "payload_bytes_out": report.payload_bytes_out,
        "payload_bytes_in": report.payload_bytes_in,
        "wire_frames": frames,
        "jobs_per_frame": round(
            stats.get("batched_jobs", 0) / frames, 2
        ) if frames else 0.0,
        "shm_hits": stats.get("shm_hits", 0),
        "pickle_fallbacks": stats.get("fallbacks", 0),
        "outputs_match_expected": outputs == expected,
    }


def run_wire_compare(elements, requests, workers=2, window_s=0.002):
    """One payload-size point: pickle vs shm+batched on the same load."""
    specs, expected = build_wire_specs(requests, elements)
    tiers = {
        "pickle": run_wire_mode(specs, expected, "pickle", 0.0, workers),
        "shm": run_wire_mode(specs, expected, "shm", window_s, workers),
    }
    return {
        "elements": elements,
        "payload_bytes": elements * 8,
        "requests": requests,
        **tiers,
        "speedup_shm_vs_pickle": round(
            tiers["shm"]["req_per_s"] / tiers["pickle"]["req_per_s"], 2
        ),
        "checksums_identical": (
            tiers["pickle"]["outputs_match_expected"]
            and tiers["shm"]["outputs_match_expected"]
        ),
    }


def run_wire_benchmark(request_counts=None):
    """The BENCH_10 sweep: every payload size, both data planes."""
    import os

    counts = request_counts or {"small": 120, "medium": 60, "large": 24}
    payloads = {
        label: run_wire_compare(PAYLOAD_SIZES[label], counts[label])
        for label in PAYLOAD_SIZES
    }
    return {
        "benchmark": (
            "serving-tier data plane: shm descriptors + batched frames "
            "vs inline pickle"
        ),
        "cpu_count": os.cpu_count(),
        "workers": 2,
        "devices": 4,
        "payloads": payloads,
        "large_speedup_shm_vs_pickle": payloads["large"][
            "speedup_shm_vs_pickle"
        ],
        "all_checksums_identical": all(
            p["checksums_identical"] for p in payloads.values()
        ),
        "note": (
            "wire_probe does constant device work per request, so the "
            "sweep isolates the wire: at small payloads the planes tie, "
            "at large ones the pickle plane pays serialize+copy per "
            "request while shm ships descriptors. checksums are "
            "numpy-computed expectations, asserted per request in both "
            "modes"
        ),
    }


def test_bench_serving():
    payload = run_benchmark(num_requests=45)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(json.dumps(payload, indent=2))
    for tier in payload["serve_pool"].values():
        assert tier["checksum_identical_to_sequential"]
    assert payload["gateway_checksums_identical"]
    for tier in payload["gateway"].values():
        assert tier["completed"] == payload["requests"]


def test_bench_wire():
    """Smoke-sized wire sweep: correctness asserted, speedup recorded.

    The ≥1.5x large-payload speedup is asserted by the live smoke in
    ``scripts/check.sh`` (full-sized requests); this keeps the pytest
    tier fast and timing-tolerant.
    """
    payload = run_wire_benchmark(
        request_counts={"small": 12, "medium": 8, "large": 6}
    )
    print()
    print(json.dumps(payload, indent=2))
    assert payload["all_checksums_identical"]
    for point in payload["payloads"].values():
        for mode in ("pickle", "shm"):
            assert point[mode]["completed"] == point["requests"]
            assert point[mode]["payload_bytes_out"] > 0
            assert point[mode]["payload_bytes_in"] > 0
    large_shm = payload["payloads"]["large"]["shm"]
    assert large_shm["shm_hits"] > 0


if __name__ == "__main__":
    payload = run_benchmark()
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {BENCH_JSON}")
    wire_payload = run_wire_benchmark()
    BENCH10_JSON.write_text(json.dumps(wire_payload, indent=2) + "\n")
    print(json.dumps(wire_payload, indent=2))
    print(f"wrote {BENCH10_JSON}")
