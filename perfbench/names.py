"""Metric names and units, in the order the benchmark prints them.

``BENCHMARK.json`` at the repository root lists the same names; the
self-tests hold the two together.
"""

from perfbench.inputs import PHOENIX_DESIGNS

WORKLOADS = ("serve_mirror", "serve_light", "batch_gang", "phoenix_model")

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_mean_s": "s",
    "peak_rss_mib": "MiB",
    "sim_cycles": "cycles",
    "sim_energy_j": "J",
    "success_rate": "fraction",
}

_PHOENIX_APPS = ("matmul", "pca", "lreg", "hist", "kmeans", "wrdcnt", "revidx", "strmatch")

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "client.lag_p95_s": "s",
    "serve.gateway.wall_p50_s": "s",
    "serve.gateway.queue_depth_max": "count",
    "serve.gateway.rejected": "count",
    "serve.gateway.transport_verdicts": "count",
    "serve.wire.frames": "count",
    "serve.batch.size_mean": "count",
    "serve.wire.shm_hits": "count",
    "serve.wire.fallbacks": "count",
    "serve.wire.bytes_out": "bytes",
    "serve.wire.bytes_in": "bytes",
    "serve.worker.exec_p50_s": "s",
    "serve.overhead_p50_s": "s",
    "serve.pool.run_s": "s",
    "serve.pool.jobs_per_worker_max": "count",
    "runtime.steals": "count",
    "runtime.makespan_cycles": "cycles",
    "gang.hit_share": "fraction",
    "gang.size_mean": "count",
    "gang.miss.singleton": "count",
    "gang.miss.backend": "count",
    "gang.miss.ejected": "count",
    "gang.miss.other": "count",
    "gang.ejected": "count",
    "plan.cache.compile_s": "s",
    "plan.cache.miss_measured": "count",
    "plan.superplan.kernels_in": "count",
    "plan.superplan.kernels_out": "count",
    "plan.superplan.flush": "count",
    "csb.mirror_p50_s": "s",
    **{f"csb.microops.{kind}": "count" for kind in (
        "read", "write", "search", "update", "update_prop", "reduce")},
    "engine.exec_p50_s": "s",
    **{
        f"engine.app_s.{app}.{design}": "s"
        for app in _PHOENIX_APPS
        for design, _config in PHOENIX_DESIGNS
    },
    "engine.host_us_per_vinstr": "us",
    "engine.compute_cycles": "cycles",
    "engine.memory_cycles": "cycles",
    "engine.scalar_exposed_cycles": "cycles",
    "workloads.inputs_s": "s",
    "obs.trace_overhead": "ratio",
}
