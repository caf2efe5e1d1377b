"""repro.serve — the process-sharded serving tier.

Two front doors over one worker substrate:

* :class:`~repro.serve.pool.ServePool` — the deterministic batch tier.
  A :class:`~repro.runtime.pool.DevicePool` whose jobs execute inside
  worker *processes* (one process owns one or more devices) while all
  bookkeeping — placement, scheduling, healing, telemetry — stays in
  the parent in simulated-clock order. Results are bit-identical to
  in-process execution; the processes supply the host concurrency.
* :class:`~repro.serve.gateway.Gateway` — the asyncio front door for
  live traffic: ``await submit(spec)``, per-tenant quotas through the
  :class:`~repro.runtime.job.Footprint` machinery, bounded queues that
  shed load with ``retry_after_s`` hints, graceful drain/shutdown, and
  worker-crash failover.

Work crosses the process boundary as picklable
:class:`~repro.serve.spec.JobSpec` descriptions naming a registered
kernel — with numpy payloads and array results travelling as zero-copy
shared-memory descriptors when the platform supports it
(:mod:`repro.serve.shm`, ``ExecConfig.wire``) — and each dispatch round
coalesces into batched wire frames. The fault ledger crosses the
boundary in both directions (worker-side injectors report device death
in replies; a worker crash — injectable via
:class:`~repro.faults.WorkerKill` — retires the worker's devices
through the PR-4 healing ladder). See ``docs/SERVING.md``.
"""

from repro.serve.gateway import (
    Gateway,
    GatewayReport,
    ServeConfig,
    ServeResult,
    TenantQuota,
)
from repro.serve.pool import ServePool
from repro.serve.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
)
from repro.serve.shm import (
    WIRE_MODES,
    HostWire,
    ShmRef,
    SlabArena,
    WorkerWire,
    payload_nbytes,
    resolve_wire_mode,
    shm_available,
)
from repro.serve.spec import (
    KERNELS,
    JobSpec,
    ServeJob,
    kernel_names,
    register_kernel,
)
from repro.serve.worker import (
    KILLED_EXIT_CODE,
    WorkerHandle,
    WorkerOptions,
    default_mp_context,
    worker_main,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "Gateway",
    "GatewayReport",
    "HostWire",
    "JobSpec",
    "KERNELS",
    "KILLED_EXIT_CODE",
    "ResilienceConfig",
    "ServeConfig",
    "ServeJob",
    "ServePool",
    "ServeResult",
    "ShmRef",
    "SlabArena",
    "TenantQuota",
    "WIRE_MODES",
    "WorkerHandle",
    "WorkerOptions",
    "WorkerWire",
    "default_mp_context",
    "kernel_names",
    "payload_nbytes",
    "register_kernel",
    "resolve_wire_mode",
    "shm_available",
    "worker_main",
]
