"""The asyncio front door: admission, quotas, backpressure, dispatch.

The :class:`Gateway` puts an ``await``-able serving surface in front of
the worker tier. Where :class:`~repro.serve.pool.ServePool` replays a
whole recorded job set deterministically under the simulated clock, the
gateway serves *live* traffic on the wall clock: callers
``await gateway.submit(spec)`` and get a :class:`ServeResult` back when
the worker that owns the chosen device has executed the spec.

Admission control happens before a request touches a queue:

* **closed** — a draining/closed gateway rejects immediately.
* **queue_full** — the bounded queue (``max_queue`` requests queued or
  in flight) rejects with :class:`~repro.common.errors.AdmissionError`
  carrying ``retry_after_s``, the load-shedding contract: the caller
  backs off and retries, the gateway never buffers unboundedly.
* **quota** — per-tenant :class:`TenantQuota` limits, enforced through
  the same :class:`~repro.runtime.job.Footprint` machinery the
  scheduler uses: a tenant is capped on simultaneously pending requests
  and (optionally) on the sum of in-flight footprint *lanes* — CSB
  occupancy, the resource the capacity cliff is about.

Dispatch is footprint-aware round-robin over free devices. Every
worker has a daemon reader thread that forwards replies into the event
loop via ``call_soon_threadsafe`` — the loop thread owns all gateway
state, so there are no locks. A worker crash fails over: its devices
are retired, in-flight requests re-queue onto surviving devices (up to
``max_retries`` attempts each), and only when no device remains does
the gateway fail pending work.

Shutdown is graceful by default: ``drain()`` stops admission and waits
for in-flight and queued work; ``close()`` drains, then shuts the
workers down and joins the reader threads. ``async with Gateway(...)``
does start/close automatically.

**Resilience** (``ServeConfig.resilience``, docs/SERVING.md): workers
emit heartbeats so a monitor task can tell a *hung* worker (alive,
fully silent past ``hang_timeout_s`` — terminated and failed over,
counted separately from a crash) from a merely slow one; per-request
wall-clock deadlines ride the wire and are enforced at admission, in
the queue, at dispatch, and worker-side; straggling requests are
hedged to a second worker (first reply completes the future — replies
are content-deterministic, so the race only picks *when*, never
*what*); and per-worker circuit breakers trip on consecutive transport
faults, steering dispatch around a flaky worker until a half-open
probe clears it. Dropped replies are concluded from the per-worker
FIFO reply order plus heartbeat progress marks, garbled replies from
an unreadable payload; both re-queue the request like a worker-death
orphan.

**Data plane** (``ExecConfig.wire`` / ``batch_window_s``,
docs/SERVING.md): numpy payloads and array results cross the worker
boundary as shared-memory descriptors (:mod:`repro.serve.shm`) when
the platform supports it, and each dispatch round rides one batched
``("runs", seq, members, ack)`` frame per worker — the one run
message, in every gang mode; the micro-batching window only decides
whether an incomplete round waits for round-mates. A lost or garbled
frame is one transport fault that orphans every member through the
same detectors (:mod:`repro.serve.link`); results, placement, and
telemetry stay bit-identical in every wire mode.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import (
    AdmissionError,
    ConfigError,
    DeadlineExceededError,
    QuotaExceededError,
    WorkerDiedError,
    WorkerTimeoutError,
    WorkerUnresponsiveError,
)
from repro.engine.system import CAPE32K, CAPEConfig
from repro.runtime.execconfig import ExecConfig
from repro.serve.link import (
    WORKER_GONE,
    WorkerLink,
    boot_workers,
    count_gang_outcome,
    silence_budget_s,
)
from repro.serve.resilience import ResilienceConfig
from repro.serve.shm import HostWire, payload_nbytes
from repro.serve.spec import JobSpec
from repro.serve.worker import WorkerOptions

__all__ = [
    "Gateway",
    "GatewayReport",
    "ServeConfig",
    "ServeResult",
    "TenantQuota",
]

#: Period of the gateway's monitor task — the resilience clock that
#: cancels lapsed deadlines, declares hangs, concludes timeouts, and
#: issues hedges. Small enough to react within a heartbeat interval.
_MONITOR_PERIOD_S = 0.02


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (the quota side of multi-tenancy).

    Args:
        max_pending: requests the tenant may have queued + in flight.
        max_lanes: optional cap on the *sum of footprint lanes* the
            tenant may have in flight — occupancy-weighted fairness, so
            one tenant of CSB-filling jobs can't starve the others by
            request count alone.
    """

    max_pending: int = 64
    max_lanes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ConfigError("a tenant quota needs max_pending >= 1")
        if self.max_lanes is not None and self.max_lanes < 1:
            raise ConfigError("max_lanes must be positive when set")


@dataclass(frozen=True)
class ServeConfig:
    """Gateway construction knobs (one picklable bag).

    The execution shape (worker count, gang and superplan modes, wire,
    batching window) is not here: it is the gateway's ``exec=``
    :class:`~repro.runtime.execconfig.ExecConfig`.

    Args:
        configs: device design points; device ``i`` is owned by worker
            ``i % exec.workers``.
        max_queue: bound on requests queued + in flight; beyond it the
            gateway sheds load with ``retry_after_s``.
        default_quota: quota applied to tenants absent from ``quotas``.
        quotas: per-tenant overrides.
        warmup: specs each worker runs at boot to warm its plan cache.
        memory_bytes / backend: device construction knobs, as
            :class:`~repro.runtime.pool.DevicePool`; workers build every
            device through its recipe
            (:func:`~repro.runtime.pool.build_system`), so devices charge
            Table I cycles (the cycles our microcode measures are an
            :class:`~repro.assoc.instruction_model.InstructionModel`
            report).
        fault_plan: optional :class:`~repro.faults.FaultPlan` (device
            slices go to the workers; ``WorkerKill`` entries kill whole
            worker processes).
        max_retries: re-placement attempts for a request whose worker
            died mid-flight (or whose reply was concluded lost).
        worker_timeout: wall seconds a single dispatch may stay
            outstanding before its reply is concluded lost and the
            request re-queued — the blunt fallback behind the faster
            heartbeat/seq-order detectors.
        resilience: the :class:`~repro.serve.resilience.
            ResilienceConfig` policy bag — heartbeat interval, hang
            threshold, hedging, breakers, default deadline
            (docs/SERVING.md).
        retry_after_s: floor of the backpressure hint; the advertised
            value scales with observed service time and queue depth.
    """

    configs: Tuple[CAPEConfig, ...] = (CAPE32K, CAPE32K)
    max_queue: int = 256
    default_quota: TenantQuota = TenantQuota()
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    warmup: Tuple[JobSpec, ...] = ()
    memory_bytes: Optional[int] = None
    backend: Optional[str] = None
    fault_plan: object = None
    max_retries: int = 3
    worker_timeout: float = 120.0
    retry_after_s: float = 0.05
    resilience: ResilienceConfig = ResilienceConfig()

    def __post_init__(self) -> None:
        if not self.configs:
            raise ConfigError("a gateway needs at least one device")
        if self.max_queue < 1:
            raise ConfigError("max_queue must be at least 1")

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)


@dataclass(frozen=True)
class ServeResult:
    """One served request: the reply plus serving metadata."""

    name: str
    tenant: str
    output: Any
    validated: Optional[bool]
    service_cycles: float
    energy_j: float
    spills: int
    restores: int
    error: Optional[str]
    worker_id: int
    device_id: int
    wall_s: float
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "output": self.output,
            "validated": self.validated,
            "service_cycles": self.service_cycles,
            "energy_j": self.energy_j,
            "error": self.error,
            "worker_id": self.worker_id,
            "device_id": self.device_id,
            "wall_s": self.wall_s,
            "retries": self.retries,
        }


@dataclass
class GatewayReport:
    """Aggregate serving counters (see :meth:`Gateway.report`)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_quota: int = 0
    rejected_closed: int = 0
    worker_deaths: int = 0
    worker_unresponsive: int = 0
    retries: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_wasted: int = 0
    breaker_trips: int = 0
    breaker_probes: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0
    deadline_cancelled: int = 0
    #: payload data shipped to workers (spec payloads + goldens) and
    #: received back (result arrays), measured as data bytes — array
    #: nbytes + 8 per scalar — so the figures compare across wire modes.
    payload_bytes_out: int = 0
    payload_bytes_in: int = 0
    #: detected transport faults by kind (dropped/garbled/hang/timeout).
    transport_faults: Dict[str, int] = field(default_factory=dict)
    per_tenant: Dict[str, int] = field(default_factory=dict)
    wall_latencies_s: List[float] = field(default_factory=list)
    plan_cache: Dict[int, dict] = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        return (
            self.rejected_queue_full
            + self.rejected_quota
            + self.rejected_closed
        )

    def latency_percentile(self, pct: float) -> Optional[float]:
        """Wall-latency percentile in seconds (None before traffic)."""
        if not self.wall_latencies_s:
            return None
        ordered = sorted(self.wall_latencies_s)
        index = min(
            len(ordered) - 1, max(0, round(pct / 100 * (len(ordered) - 1)))
        )
        return ordered[index]

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_quota": self.rejected_quota,
            "rejected_closed": self.rejected_closed,
            "worker_deaths": self.worker_deaths,
            "worker_unresponsive": self.worker_unresponsive,
            "retries": self.retries,
            "hedges_issued": self.hedges_issued,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "breaker_trips": self.breaker_trips,
            "breaker_probes": self.breaker_probes,
            "deadline_met": self.deadline_met,
            "deadline_missed": self.deadline_missed,
            "deadline_cancelled": self.deadline_cancelled,
            "payload_bytes_out": self.payload_bytes_out,
            "payload_bytes_in": self.payload_bytes_in,
            "transport_faults": dict(self.transport_faults),
            "per_tenant": dict(self.per_tenant),
            "p50_latency_s": self.latency_percentile(50),
            "p99_latency_s": self.latency_percentile(99),
            "plan_cache": {k: dict(v) for k, v in self.plan_cache.items()},
        }


class _Request:
    """One admitted request's mutable in-gateway state."""

    __slots__ = (
        "spec", "future", "submitted_at", "retries", "deadline_at",
        "pending_seqs", "hedged", "finished", "queued",
    )

    def __init__(
        self,
        spec: JobSpec,
        future: asyncio.Future,
        deadline_at: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.future = future
        self.submitted_at = time.perf_counter()
        self.retries = 0
        #: absolute ``time.monotonic()`` deadline, or None (unbounded).
        self.deadline_at = deadline_at
        #: seqs of outstanding run dispatches (primary and hedge).
        self.pending_seqs: set = set()
        self.hedged = False
        self.finished = False
        self.queued = False


class Gateway:
    """The asyncio serving front door over the worker tier.

    Use as an async context manager::

        async with Gateway(ServeConfig(), exec=ExecConfig(workers=2)) as gw:
            result = await gw.submit(JobSpec("r0", "dot", {...}))

    ``config`` holds the devices and the serving policy; ``exec`` is the
    execution shape (``workers``, ``gang``, ``superplan``, ``wire``,
    ``batch_window_s``); each worker keeps its compiled plans in its own
    plan cache. All state is owned by the event-loop thread; reader
    threads only ever schedule callbacks onto the loop.
    """

    def __init__(
        self,
        config: ServeConfig = ServeConfig(),
        observer=None,
        exec: ExecConfig = ExecConfig(),
    ):
        if not isinstance(exec, ExecConfig):
            raise ConfigError(
                f"exec must be an ExecConfig, got {type(exec).__name__}"
            )
        self.config = config
        self.exec = exec
        from repro.obs.observer import NULL_OBSERVER

        self.observer = observer if observer is not None else NULL_OBSERVER
        self.report_data = GatewayReport()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: worker_id -> transport link of each *live* worker (a failed
        #: over worker's link leaves; its stale messages are ignored).
        self._links: Dict[int, WorkerLink] = {}
        self._readers: List[threading.Thread] = []
        self._stop_readers = threading.Event()
        self._seq = itertools.count()
        self._queue: deque = deque()
        #: Requests dispatched and not yet finished/re-queued.
        self._inflight_requests: set = set()
        self._free_devices: deque = deque()
        self._dead_devices: set = set()
        self._worker_of: Dict[int, int] = {}
        self._device_config: Dict[int, CAPEConfig] = {}
        self._tenant_pending: Dict[str, int] = {}
        self._tenant_lanes: Dict[str, int] = {}
        self._started = False
        self._closing = False
        self._closed = False
        self._drained = asyncio.Event()
        self._ewma_wall_s: Optional[float] = None
        # -- data plane ------------------------------------------------
        #: Host side of the shared-memory wire (built in :meth:`start`).
        self._host_wire: Optional[HostWire] = None
        #: Live wire/data-plane counters (the host wire's stats dict).
        self.wire_stats: Optional[dict] = None
        #: Absolute monotonic expiry of the open micro-batching window,
        #: or None when no round is being held for round-mates.
        self._window_deadline: Optional[float] = None
        self.resilience = config.resilience
        self._monitor_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        """Boot the workers and their reader threads."""
        if self._started:
            raise ConfigError("gateway already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        cfg = self.config
        num_workers = min(self.exec.workers, len(cfg.configs))
        options = WorkerOptions(
            memory_bytes=cfg.memory_bytes,
            backend=cfg.backend,
            warmup=cfg.warmup,
            fault_plan=cfg.fault_plan,
            exec=self.exec,
            heartbeat_interval_s=cfg.resilience.heartbeat_interval_s,
        )
        self._host_wire, self._links = boot_workers(
            cfg.configs, num_workers, options, cfg.resilience,
            self.observer, self.report_data,
        )
        self.wire_stats = self._host_wire.stats
        for device_id, config in enumerate(cfg.configs):
            self._worker_of[device_id] = device_id % num_workers
            self._device_config[device_id] = config
            self._free_devices.append(device_id)
        for worker_id, link in self._links.items():
            reader = threading.Thread(
                target=self._reader_main,
                args=(link,),
                name=f"cape-serve-reader-{worker_id}",
                daemon=True,
            )
            reader.start()
            self._readers.append(reader)
        self._monitor_task = self._loop.create_task(self._monitor_main())
        if self.observer.enabled:
            self.observer.gauge("serve.gateway.workers").set(num_workers)

    def _reader_main(self, link: WorkerLink) -> None:
        """Reader thread: pump one worker's replies into the loop."""
        worker_id = link.worker_id
        while not self._stop_readers.is_set():
            try:
                msg = link.handle.recv(timeout=0.05)
            except WorkerTimeoutError:
                continue
            except WorkerDiedError:
                if not self._stop_readers.is_set():
                    self._loop.call_soon_threadsafe(
                        self._on_worker_death, worker_id
                    )
                return
            # The hang detector's silence clock: a plain float store is
            # atomic under the GIL, so no lock is needed here.
            link.last_seen = time.monotonic()
            self._loop.call_soon_threadsafe(self._on_message, worker_id, msg)

    async def drain(self) -> None:
        """Stop admitting; wait until queued + in-flight work finishes."""
        self._closing = True
        if not self.pending:
            return
        self._drained.clear()
        await self._drained.wait()

    async def close(self) -> None:
        """Graceful shutdown: drain, stop workers, join readers."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        self._stop_readers.set()
        for link in self._links.values():
            await asyncio.to_thread(link.handle.shutdown)
        for reader in self._readers:
            await asyncio.to_thread(reader.join, 5.0)
        self._links.clear()
        self._readers.clear()
        if self._host_wire is not None:
            # Unlinks every slab and reply-ring segment; the stats dict
            # (self.wire_stats) survives for post-close reporting.
            self._host_wire.close()
            self._host_wire = None

    # ------------------------------------------------------------------
    # Admission + submission
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests queued + in flight."""
        return len(self._queue) + len(self._inflight_requests)

    @property
    def live_devices(self) -> int:
        return len(self._device_config) - len(self._dead_devices)

    def retry_after_hint(self) -> float:
        """How long a shed caller should wait before retrying.

        Scales the observed wall time per request by the backlog.
        Until a first request completes (workers still booting, say),
        the oldest in-flight request's age stands in for the wall time
        — a lower bound that grows while the wait does, so early
        callers back off instead of spending their retries at the floor.
        """
        floor = self.config.retry_after_s
        wall_s = self._ewma_wall_s
        if wall_s is None and self._inflight_requests:
            oldest = min(r.submitted_at for r in self._inflight_requests)
            wall_s = time.perf_counter() - oldest
        if wall_s is None or not self.live_devices:
            return floor
        backlog_rounds = (self.pending + 1) / self.live_devices
        return max(floor, wall_s * backlog_rounds)

    def _admit(self, spec: JobSpec) -> None:
        """Raise the appropriate rejection, or record admission."""
        if self._closing or self._closed:
            self.report_data.rejected_closed += 1
            self._count_reject("closed")
            raise AdmissionError(
                "gateway is draining/closed", reason="closed"
            )
        if not self.live_devices:
            self.report_data.rejected_closed += 1
            self._count_reject("capacity")
            raise AdmissionError(
                "no live devices remain", reason="capacity"
            )
        if self.pending >= self.config.max_queue:
            self.report_data.rejected_queue_full += 1
            self._count_reject("queue_full")
            raise AdmissionError(
                f"serving queue is full ({self.pending} pending, "
                f"bound {self.config.max_queue})",
                reason="queue_full",
                retry_after_s=self.retry_after_hint(),
            )
        quota = self.config.quota_for(spec.tenant)
        tenant_pending = self._tenant_pending.get(spec.tenant, 0)
        if tenant_pending >= quota.max_pending:
            self.report_data.rejected_quota += 1
            self._count_reject("quota")
            raise QuotaExceededError(
                f"tenant {spec.tenant!r} has {tenant_pending} requests "
                f"pending (quota {quota.max_pending})",
                tenant=spec.tenant,
                retry_after_s=self.retry_after_hint(),
            )
        lanes = spec.footprint.lanes
        tenant_lanes = self._tenant_lanes.get(spec.tenant, 0)
        if quota.max_lanes is not None and tenant_lanes + lanes > quota.max_lanes:
            self.report_data.rejected_quota += 1
            self._count_reject("quota")
            raise QuotaExceededError(
                f"tenant {spec.tenant!r} has {tenant_lanes} footprint "
                f"lanes in flight; +{lanes} exceeds quota "
                f"{quota.max_lanes}",
                tenant=spec.tenant,
                retry_after_s=self.retry_after_hint(),
            )
        self._tenant_pending[spec.tenant] = tenant_pending + 1
        self._tenant_lanes[spec.tenant] = tenant_lanes + lanes

    def _count_reject(self, reason: str) -> None:
        if self.observer.enabled:
            self.observer.counter(
                "serve.gateway.rejected", reason=reason
            ).inc()

    def submit_nowait(self, spec: JobSpec) -> "asyncio.Future[ServeResult]":
        """Admit (or reject synchronously) and return the result future.

        Raises :class:`~repro.common.errors.AdmissionError` /
        :class:`~repro.common.errors.QuotaExceededError` *immediately*
        when the request is shed — rejection is an admission-time
        verdict, never a late failure.
        """
        if not self._started:
            raise ConfigError("gateway not started (use `async with`)")
        self._admit(spec)
        self.report_data.submitted += 1
        self.report_data.per_tenant[spec.tenant] = (
            self.report_data.per_tenant.get(spec.tenant, 0) + 1
        )
        if self.observer.enabled:
            self.observer.counter(
                "serve.gateway.submitted", tenant=spec.tenant
            ).inc()
        deadline_s = getattr(spec, "deadline_s", None)
        if deadline_s is None:
            deadline_s = self.resilience.default_deadline_s
        deadline_at = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        request = _Request(spec, self._loop.create_future(), deadline_at)
        request.queued = True
        self._queue.append(request)
        self._pump()
        return request.future

    async def submit(self, spec: JobSpec) -> ServeResult:
        """Admit a spec and await its result."""
        return await self.submit_nowait(spec)

    async def submit_retrying(
        self, spec: JobSpec, attempts: int = 8
    ) -> ServeResult:
        """Submit, honouring backpressure: sleep ``retry_after_s`` and
        retry on shed (the well-behaved-client loop)."""
        for attempt in range(attempts):
            try:
                return await self.submit(spec)
            except AdmissionError as exc:
                if exc.reason == "closed" or attempt == attempts - 1:
                    raise
                await asyncio.sleep(
                    exc.retry_after_s or self.config.retry_after_s
                )
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Dispatch + replies (event-loop thread only)
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Dispatch queued requests onto free devices.

        Breaker-gated: a device whose owning worker's circuit is OPEN
        is skipped this round (bounded scan, skipped devices return to
        the free list), so traffic routes around a flaky worker until
        its cooldown lapses and a half-open probe clears it. The
        monitor task re-pumps periodically, so skipped work is retried
        without any caller action.

        Each round ships one ``("runs", ...)`` frame per worker. With
        ``batch_window_s > 0`` an incomplete round (fewer queued
        requests than free live devices) is held open briefly so
        round-mates can coalesce into it; the window never delays a
        full round or a draining gateway, and it only affects frame
        *packing* — placement is the same footprint-aware round-robin
        either way.
        """
        window = self.exec.batch_window_s
        if window > 0 and self._queue and not self._closing:
            free_live = sum(
                1
                for d in self._free_devices
                if d not in self._dead_devices
            )
            if free_live and len(self._queue) < free_live:
                now = time.monotonic()
                if self._window_deadline is None:
                    self._window_deadline = now + window
                    self._loop.call_later(window, self._pump)
                if now < self._window_deadline:
                    return  # hold the round open for round-mates
        self._window_deadline = None
        by_worker: Dict[int, List[Tuple[_Request, int]]] = {}
        skipped = []
        now = time.monotonic()
        scan = len(self._free_devices)
        while self._queue and self._free_devices and scan > 0:
            scan -= 1
            device_id = self._free_devices.popleft()
            if device_id in self._dead_devices:
                continue
            worker_id = self._worker_of[device_id]
            if not self._links[worker_id].allow(now):
                skipped.append(device_id)
                continue
            by_worker.setdefault(worker_id, []).append(
                (self._queue.popleft(), device_id)
            )
        self._free_devices.extend(skipped)
        for worker_id, group in sorted(by_worker.items()):
            self._dispatch_frame(worker_id, group)
        if self.observer.enabled:
            self.observer.gauge("serve.gateway.queue_depth").set(
                len(self._queue)
            )
        if self._closing and not self._queue and not self._inflight_requests:
            self._drained.set()

    def _spec_bytes_out(self, spec: JobSpec) -> int:
        """Data bytes this spec ships to a worker (payload + golden)."""
        return payload_nbytes(spec.payload) + payload_nbytes(spec.golden)

    def _dispatch_frame(
        self,
        worker_id: int,
        pairs: List[Tuple[_Request, int]],
        is_hedge: bool = False,
    ) -> None:
        """Ship one ``("runs", ...)`` frame carrying ``pairs``."""
        now = time.monotonic()
        members = []
        for request, device_id in pairs:
            if (
                not is_hedge
                and request.deadline_at is not None
                and now >= request.deadline_at
            ):
                # The budget lapsed while queued: cancel instead of
                # burning a device on work whose caller already gave up.
                # (Hedges skip this — their primary may still answer —
                # and ship the lapsed budget for worker-side cancel.)
                if device_id not in self._dead_devices:
                    self._free_devices.append(device_id)
                self._cancel_deadline(request)
                continue
            members.append((request, device_id))
        link = self._links.get(worker_id)
        if link is None:
            # The worker died mid-pump: its round goes back to the queue.
            for request, _device_id in reversed(members):
                request.queued = True
                self._queue.appendleft(request)
            return
        if not members:
            return
        seq = next(self._seq)
        jobs = []
        for request, device_id in members:
            request.queued = False
            self._inflight_requests.add(request)
            request.pending_seqs.add(seq)
            self.report_data.payload_bytes_out += self._spec_bytes_out(
                request.spec
            )
            remaining = (
                None
                if request.deadline_at is None
                else request.deadline_at - now
            )
            jobs.append((device_id, request.spec, remaining))
        try:
            link.send(seq, members, jobs, is_hedge)
        except WorkerDiedError:
            # The reader thread will (or already did) report the death;
            # reporting here too is idempotent and keeps the requests on
            # the fast path to re-placement.
            self._on_worker_death(worker_id)

    def _cancel_deadline(self, request: _Request) -> None:
        """Fail a request whose wall-clock budget lapsed undispatched."""
        request.finished = True
        request.queued = False
        self._inflight_requests.discard(request)
        self._release_tenant(request)
        self.report_data.deadline_cancelled += 1
        self.report_data.failed += 1
        if self.observer.enabled:
            self.observer.counter("serve.deadline.cancelled").inc()
        if not request.future.done():
            request.future.set_exception(
                DeadlineExceededError(
                    f"request {request.spec.name!r} exceeded its "
                    f"wall-clock deadline before dispatch"
                )
            )

    def _on_message(self, worker_id: int, msg) -> None:
        link = self._links.get(worker_id)
        if link is None:
            return  # stale message from a worker already failed over
        if msg[0] == "results":
            _, seq, payload = msg
            self._on_results(link, seq, payload)
        elif msg[0] == "heartbeat":
            dropped = link.on_heartbeat(msg[2] or {})
            for frame in dropped:
                self._conclude_frame_lost(link, frame, "dropped")
            if dropped:
                self._pump()

    def _on_results(self, link: WorkerLink, seq: int, payload) -> None:
        dropped, frame = link.on_results(seq)
        for gapped in dropped:
            self._conclude_frame_lost(link, gapped, "dropped")
        if frame is None:
            return  # matches nothing outstanding: a stale frame
        for request, _device_id in frame.members:
            request.pending_seqs.discard(seq)
        if (
            not isinstance(payload, list)
            or len(payload) != len(frame.members)
            or not all(isinstance(r, dict) for r in payload)
        ):
            # A garbled frame: the seq routed it, the payload is junk.
            # One wire message, one fate — every member re-queues.
            self._conclude_frame_lost(link, frame, "garbled")
            self._pump()
            return
        link.record_success()
        for (request, device_id), reply in zip(frame.members, payload):
            reply = self._host_wire.decode_reply(link.worker_id, reply)
            self.report_data.payload_bytes_in += payload_nbytes(
                reply.get("output")
            )
            count_gang_outcome(self.observer, reply)
            self._settle_device(device_id, reply)
            if frame.concluded:
                # A reply that was merely late: this frame was already
                # concluded lost. If the member's retry is still
                # queued, answer it now; if it re-dispatched, let the
                # new flight answer.
                if not request.finished and request.queued:
                    try:
                        self._queue.remove(request)
                    except ValueError:
                        pass
                    else:
                        request.queued = False
                        self._finish(request, reply, device_id)
                continue
            if request.finished:
                # The hedge race was already decided by a sibling
                # dispatch; this reply's work was redundant (its device
                # is free again).
                continue
            if request.hedged:
                if frame.is_hedge:
                    self.report_data.hedges_won += 1
                    if self.observer.enabled:
                        self.observer.counter("serve.hedge.won").inc()
                else:
                    self.report_data.hedges_wasted += 1
                    if self.observer.enabled:
                        self.observer.counter("serve.hedge.wasted").inc()
            self._finish(request, reply, device_id)
        self._pump()

    def _settle_device(self, device_id: int, reply: dict) -> None:
        """Return a dispatch's device to rotation (or retire it)."""
        if reply.get("device_dead"):
            self._dead_devices.add(device_id)
            self._free_devices = deque(
                d for d in self._free_devices if d not in self._dead_devices
            )
        elif device_id not in self._dead_devices:
            self._free_devices.append(device_id)

    def _conclude_frame_lost(self, link: WorkerLink, frame, kind: str) -> None:
        """This frame's reply will never usefully arrive.

        One wire message, one fate: every member request is orphaned
        together, but the transport fault is accounted once per
        *frame* — the wire saw one loss, however many jobs rode it.
        Frees each member's device (unless the whole worker is gone —
        death failover retires those) and, for members with no sibling
        dispatch still able to answer, re-queues or fails the request.
        """
        if not link.conclude(frame, kind):
            return
        worker_gone = kind in WORKER_GONE
        for request, device_id in frame.members:
            request.pending_seqs.discard(frame.seq)
            if not worker_gone and device_id not in self._dead_devices:
                self._free_devices.append(device_id)
            if request.finished or request.queued or request.pending_seqs:
                continue
            self._requeue_or_fail(request, kind)

    def _requeue_or_fail(self, request: _Request, kind: str) -> None:
        """A request's last live dispatch is gone: retry or give up."""
        self._inflight_requests.discard(request)
        request.hedged = False
        request.retries += 1
        if request.retries <= self.config.max_retries and self.live_devices:
            self.report_data.retries += 1
            request.queued = True
            self._queue.appendleft(request)
            return
        request.finished = True
        self._release_tenant(request)
        self.report_data.failed += 1
        if not request.future.done():
            if kind == "died":
                exc: Exception = WorkerDiedError(
                    f"worker died and no retry capacity remains for "
                    f"{request.spec.name!r}"
                )
            elif kind == "unresponsive":
                exc = WorkerUnresponsiveError(
                    f"worker went unresponsive and no retry capacity "
                    f"remains for {request.spec.name!r}"
                )
            else:
                exc = WorkerTimeoutError(
                    f"reply for {request.spec.name!r} concluded lost "
                    f"({kind}) and no retry capacity remains"
                )
            request.future.set_exception(exc)

    def _finish(self, request: _Request, reply: dict, device_id: int) -> None:
        """Fold the winning reply into its request's future + ledgers.

        Device bookkeeping happens per *dispatch* (the caller settles
        the replying dispatch's device); this folds the request-level
        state: tenant release, deadline accounting, the result future.
        """
        request.finished = True
        request.queued = False
        self._inflight_requests.discard(request)
        self.report_data.plan_cache[reply["worker_id"]] = reply["plan_cache"]
        wall_s = time.perf_counter() - request.submitted_at
        self._ewma_wall_s = (
            wall_s
            if self._ewma_wall_s is None
            else 0.8 * self._ewma_wall_s + 0.2 * wall_s
        )
        result = ServeResult(
            name=request.spec.name,
            tenant=request.spec.tenant,
            output=reply["output"],
            validated=reply["validated"],
            service_cycles=reply["service_cycles"],
            energy_j=reply["energy_j"],
            spills=reply["spills"],
            restores=reply["restores"],
            error=reply["error"],
            worker_id=reply["worker_id"],
            device_id=device_id,
            wall_s=wall_s,
            retries=request.retries,
        )
        self._release_tenant(request)
        if result.ok:
            self.report_data.completed += 1
        else:
            self.report_data.failed += 1
        if reply.get("deadline_cancelled"):
            self.report_data.deadline_cancelled += 1
            if self.observer.enabled:
                self.observer.counter("serve.deadline.cancelled").inc()
        elif request.deadline_at is not None:
            if time.monotonic() <= request.deadline_at:
                self.report_data.deadline_met += 1
                if self.observer.enabled:
                    self.observer.counter("serve.deadline.met").inc()
            else:
                self.report_data.deadline_missed += 1
                if self.observer.enabled:
                    self.observer.counter("serve.deadline.missed").inc()
        self.report_data.wall_latencies_s.append(wall_s)
        if self.observer.enabled:
            self.observer.counter(
                "serve.gateway.completed", tenant=result.tenant
            ).inc()
            self.observer.histogram("serve.gateway.wall_us").observe(
                wall_s * 1e6
            )
        if not request.future.done():
            request.future.set_result(result)

    def _release_tenant(self, request: _Request) -> None:
        tenant = request.spec.tenant
        self._tenant_pending[tenant] = max(
            0, self._tenant_pending.get(tenant, 0) - 1
        )
        self._tenant_lanes[tenant] = max(
            0, self._tenant_lanes.get(tenant, 0) - request.spec.footprint.lanes
        )

    def _on_worker_death(
        self, worker_id: int, unresponsive: bool = False
    ) -> None:
        """Fail over a gone worker: retire devices, conclude its wire.

        ``unresponsive=True`` is the hang verdict's entry point (the
        monitor terminated a live-but-silent worker): same failover,
        separate accounting.
        """
        link = self._links.pop(worker_id, None)
        if link is None:
            return
        kind = "unresponsive" if unresponsive else "died"
        if not unresponsive:
            self.report_data.worker_deaths += 1
            if self.observer.enabled:
                self.observer.counter("serve.gateway.worker_deaths").inc()
        self._dead_devices.update(link.handle.device_ids)
        self._free_devices = deque(
            d for d in self._free_devices if d not in self._dead_devices
        )
        # A dead worker cannot still be reading the arena.
        for frame in link.drain():
            self._conclude_frame_lost(link, frame, kind)
        if not self.live_devices:
            # Total capacity loss: everything still queued fails fast.
            while self._queue:
                request = self._queue.popleft()
                request.finished = True
                request.queued = False
                self._release_tenant(request)
                self.report_data.failed += 1
                if not request.future.done():
                    request.future.set_exception(
                        AdmissionError(
                            "all serving capacity lost", reason="capacity"
                        )
                    )
        self._pump()

    # ------------------------------------------------------------------
    # The monitor task (hangs, deadlines, hedges, timeouts)
    # ------------------------------------------------------------------

    async def _monitor_main(self) -> None:
        """The resilience clock, ~every 20 ms on the event loop."""
        try:
            while True:
                await asyncio.sleep(_MONITOR_PERIOD_S)
                self._tick(time.monotonic())
        except asyncio.CancelledError:
            raise

    def _tick(self, now: float) -> None:
        """One monitor pass: escalate everything the wall clock owes."""
        if not self._started or self._closed:
            return
        # Queued requests whose deadline lapsed are cancelled, not run.
        if self._queue:
            expired = [
                r
                for r in self._queue
                if r.deadline_at is not None and now >= r.deadline_at
            ]
            if expired:
                gone = set(id(r) for r in expired)
                self._queue = deque(
                    r for r in self._queue if id(r) not in gone
                )
                for request in expired:
                    self._cancel_deadline(request)
        # Hang detection: a worker that owes work and has been totally
        # silent (no reply, no heartbeat) past the budget is wedged.
        budget = silence_budget_s(self.resilience, self.config.worker_timeout)
        for worker_id, link in sorted(self._links.items()):
            if link.silent(now, budget):
                self._declare_unresponsive(worker_id)
        # Per-frame escalations, in dispatch order: timeout conclusions
        # and hedging.
        threshold = self.resilience.hedge_threshold(self._ewma_wall_s)
        frames = sorted(
            (
                (frame, link)
                for link in self._links.values()
                for frame in link.frames
            ),
            key=lambda pair: pair[0].seq,
        )
        for frame, link in frames:
            if frame.concluded:
                continue
            age = now - frame.sent_at
            # Unread messages from the worker mean this process fell
            # behind; judge the frame once they are read.
            if age > self.config.worker_timeout and not link.handle.poll():
                # No token release here: a timeout is a verdict about
                # the caller's patience, not proof the worker stopped
                # reading. The blocks stay pinned until a FIFO proof,
                # the worker's death, or close() unlinks the arena.
                self._conclude_frame_lost(link, frame, "timeout")
                continue
            if threshold is None or frame.is_hedge or age <= threshold:
                continue
            for request, _device_id in frame.members:
                if not request.hedged and not request.finished:
                    self._maybe_hedge(request, frame, now)
        self._pump()

    def _declare_unresponsive(self, worker_id: int) -> None:
        """Hang verdict: terminate the wedged process, fail over."""
        link = self._links.get(worker_id)
        if link is None:
            return
        if not link.handle.alive:
            self._on_worker_death(worker_id)
            return
        self.report_data.worker_unresponsive += 1
        if self.observer.enabled:
            self.observer.counter("serve.worker.unresponsive").inc()
        link.record_fault("hang")
        link.handle.terminate(timeout=0.0)
        self._on_worker_death(worker_id, unresponsive=True)

    def _maybe_hedge(self, request: _Request, primary, now: float) -> None:
        """Re-dispatch a straggler to a free device on another worker.

        The hedge rides its own single-member frame and occupies a free
        device like any dispatch; whichever reply lands first completes
        the future (replies are content-deterministic, so the race only
        decides *when*, never *what*), and the loser's reply just
        returns its device.
        """
        for device_id in list(self._free_devices):
            if device_id in self._dead_devices:
                continue
            worker_id = self._worker_of[device_id]
            if worker_id == primary.worker_id:
                continue
            if not self._links[worker_id].allow(now):
                continue
            self._free_devices.remove(device_id)
            request.hedged = True
            self.report_data.hedges_issued += 1
            if self.observer.enabled:
                self.observer.counter("serve.hedge.issued").inc()
            self._dispatch_frame(
                worker_id, [(request, device_id)], is_hedge=True
            )
            return

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> GatewayReport:
        """The gateway's aggregate counters (live view)."""
        return self.report_data

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else "draining"
            if self._closing
            else "open"
            if self._started
            else "new"
        )
        return (
            f"Gateway({state}, devices={self.live_devices}/"
            f"{len(self._device_config)}, pending={self.pending})"
        )
