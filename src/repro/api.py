"""Stable public facade for the CAPE reproduction.

The library is layered bottom-up (circuits, CSB, assoc, engine, runtime,
obs) and each layer is importable on its own — but the deep module paths
are an implementation detail that may shift between releases. This
module is the supported surface: everything a user script needs is
importable from ``repro.api``, and these names are kept stable.

Three levels of entry:

* :func:`submit` — the unified submission API: one call takes
  :class:`JobSpec` descriptions and runs them on a single device
  (``pool=None``), an in-process :class:`DevicePool` / process-sharded
  :class:`ServePool` (``pool=<pool instance>``), or a fresh asyncio
  :class:`Gateway` (``pool=ServeConfig(...)``) — returning
  :class:`JobResult`\\ s everywhere. Execution shape (workers, gang
  and superplan modes, wire, batching window) rides in one
  :class:`ExecConfig`, the ``exec=`` of every surface.
* :class:`Device` — a CAPE system plus its memory and an assembler-aware
  ``run`` method; pick a design point (:data:`CAPE32K` /
  :data:`CAPE131K`) and optionally a bit-level execution backend.
* the re-exported building blocks (:class:`CAPESystem`, :class:`Job`,
  :class:`DevicePool`, the error taxonomy) for everything else.

Ad-hoc assembly programs run through :meth:`Device.run`, or through
:func:`submit` with the ``"program"`` kernel.

Execution backends
------------------

Every device runs the paper's functional + timing model. Passing
``backend="bitplane"`` (packed bit planes, fast) or
``backend="reference"`` (the per-subarray ground truth, slower)
additionally executes each vector intrinsic as real associative
microcode on a bit-level CSB mirror and cross-validates the results
bit-exactly — see ``docs/BACKENDS.md``.

Observability
-------------

Every layer publishes counters and trace events into an
:class:`Observer` (``Device(..., observer=...)``,
``DevicePool(..., observer=...)``); the default null observer costs one
attribute check. ``Device.run(..., trace=True)`` attaches a fresh
observer for the run and hands back its tracer on the result
(``result.trace.write_chrome("run.trace.json")`` opens in Perfetto).
See ``docs/OBSERVABILITY.md``.

Stats surfaces share one contract — :class:`CAPERunStats` (one run),
:class:`TelemetryReport` (a pool), :class:`ProfileReport` (per-kernel
breakdowns) all offer ``.as_dict()`` and ``.summary()``.

Fault injection
---------------

A seeded :class:`FaultPlan` (stuck bitcells, transient tag flips, chain
kills, HBM transfer corruption, whole-device death) drives the
self-healing runtime: ``DevicePool(..., fault_plan=plan)`` retries,
quarantines, and re-places deterministically. See ``docs/FAULTS.md``.

Example::

    from repro.api import CAPE32K, Device

    dev = Device(CAPE32K, backend="bitplane")
    dev.write_words(0x1000, [1, 2, 3, 4])
    result = dev.run('''
        li a0, 4
        li a1, 0x1000
        vsetvli t0, a0, e32
        vle32.v v1, (a1)
        vadd.vv v2, v1, v1
        vse32.v v2, (a1)
        ecall
    ''')
    print(dev.read_words(0x1000, 4), result.cycles)
    print(result.stats.summary())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from repro.assoc.emulator import AssociativeEmulator, golden
from repro.common.errors import (
    AdmissionError,
    CapacityError,
    ConfigError,
    CSBCapacityError,
    DeviceFailedError,
    FaultInjectionError,
    PageFault,
    PoolStalledError,
    ProtocolError,
    QuotaExceededError,
    ReproError,
    RetryExhaustedError,
    SpillCorruptionError,
    DeadlineExceededError,
    WorkerDiedError,
    WorkerTimeoutError,
    WorkerUnresponsiveError,
)
from repro.csb import BACKEND_NAMES, CSB, Chain, ExecutionBackend, Subarray
from repro.engine.system import (
    CAPE32K,
    CAPE131K,
    CAPEConfig,
    CAPESystem,
)
from repro.faults import (
    ChainKill,
    DeviceKill,
    FaultInjector,
    FaultPlan,
    ReplyDrop,
    ReplyGarble,
    SlowWorker,
    StuckBit,
    TagFlip,
    TransferFault,
    TransportSchedule,
    WorkerHang,
    WorkerKill,
)
from repro.isa.interpreter import Machine, MachineResult
from repro.memory.mainmem import WordMemory
from repro.obs import (
    CAPERunStats,
    MetricsRegistry,
    NullObserver,
    Observer,
    ProfileReport,
    Tracer,
)
from repro.gang import GANG_MODES, GangOutcome, run_ganged
from repro.plan import GLOBAL_PLAN_CACHE, CompiledPlan, PlanCache, Superplan
from repro.runtime import (
    DevicePool,
    ExecConfig,
    Footprint,
    Job,
    JobResult,
    SegmentedJob,
    TelemetryReport,
)
from repro.serve import (
    CircuitBreaker,
    Gateway,
    GatewayReport,
    JobSpec,
    ResilienceConfig,
    ServeConfig,
    ServePool,
    ServeResult,
    TenantQuota,
    register_kernel,
)

__all__ = [
    "AdmissionError",
    "BACKEND_NAMES",
    "CAPE131K",
    "CAPE32K",
    "CAPEConfig",
    "CAPERunStats",
    "CAPESystem",
    "CSB",
    "CSBCapacityError",
    "CapacityError",
    "Chain",
    "ChainKill",
    "CircuitBreaker",
    "ConfigError",
    "DeadlineExceededError",
    "Device",
    "DeviceFailedError",
    "DeviceKill",
    "DevicePool",
    "CompiledPlan",
    "ExecConfig",
    "ExecutionBackend",
    "GANG_MODES",
    "GangOutcome",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "Footprint",
    "GLOBAL_PLAN_CACHE",
    "Gateway",
    "GatewayReport",
    "Job",
    "JobResult",
    "JobSpec",
    "Machine",
    "MachineResult",
    "MetricsRegistry",
    "NullObserver",
    "Observer",
    "PageFault",
    "PlanCache",
    "PoolStalledError",
    "ProfileReport",
    "ProtocolError",
    "QuotaExceededError",
    "ReplyDrop",
    "ReplyGarble",
    "ReproError",
    "ResilienceConfig",
    "RetryExhaustedError",
    "RunResult",
    "SegmentedJob",
    "ServeConfig",
    "ServePool",
    "ServeResult",
    "SlowWorker",
    "SpillCorruptionError",
    "StuckBit",
    "Subarray",
    "Superplan",
    "TagFlip",
    "TelemetryReport",
    "TenantQuota",
    "Tracer",
    "TransferFault",
    "TransportSchedule",
    "WorkerDiedError",
    "WorkerHang",
    "WorkerKill",
    "WorkerTimeoutError",
    "WorkerUnresponsiveError",
    "AssociativeEmulator",
    "golden",
    "plan_cache_snapshot",
    "register_kernel",
    "run_ganged",
    "submit",
]


def plan_cache_snapshot(cache: Optional[PlanCache] = None) -> dict:
    """One consistent read of a plan cache's counters.

    The single stats surface for every tier: benchmarks, the serving
    workers' reply payloads, and ad-hoc scripts all read the same
    :meth:`PlanCache.snapshot` dict — ``entries`` / ``superplans`` /
    ``hits`` / ``misses`` / ``compiles`` / ``compile_ns``. Defaults to the
    process-wide :data:`GLOBAL_PLAN_CACHE`; pass a private
    :class:`PlanCache` to read that one instead.
    """
    return (GLOBAL_PLAN_CACHE if cache is None else cache).snapshot()


@dataclass
class RunResult:
    """Outcome of :meth:`Device.run`.

    The interesting fields up front — ``values`` (the scalar register
    file at halt), ``cycles``, ``stats`` (the run's
    :class:`CAPERunStats`), and ``trace`` (a :class:`Tracer` when the
    run was traced, else ``None``). Every :class:`MachineResult` field
    (``seconds``, ``instructions``, ``halted``, ``xregs``, ...) remains
    available by delegation, so existing callers keep working.
    """

    values: list
    cycles: float
    stats: CAPERunStats
    trace: Optional[Tracer] = None
    machine: Optional[MachineResult] = None

    def __getattr__(self, name: str):
        machine = object.__getattribute__(self, "machine")
        if machine is not None and not name.startswith("_"):
            return getattr(machine, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def as_dict(self) -> dict:
        """JSON-able export (stats flattened; trace omitted)."""
        return {
            "values": list(self.values),
            "cycles": self.cycles,
            "halted": self.machine.halted if self.machine else None,
            "instructions": self.machine.instructions if self.machine else None,
            "stats": self.stats.as_dict(),
        }

    def summary(self) -> str:
        """The run's one-paragraph stats summary."""
        return self.stats.summary()


class Device:
    """One CAPE device: a system model plus convenience entry points.

    The device charges every vector instruction its Table I
    closed-form cycles; the cycles our microcode measures are an
    :class:`~repro.assoc.instruction_model.InstructionModel` report
    (``InstructionModel.measure``), not a device setting.

    Args:
        config: design point (:data:`CAPE32K`, :data:`CAPE131K`, or any
            :class:`CAPEConfig`).
        backend: optional bit-level execution backend —
            ``"bitplane"`` (vectorized) or ``"reference"`` (per-subarray
            loop). ``None`` (default) runs the functional/timing model
            only. See :data:`BACKEND_NAMES`.
        memory_bytes: functional main-memory size (defaults to the
            system's 64 MiB store).
        observer: optional :class:`Observer` receiving counters and
            trace events from every layer; defaults to the shared
            zero-overhead null observer.
        plan_cache: where the compiled microcode plans every dispatch
            replays are kept — ``True`` (default) shares
            :data:`GLOBAL_PLAN_CACHE` across all devices in the
            process, ``False``/``None`` keeps nothing (each dispatch
            compiles its plan afresh), or pass a private
            :class:`PlanCache`. Purely a host-speed knob; cycle/energy
            accounting is identical (``docs/PERFORMANCE.md``).
        superplan: inside a :meth:`CAPESystem.superplan_scope`, fuse
            eligible mirror microcode into one cached whole-kernel
            trace and replay it in a single pass. Also a pure
            host-speed knob — results, cycles, and microop totals are
            bit-identical either way (``docs/PERFORMANCE.md``).
    """

    def __init__(
        self,
        config: CAPEConfig = CAPE32K,
        backend: Optional[str] = None,
        memory_bytes: Optional[int] = None,
        observer: Optional[Observer] = None,
        plan_cache=True,
        superplan=False,
    ) -> None:
        self.system = CAPESystem(
            config,
            memory=WordMemory(memory_bytes) if memory_bytes is not None else None,
            backend=backend,
            observer=observer,
            plan_cache=plan_cache,
            superplan=superplan,
        )

    # -- identity ------------------------------------------------------

    @property
    def config(self) -> CAPEConfig:
        """The device's design point."""
        return self.system.config

    @property
    def backend(self) -> Optional[str]:
        """Active bit-level backend name, or ``None`` (functional only)."""
        return self.system.backend

    def set_backend(self, backend: Optional[str]) -> None:
        """Switch the bit-level backend (state is re-mirrored)."""
        self.system.set_backend(backend)

    @property
    def max_vl(self) -> int:
        """Maximum vector length of the design point."""
        return self.system.config.max_vl

    @property
    def stats(self) -> CAPERunStats:
        """Cumulative run statistics (cycles, energy, instruction mix)."""
        return self.system.stats

    @property
    def observer(self) -> Observer:
        """The observer the device publishes into (possibly null)."""
        return self.system.observer

    def attach_observer(self, observer: Optional[Observer]) -> None:
        """(Re)thread an observer through every layer of the device."""
        self.system.attach_observer(observer)

    def __repr__(self) -> str:
        backend = f", backend={self.backend!r}" if self.backend else ""
        return f"Device({self.config.name}{backend})"

    # -- memory --------------------------------------------------------

    @property
    def memory(self) -> WordMemory:
        """The device's word-addressed functional memory."""
        return self.system.memory

    def write_words(self, addr: int, values: Sequence[int]) -> None:
        """Write 32-bit words to main memory at byte address ``addr``."""
        self.system.memory.write_words(addr, np.asarray(values))

    def read_words(self, addr: int, count: int) -> np.ndarray:
        """Read ``count`` 32-bit words from byte address ``addr``."""
        return self.system.memory.read_words(addr, count)

    # -- execution -----------------------------------------------------

    def run(
        self,
        program: str,
        max_steps: int = 2_000_000,
        trace: bool = False,
    ) -> RunResult:
        """Assemble and execute a RISC-V (RV64I + RVV subset) program.

        With ``trace=True`` and no live observer attached, a fresh
        :class:`Observer` is threaded through the device for this run
        and its :class:`Tracer` is returned on ``result.trace``. A
        device built with an enabled observer always records; its tracer
        rides along on the result.
        """
        attached = None
        if trace and not self.system.observer.enabled:
            attached = Observer()
            self.system.attach_observer(attached)
        try:
            machine = Machine(program, self.system).run(max_steps=max_steps)
        finally:
            if attached is not None:
                self.system.attach_observer(None)
        observer = attached if attached is not None else self.system.observer
        return RunResult(
            values=list(machine.xregs),
            cycles=machine.cycles,
            stats=self.system.stats,
            trace=observer.tracer if observer.enabled else None,
            machine=machine,
        )

    def run_workload(self, workload: Any) -> Any:
        """Run a ``repro.workloads`` kernel on this device."""
        return workload.run_cape(self.system)

    def submit(self, body: Callable[[CAPESystem], Any]) -> Any:
        """Run an intrinsic-level callable against the device's system."""
        return body(self.system)

    def reset(self) -> None:
        """Clear vector state, statistics, and the bit-level mirror."""
        self.system.reset()


def _serve_result_to_job_result(result: ServeResult) -> JobResult:
    return JobResult(
        output=result.output,
        validated=bool(result.validated),
        service_cycles=result.service_cycles,
        energy_j=result.energy_j,
        spills=result.spills,
        restores=result.restores,
        error=result.error,
    )


def submit(
    specs: Union[JobSpec, Sequence[JobSpec]],
    *,
    pool: Union[None, DevicePool, ServeConfig] = None,
    exec: ExecConfig = ExecConfig(),
    config: CAPEConfig = CAPE32K,
    backend: Optional[str] = None,
    observer: Optional[Observer] = None,
    interarrival_cycles: float = 0.0,
) -> Union[JobResult, List[JobResult]]:
    """The unified submission API: specs in, :class:`JobResult`\\ s out.

    One entry point spans every execution surface; ``pool=`` selects it:

    * ``None`` — a fresh single :class:`Device` of ``config`` (and
      optional ``backend``) executes the specs sequentially, with the
      ``superplan`` of ``exec`` and the process-wide plan cache.
    * a :class:`DevicePool` or :class:`ServePool` *instance* — the specs
      are submitted (spaced by ``interarrival_cycles``) and the pool is
      drained. The pool's own construction fixed its execution shape,
      so a non-default ``exec`` and ``config`` / ``backend`` /
      ``observer`` must not also be given. Submitting again to the same
      pool continues its clock against warm devices and plan caches.
    * a :class:`ServeConfig` — a fresh asyncio :class:`Gateway` with
      execution shape ``exec`` serves the specs.

    ``exec`` is the one :class:`ExecConfig` for worker, gang,
    superplan, and serving data-plane knobs (``wire`` picks the
    shared-memory vs pickle payload path, ``batch_window_s`` the
    gateway's micro-batching window — docs/SERVING.md). Returns a
    single :class:`JobResult` when ``specs`` is a single
    :class:`JobSpec`, else a list in submission order. Jobs that need
    the callable form can be bridged with :meth:`JobSpec.from_job` /
    :meth:`Job.from_spec`.
    """
    single = isinstance(specs, JobSpec)
    spec_list: List[JobSpec] = [specs] if single else list(specs)
    for spec in spec_list:
        if not isinstance(spec, JobSpec):
            raise ConfigError(
                f"submit() takes JobSpec descriptions, got "
                f"{type(spec).__name__} (wrap a Job with JobSpec.from_job)"
            )
    if not isinstance(exec, ExecConfig):
        raise ConfigError(
            f"exec must be an ExecConfig, got {type(exec).__name__}"
        )

    if pool is None:
        device = Device(
            config,
            backend=backend,
            observer=observer,
            superplan=exec.superplan,
        )
        results = []
        for spec in spec_list:
            device.reset()
            job = Job.from_spec(spec)
            job.result = job.execute(device.system)
            results.append(job.result)
    elif isinstance(pool, DevicePool):
        rejected = [
            name
            for name, given in (
                ("exec", exec != ExecConfig()),
                ("config", config is not CAPE32K),
                ("backend", backend is not None),
                ("observer", observer is not None),
            )
            if given
        ]
        if rejected:
            raise ConfigError(
                f"pool= reuses an existing pool whose construction already "
                f"fixed {', '.join(rejected)}; set them when building the "
                f"pool"
            )
        jobs = [Job.from_spec(spec) for spec in spec_list]
        base = pool.clock.now
        for i, job in enumerate(jobs):
            pool.submit(job, at_cycle=base + i * interarrival_cycles)
        pool.run()
        results = [job.result for job in jobs]
    elif isinstance(pool, ServeConfig):
        import asyncio

        serve_config = pool

        async def _main() -> list:
            async with Gateway(
                serve_config, observer=observer, exec=exec
            ) as gateway:
                return list(
                    await asyncio.gather(
                        *(gateway.submit_retrying(s) for s in spec_list)
                    )
                )

        results = [_serve_result_to_job_result(r) for r in asyncio.run(_main())]
    else:
        raise ConfigError(
            f"pool= must be None, a DevicePool/ServePool instance, or a "
            f"ServeConfig, got {type(pool).__name__}"
        )
    return results[0] if single else results
