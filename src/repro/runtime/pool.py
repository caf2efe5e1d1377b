"""Device pool: shard a job stream across N CAPE systems.

The pool turns the single-shot simulator into a servable engine: a
stream of jobs is placed across a heterogeneous set of
:class:`~repro.engine.system.CAPESystem` devices (mixing CAPE32k and
CAPE131k presets), each with its own queue, and a simulated clock
interleaves the device timelines deterministically.

Placement is *capacity-aware best-fit*: a job goes to the
smallest-capacity device whose CSB holds its resident footprint — big
devices stay free for the jobs that actually need their lanes — with
queue length breaking ties. Jobs too large for every device are either
spill-served on the largest device (segmented jobs, through
:mod:`repro.runtime.context`) or refused with the structured
:class:`~repro.common.errors.CSBCapacityError`.

Idle devices steal queued work from the most-loaded peer (from the tail
of its queue, classic work-stealing order), so one hot queue cannot
leave the rest of the pool dark.

The pool is also *self-healing*: each device carries a
:class:`~repro.runtime.health.DeviceHealth` ledger. A failed job is
retried on another device (bounded attempts, exponential backoff in
device cycles); a device that fails ``failure_threshold`` jobs in a row
is quarantined for a time-boxed backoff and then re-admitted on
probation with a small probe job; a device whose fault injector reports
whole-device death is retired permanently and its queue re-placed. When
every path is exhausted — the event budget runs out or every serviceable
device is quarantined/dead with work still queued — :meth:`DevicePool.run`
raises :class:`~repro.common.errors.PoolStalledError` naming the stuck
jobs instead of silently returning.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import (
    ConfigError,
    CSBCapacityError,
    DeviceFailedError,
    PoolStalledError,
    RetryExhaustedError,
)
from repro.engine.system import CAPE32K, CAPE131K, CAPEConfig, CAPESystem
from repro.faults.injector import FaultInjector
from repro.gang import run_ganged
from repro.memory.mainmem import WordMemory
from repro.obs.observer import NULL_OBSERVER

from repro.runtime.clock import SimClock
from repro.runtime.execconfig import ExecConfig
from repro.runtime.health import DeviceHealth, HealthState
from repro.runtime.job import Job, JobState
from repro.runtime.scheduler import Scheduler
from repro.runtime._telemetry import DeviceRecord, Telemetry, TelemetryReport

#: Default pool shape: two small shards + one large for capacity-hungry
#: jobs, mirroring the paper's two design points.
DEFAULT_POOL = (CAPE32K, CAPE32K, CAPE131K)


def build_system(
    config: CAPEConfig,
    device_id: int,
    memory_bytes: Optional[int] = None,
    backend: Optional[str] = None,
    fault_plan=None,
    exec: ExecConfig = ExecConfig(),
    plan_cache=True,
) -> CAPESystem:
    """Build pool device ``device_id``: the one device recipe.

    :class:`DevicePool` builds its devices here, and so does every
    ``repro.serve`` worker for its shard, which is what makes served
    results, cycles and energy bit-identical to in-process ones. With a
    ``fault_plan`` the system carries a
    :class:`~repro.faults.FaultInjector` over the device's slice of the
    plan (``fault_plan.for_device(device_id)``) as its
    ``fault_injector``; ``exec.superplan`` goes to the system, and
    ``plan_cache`` is the system's ``plan_cache=`` (the process-wide
    cache by default).
    """
    return CAPESystem(
        config,
        memory=WordMemory(memory_bytes) if memory_bytes is not None else None,
        backend=backend,
        fault_injector=(
            FaultInjector(fault_plan.for_device(device_id))
            if fault_plan is not None
            else None
        ),
        plan_cache=plan_cache,
        superplan=exec.superplan,
    )


class Device:
    """One pool shard: a CAPE system plus its queue and timeline."""

    def __init__(self, device_id: int, system: CAPESystem) -> None:
        self.device_id = device_id
        self.system = system
        self.queue: Deque[Job] = deque()
        self.current: Optional[Job] = None
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.jobs_run = 0
        self.lane_occupancies: List[float] = []
        self.health = DeviceHealth()

    @property
    def injector(self) -> Optional[FaultInjector]:
        """The system's fault injector (``None`` without a fault plan)."""
        return self.system.fault_injector

    @property
    def config(self) -> CAPEConfig:
        return self.system.config

    @property
    def name(self) -> str:
        return f"{self.config.name}#{self.device_id}"

    @property
    def load(self) -> int:
        """Queued plus running jobs — the placement tie-breaker."""
        return len(self.queue) + (1 if self.current is not None else 0)

    def __repr__(self) -> str:
        return f"Device({self.name}, load={self.load})"


class DevicePool:
    """A multi-tenant CAPE runtime over a pool of devices.

    Typical use::

        pool = DevicePool(policy="sjf")
        for job in jobs:
            pool.submit(job)
        report = pool.run()
        print(report.job_table())

    Every device comes from :func:`build_system` and charges each
    vector instruction its Table I closed-form cycles; the cycles our
    microcode measures are an
    :class:`~repro.assoc.instruction_model.InstructionModel` report.

    Args:
        configs: design points, one device per entry (mixed presets
            welcome).
        policy: queue-ordering policy name or instance (see
            :mod:`repro.runtime.scheduler`).
        work_stealing: let idle devices pull from loaded peers.
        memory_bytes: per-device functional memory size (defaults to
            each system's 64 MiB store).
        backend: execution backend selected on every device
            (``"reference"`` or ``"bitplane"``); ``None`` keeps the
            fast functional-only path. Individual jobs may still
            override it via ``Job(backend=...)``.
        observer: optional :class:`repro.obs.Observer`. Each device's
            system publishes under a ``device=<name>`` label, and the
            pool itself records scheduling events (arrivals, job spans
            per device lane, steals) on the simulated-cycle timeline.
        fault_plan: optional :class:`repro.faults.FaultPlan`; each device
            gets a :class:`repro.faults.FaultInjector` over its slice of
            the plan (``plan.for_device(i)``), and the self-healing
            machinery below keeps the stream running through the
            injected failures. ``None`` leaves every injection hook as a
            single ``None`` check.
        max_retries: failed-job re-executions allowed after the first
            attempt before the job is declared FAILED with
            :class:`~repro.common.errors.RetryExhaustedError`.
        failure_threshold: consecutive failures that quarantine a device.
        quarantine_cycles: first quarantine's length in device cycles
            (doubles on each re-quarantine).
        retry_backoff_cycles: base delay before a failed job is
            re-queued (doubles per attempt).
        exec: the :class:`~repro.runtime.execconfig.ExecConfig`
            execution shape. Its ``superplan`` goes to every device's
            system (by default each job body runs inside a superplan
            scope); every device shares the process-wide plan cache.
            Its ``gang`` mode is handed to
            :func:`repro.gang.run_ganged` for every wave: eligible
            bit-plane jobs with matching plan-key streams replay their
            mirrors as one stacked gang, the rest run per device.
            Results, cycles, energy, and microop totals are
            bit-identical in every mode — see ``docs/GANG.md`` and
            ``docs/PERFORMANCE.md``.
    """

    def __init__(
        self,
        configs: Sequence[CAPEConfig] = DEFAULT_POOL,
        policy="fifo",
        work_stealing: bool = True,
        memory_bytes: Optional[int] = None,
        backend: Optional[str] = None,
        observer=None,
        fault_plan=None,
        max_retries: int = 3,
        failure_threshold: int = 3,
        quarantine_cycles: float = 50_000.0,
        retry_backoff_cycles: float = 1_000.0,
        exec: ExecConfig = ExecConfig(),
    ) -> None:
        if not configs:
            raise ConfigError("a pool needs at least one device")
        if not isinstance(exec, ExecConfig):
            raise ConfigError(
                f"exec must be an ExecConfig, got {type(exec).__name__}"
            )
        self.exec = exec
        self.clock = SimClock()
        self.scheduler = Scheduler(policy)
        self.telemetry = Telemetry()
        self.work_stealing = work_stealing
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.retry_backoff_cycles = retry_backoff_cycles
        #: The wave under construction: jobs started by the current
        #: timestamp's events, executed together once it is drained.
        self._launching: List[Tuple[Device, Job]] = []
        self.devices = []
        for i, config in enumerate(configs):
            system = build_system(
                config, i, memory_bytes, backend, fault_plan, exec
            )
            device = Device(i, system)
            device.health = DeviceHealth(
                failure_threshold=failure_threshold,
                quarantine_cycles=quarantine_cycles,
            )
            system.attach_observer(
                self.observer.labelled(device=device.name)
            )
            self.devices.append(device)
        self._submitted: List[Job] = []
        #: Jobs with no accepting device right now; replayed on the next
        #: probationary re-admission.
        self._parked: List[Job] = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, job: Job, at_cycle: float = 0.0) -> Job:
        """Enqueue a job to arrive at ``at_cycle`` on the shared clock."""
        if job.state is not JobState.PENDING:
            raise ConfigError(f"{job!r} was already submitted")
        job.state = JobState.QUEUED
        self._submitted.append(job)
        self.clock.schedule_at(at_cycle, lambda j=job: self._arrive(j))
        return job

    def submit_stream(
        self, jobs: Iterable[Job], interarrival_cycles: float = 0.0
    ) -> List[Job]:
        """Submit jobs with a fixed interarrival spacing."""
        out = []
        for i, job in enumerate(jobs):
            out.append(self.submit(job, at_cycle=i * interarrival_cycles))
        return out

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def place(self, job: Job, exclude: Sequence[int] = ()) -> Device:
        """Choose the device a job queues on (capacity-aware best-fit).

        Only devices whose health ledger is *accepting* (healthy or on
        probation) are candidates; ``exclude`` softly steers a retried
        job away from the device that just failed it, unless no other
        accepting device exists. Raises
        :class:`~repro.common.errors.DeviceFailedError` when every
        device is quarantined or dead.
        """
        live = [d for d in self.devices if d.health.accepting]
        if not live:
            raise DeviceFailedError(
                f"no accepting device for job {job.name!r}: "
                f"every device is quarantined or dead"
            )
        candidates = [d for d in live if d.device_id not in exclude] or live
        fitting = [d for d in candidates if job.footprint.fits(d.config)]
        if fitting:
            return min(
                fitting,
                key=lambda d: (d.config.max_vl, d.load, d.device_id),
            )
        if job.spillable:
            # Serve on the largest device: fewest segments, least spill
            # traffic per pass.
            return min(
                candidates,
                key=lambda d: (-d.config.max_vl, d.load, d.device_id),
            )
        best = max(d.config.max_vl for d in self.devices)
        raise CSBCapacityError(
            f"job {job.name!r} needs {job.footprint.lanes} resident lanes; "
            f"largest device offers {best} and the job is not spill-servable",
            requested_lanes=job.footprint.lanes,
            available_lanes=best,
            cols_per_chain=self.devices[0].config.cols_per_chain,
            requested_registers=job.footprint.vregs,
            available_registers=CAPESystem.NUM_VREGS,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _arrive(self, job: Job) -> None:
        job.submit_cycle = self.clock.now
        device = self._enqueue(job)
        if self.observer.enabled:
            self.observer.counter("runtime.jobs", event="arrived").inc()
            if device is not None:
                self.observer.instant(
                    f"arrive:{job.name}", "runtime", ts=self.clock.now,
                    tid=device.name, lanes=job.footprint.lanes,
                )

    def _enqueue(self, job: Job, exclude: Sequence[int] = ()) -> Optional[Device]:
        """Place and queue a job; park it when no device is accepting."""
        try:
            device = self.place(job, exclude=exclude)
        except DeviceFailedError:
            self._parked.append(job)
            if self.observer.enabled:
                self.observer.instant(
                    f"park:{job.name}", "runtime",
                    ts=self.clock.now, tid="pool",
                )
            return None
        self.scheduler.admit(job, device.config)  # raises if unservable
        device.queue.append(job)
        self.telemetry.sample_queue(
            device.device_id, self.clock.now, len(device.queue)
        )
        obs = self.observer
        if obs.enabled:
            obs.histogram("runtime.queue_depth", device=device.name).observe(
                len(device.queue)
            )
        self._dispatch(device)
        if self.work_stealing and device.current is not None:
            # The placed device is busy: let an idle peer steal the work
            # rather than leaving it dark until its next completion.
            for peer in self.devices:
                if peer.current is None and not peer.queue:
                    self._dispatch(peer)
        return device

    def _dispatch(self, device: Device) -> None:
        if device.current is not None or not device.health.accepting:
            return
        if device.health.state is HealthState.PROBATION:
            # Risk the cheapest queued job on silicon fresh out of
            # quarantine, whatever the configured ordering policy.
            job = self.scheduler.pick_probe(device.queue, device.config)
        else:
            job = self.scheduler.pick(device.queue, device.config)
        if job is None and self.work_stealing:
            job = self._steal(device)
        if job is None:
            return
        self._start(device, job)

    def _start(self, device: Device, job: Job) -> None:
        job.epoch += 1
        job.state = JobState.RUNNING
        job.start_cycle = self.clock.now
        job.device_id = device.device_id
        device.current = job
        # Execution waits until the current timestamp is fully drained
        # and runs with the rest of its wave. The bookkeeping above
        # already marks the device busy, so later events in this
        # timestamp place work as if the job had run at once.
        self._launching.append((device, job))

    def _finish_start(self, device: Device, job: Job) -> None:
        """Bookkeeping after a started job has executed: its cycle cost
        stretches over simulated time, so completion lands at
        now + service."""
        result = job.result
        device.lane_occupancies.append(
            min(job.footprint.lanes, device.config.max_vl)
            / device.config.max_vl
        )
        finish = self.clock.now + result.service_cycles
        device.busy_until = finish
        device.busy_cycles += result.service_cycles
        obs = self.observer
        if obs.enabled:
            obs.complete(
                f"job:{job.name}", "runtime",
                ts=job.start_cycle, dur=result.service_cycles,
                tid=device.name, lanes=job.footprint.lanes,
                stolen=job.stolen,
            )
        self.clock.schedule_at(
            finish,
            lambda d=device, j=job, e=job.epoch: self._complete(d, j, e),
        )

    def _complete(
        self, device: Device, job: Job, epoch: Optional[int] = None
    ) -> None:
        if device.current is not job or (
            epoch is not None and job.epoch != epoch
        ):
            # A superseded dispatch (the job was re-placed, or the
            # device was retired mid-flight): drop the stale event.
            return
        job.finish_cycle = self.clock.now
        device.current = None
        device.jobs_run += 1
        ok = job.result is not None and job.result.validated
        if ok:
            job.state = JobState.DONE
            device.health.record_success()
            if self.observer.enabled:
                self.observer.counter("runtime.jobs", event="done").inc()
            self.telemetry.record_complete(job, device.name)
        else:
            self._handle_failure(device, job)
        self.telemetry.sample_queue(
            device.device_id, self.clock.now, len(device.queue)
        )
        self._dispatch(device)

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------

    def _device_dead(self, device: Device) -> bool:
        """Did this device's substrate report whole-device death?

        The in-process pool asks the device's fault injector; the
        process-sharded serving pool overrides this with the death
        ledger it maintains from worker replies and process exits.
        """
        return device.injector is not None and device.injector.dead

    def _handle_failure(self, device: Device, job: Job) -> None:
        """Walk the recovery ladder for one failed execution."""
        if self.observer.enabled:
            self.observer.counter("runtime.jobs", event="failed").inc()
        if self._device_dead(device):
            self._kill_device(device)
        elif device.health.record_failure(self.clock.now):
            self._on_quarantine(device)
        self._retry_or_fail(device, job)

    def _kill_device(self, device: Device) -> None:
        """Retire a device whose injector reported whole-device death."""
        if not device.health.alive:
            return
        device.health.kill()
        self.telemetry.record_device_death()
        if self.observer.enabled:
            self.observer.counter("runtime.device_deaths").inc()
            self.observer.instant(
                f"device-dead:{device.name}", "runtime",
                ts=self.clock.now, tid=device.name,
            )
        self._drain(device)

    def _on_quarantine(self, device: Device) -> None:
        """Bench a device and schedule its probationary re-admission."""
        self.telemetry.record_quarantine()
        if self.observer.enabled:
            self.observer.counter("runtime.quarantined").inc()
            self.observer.instant(
                f"quarantine:{device.name}", "runtime",
                ts=self.clock.now, tid=device.name,
                until=device.health.quarantined_until,
            )
        self._drain(device)
        self.clock.schedule_at(
            device.health.quarantined_until,
            lambda d=device: self._readmit(d),
        )

    def _drain(self, device: Device) -> None:
        """Re-place a benched device's queue onto its peers."""
        while device.queue:
            job = device.queue.popleft()
            self._enqueue(job, exclude=(device.device_id,))

    def _readmit(self, device: Device) -> None:
        """A quarantine lapsed: move to probation and replay parked work."""
        if not device.health.readmit(self.clock.now):
            return
        if self.observer.enabled:
            self.observer.instant(
                f"probation:{device.name}", "runtime",
                ts=self.clock.now, tid=device.name,
            )
        parked, self._parked = self._parked, []
        for job in parked:
            self._enqueue(job)
        self._dispatch(device)

    def _retry_or_fail(self, device: Device, job: Job) -> None:
        """Bounded retry with exponential backoff, away from ``device``."""
        job.attempts += 1
        if job.attempts <= self.max_retries:
            job.state = JobState.QUEUED
            self.telemetry.record_retry()
            if self.observer.enabled:
                self.observer.counter("runtime.retries").inc()
                self.observer.instant(
                    f"retry:{job.name}", "runtime",
                    ts=self.clock.now, tid=device.name,
                    attempt=job.attempts,
                )
            delay = self.retry_backoff_cycles * (2 ** (job.attempts - 1))
            self.clock.schedule_at(
                self.clock.now + delay,
                lambda j=job, e=(device.device_id,): self._enqueue(j, e),
            )
            return
        job.state = JobState.FAILED
        last = job.result.error if job.result else None
        err = RetryExhaustedError(
            f"job {job.name!r} failed {job.attempts} attempts "
            f"(last error: {last or 'validation failed'})"
        )
        if job.result is not None:
            job.result.error = f"RetryExhaustedError: {err}"
        self.telemetry.record_complete(job, device.name)

    def _steal(self, thief: Device) -> Optional[Job]:
        """Pull one job from the tail of the most-loaded peer's queue."""
        victims = sorted(
            (d for d in self.devices if d is not thief and d.queue),
            key=lambda d: (-len(d.queue), d.device_id),
        )
        for victim in victims:
            # Tail-first: steal the work the victim would reach last.
            for index in range(len(victim.queue) - 1, -1, -1):
                job = victim.queue[index]
                if job.footprint.fits(thief.config) or job.spillable:
                    del victim.queue[index]
                    job.stolen = True
                    obs = self.observer
                    if obs.enabled:
                        obs.counter("runtime.steals").inc()
                        obs.instant(
                            f"steal:{job.name}", "runtime",
                            ts=self.clock.now, tid=thief.name,
                            victim=victim.name,
                        )
                    self.telemetry.record_steal()
                    self.telemetry.sample_queue(
                        victim.device_id, self.clock.now, len(victim.queue)
                    )
                    return job
        return None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, max_events: int = 1_000_000) -> TelemetryReport:
        """Drain the event loop and fold telemetry into a report.

        The loop runs in waves. All events sharing the earliest
        simulated timestamp fire in deterministic ``(time, seq)`` order;
        job *starts* within that timestamp only record bookkeeping and
        land on a launchpad. The wave of started jobs — at most one per
        device (``device.current`` blocks a second dispatch) — then
        executes through the execution tier, and post-run bookkeeping
        replays in launchpad order. The tier is
        :func:`repro.gang.run_ganged` in process here, and worker
        processes in ``repro.serve``.

        Raises :class:`~repro.common.errors.PoolStalledError` naming the
        stuck jobs when the event budget is exhausted with events still
        pending, or when the loop drains with work still queued (every
        serviceable device quarantined or dead, parked jobs included) —
        never a silent partial return.
        """
        obs = self.observer
        events = 0
        with self._execution_tier() as execute:
            while True:
                t = self.clock.next_time
                if t is None:
                    break
                # Callbacks may schedule more events at this same
                # timestamp (e.g. a completion freeing a device that
                # immediately dispatches) — keep draining until the
                # earliest pending time moves forward.
                while self.clock.next_time == t:
                    self.clock.tick()
                    events += 1
                batch, self._launching = self._launching, []
                if batch:
                    execute(batch)
                    for device, job in batch:
                        self._finish_start(device, job)
                    if obs.enabled:
                        obs.metrics.counter("pool.parallel.batches").inc()
                        obs.metrics.counter("pool.parallel.jobs").inc(len(batch))
                        obs.metrics.histogram("pool.parallel.batch_width").observe(
                            len(batch)
                        )
                if events >= max_events and len(self.clock) > 0:
                    raise PoolStalledError(
                        f"event budget of {max_events:,} exhausted with "
                        f"{len(self.clock)} events pending",
                        [j.name for j in self._stuck_jobs()],
                    )
        stuck = self._stuck_jobs()
        if stuck:
            raise PoolStalledError(
                "every serviceable device is quarantined or dead",
                [j.name for j in stuck],
            )
        return self.report()

    @contextmanager
    def _execution_tier(self):
        """Yield the ``execute(batch)`` callable :meth:`run` drives.

        In process there is nothing to start or stop;
        ``repro.serve.ServePool`` overrides this to boot the worker
        processes around the loop.
        """
        yield self._execute_batch

    def _execute_batch(self, batch) -> None:
        """Execute one wave in process: one stacked replay per gangable
        group, every other job on its own device."""
        run_ganged(
            [(device.system, job) for device, job in batch],
            mode=self.exec.gang,
            observer=self.observer,
        )

    def _stuck_jobs(self) -> List[Job]:
        """Submitted jobs still queued/running (parked jobs are QUEUED)."""
        return [
            j for j in self._submitted
            if j.state in (JobState.QUEUED, JobState.RUNNING)
        ]

    @property
    def makespan_cycles(self) -> float:
        """Pool completion time: the max over the device timelines."""
        return max((d.busy_until for d in self.devices), default=0.0)

    def report(self) -> TelemetryReport:
        frequency = self.devices[0].system.circuit.frequency_hz
        records = [
            DeviceRecord(
                device_id=d.device_id,
                name=d.config.name,
                max_vl=d.config.max_vl,
                jobs_run=d.jobs_run,
                busy_cycles=d.busy_cycles,
                lane_occupancies=list(d.lane_occupancies),
            )
            for d in self.devices
        ]
        return self.telemetry.report(records, self.makespan_cycles, frequency)
