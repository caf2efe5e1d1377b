"""The process-sharded device pool: DevicePool bookkeeping, worker
processes for execution.

:class:`ServePool` subclasses :class:`~repro.runtime.pool.DevicePool`
and changes exactly one thing: the execution tier. The discrete-event
loop, placement, scheduling policies, work stealing, retry/quarantine/
probation healing, and telemetry all run unchanged on the main thread in
the same deterministic ``(time, seq)`` event order as the sequential
pool — so placement, results, and telemetry are **bit-identical to
sequential execution** of the same job set under the same fault plan.
What moves out of process is the part threads could never speed up on a
GIL-bound host: the numpy-heavy ``job.execute`` itself, which now runs
inside the worker process owning the job's device.

Jobs must be :class:`~repro.serve.spec.ServeJob` instances (built from
picklable :class:`~repro.serve.spec.JobSpec` descriptions) because only
the spec crosses the pipe. Devices are assigned to workers round-robin;
each worker rebuilds its devices — same config, memory size, accounting,
backend, and fault-plan slice as the in-process pool would use — plus a
per-process plan cache warmed from ``plan_cache_warmup``.

The fault/healing ledger crosses the process boundary in both
directions: a device whose worker-side injector reports whole-device
death comes back flagged in the reply and walks the normal
``DeviceKill`` path; a worker *process* death (injected
:class:`~repro.faults.WorkerKill` or real crash) marks every device the
worker owned dead, fails the in-flight jobs, and lets the inherited
healing ladder retry them on surviving devices — no
:class:`~repro.common.errors.PoolStalledError`, and results identical
to a fault-free run as long as capacity survives.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.errors import (
    ConfigError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from repro.engine.system import CAPEConfig
from repro.gang import resolve_gang_mode
from repro.runtime.execconfig import ExecConfig, resolve_exec
from repro.runtime.job import JobResult
from repro.runtime.pool import DEFAULT_POOL, Device, DevicePool
from repro.runtime._telemetry import TelemetryReport
from repro.serve.link import (
    TransportTally,
    WorkerLink,
    count_gang_outcome,
    silence_budget_s,
)
from repro.serve.resilience import ResilienceConfig
from repro.serve.shm import HostWire
from repro.serve.spec import JobSpec, ServeJob
from repro.serve.worker import WorkerHandle, WorkerOptions

__all__ = ["ServePool", "default_mp_context"]

#: How long one poll of a worker pipe blocks while collecting replies.
#: Small enough that other workers' replies and the silence clocks are
#: serviced promptly; the loop is I/O-bound either way.
_POLL_SLICE_S = 0.02


class _Pending:
    """One in-flight batch entry, from dispatch to resolution.

    Tracks the primary dispatch and (optionally) one hedge: which
    replies arrived, which were concluded lost, and how the entry
    finally resolved. Winner selection is canonical — the primary's
    reply wins the bookkeeping whenever it arrives; a hedge reply is
    applied only once the primary is *concluded lost* (death, hang,
    drop, garble), so the ledger never depends on the wall-clock race
    between two live replies.
    """

    __slots__ = (
        "device", "job", "spec", "primary", "hedge", "lost",
        "hedge_reply", "hedge_lost", "hedge_accounted", "resolved",
    )

    def __init__(self, device, job, spec):
        self.device = device
        self.job = job
        self.spec = spec
        self.primary = None  # the Frame carrying the primary dispatch
        self.hedge = None
        self.lost = None  # reason once the primary is concluded lost
        self.hedge_reply = None
        self.hedge_lost = False
        self.hedge_accounted = False
        self.resolved = False

    def hedge_open(self) -> bool:
        """A hedge reply may still arrive."""
        return (
            self.hedge is not None
            and self.hedge_reply is None
            and not self.hedge_lost
        )


def default_mp_context():
    """``fork`` where available (cheap, inherits kernel registrations),
    else ``spawn``."""
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


class ServePool(DevicePool):
    """A :class:`DevicePool` whose jobs execute in worker processes.

    Args:
        configs: design points, one device per entry (as DevicePool).
        workers: worker processes; device ``i`` is owned by worker
            ``i % workers`` (clamped to the device count).
        plan_cache_warmup: specs each worker executes once at boot on a
            throwaway system to warm its per-process plan cache.
        worker_timeout: wall seconds an individual dispatch may stay
            outstanding before its reply is *concluded lost* and the
            job falls to the healing ladder. A slow reply is no longer
            a worker death: the worker stays up, and only hang
            detection (total silence past ``resilience.hang_timeout_s``
            with heartbeats enabled) or pipe EOF retires it.
        resilience: a :class:`~repro.serve.resilience.ResilienceConfig`
            — worker heartbeats + hang detection, hedged re-dispatch of
            stragglers with canonical (primary-wins) winner selection,
            and per-worker circuit breakers. Breakers never steer
            *primary* placement in this tier (placement must stay
            bit-identical to sequential execution, and breaker state is
            wall-clock); they gate hedge targets and feed
            ``serve.breaker.*`` metrics. Defaults to
            ``ResilienceConfig()`` (heartbeats on, hedging off).
        mp_context: a ``multiprocessing`` context; defaults to
            :func:`default_mp_context`.
        gang: gang-execution mode (``True`` / ``False`` / ``"auto"``),
            shipped to every worker via
            :class:`~repro.serve.worker.WorkerOptions`. Each launch
            batch rides one ``("runs", ...)`` frame per worker in every
            mode; the worker runs the frame through
            :func:`repro.gang.run_ganged` — stacked replay for eligible
            groups, sequential otherwise (``False`` never gangs).
            ``"auto"`` is evaluated per frame. See ``docs/GANG.md``.
        superplan: whole-kernel superplan mode (``True`` / ``False`` /
            ``"auto"``), shipped to every worker's systems via
            :class:`~repro.serve.worker.WorkerOptions`
            (docs/PERFORMANCE.md). Results, cycles, and microop totals
            are bit-identical either way.
        plan_affinity: break placement ties toward devices whose owning
            worker has already run a job's kernel — a worker's plan
            cache is per process, so every device it owns is equally
            warm. Tie-breaking only; placement stays deterministic.
        wire: the data-plane mode (``"auto"`` / ``"shm"`` /
            ``"pickle"``). On the shm wire, numpy payloads, golden
            vectors, and result arrays cross the worker boundary as
            shared-memory descriptors instead of pickled bytes
            (``repro.serve.shm``); ``"auto"`` picks shm when the
            platform supports it. Results, placement, and telemetry are
            bit-identical in every mode — the wire only changes how the
            bytes travel.
        exec: optional :class:`~repro.runtime.execconfig.ExecConfig`
            bundling ``workers`` / ``gang`` / ``superplan`` /
            ``plan_affinity`` / ``wire`` (its ``parallelism`` and
            ``plan_cache`` members don't apply to this tier). Mutually
            exclusive with non-default values of those keywords.
        **pool_kwargs: everything :class:`DevicePool` accepts except
            ``parallelism`` (meaningless here — concurrency comes from
            the worker processes) and ``plan_cache`` (each worker runs
            its own per-process cache; the bookkeeping process compiles
            nothing).
    """

    def __init__(
        self,
        configs: Sequence[CAPEConfig] = DEFAULT_POOL,
        workers: int = 2,
        *,
        plan_cache_warmup: Sequence[JobSpec] = (),
        worker_timeout: float = 120.0,
        mp_context=None,
        fault_plan=None,
        gang=False,
        superplan=False,
        plan_affinity=False,
        wire: str = "auto",
        resilience: Optional[ResilienceConfig] = None,
        exec: Optional[ExecConfig] = None,
        **pool_kwargs,
    ) -> None:
        knobs = resolve_exec(
            exec,
            workers=(workers, 2),
            gang=(gang, False),
            superplan=(superplan, False),
            plan_affinity=(plan_affinity, False),
            wire=(wire, "auto"),
        )
        workers = knobs["workers"]
        gang = knobs["gang"]
        superplan = knobs["superplan"]
        plan_affinity = knobs["plan_affinity"]
        wire = knobs["wire"]
        if workers < 1:
            raise ConfigError("a serve pool needs at least one worker")
        for reserved in ("parallelism", "plan_cache"):
            if reserved in pool_kwargs:
                raise ConfigError(
                    f"ServePool does not accept {reserved!r}: worker "
                    f"processes supply the concurrency and own their "
                    f"plan caches"
                )
        # Device-construction knobs are forwarded to the workers so
        # their devices are built exactly like in-process ones; the
        # parent keeps its own copy because DevicePool doesn't retain
        # them.
        self._memory_bytes = pool_kwargs.get("memory_bytes")
        self._accounting = pool_kwargs.get("accounting", "paper")
        self._backend = pool_kwargs.get("backend")
        # The parent's systems are bookkeeping mirrors that never
        # execute a job: no fault injectors (the workers own the
        # injector state), no plan cache, no superplans (those live in
        # the workers via WorkerOptions); plan affinity *does* apply
        # here — placement is a parent-side decision.
        super().__init__(
            configs,
            parallelism=1,
            plan_cache=False,
            plan_affinity=plan_affinity,
            **pool_kwargs,
        )
        #: Superplan mode shipped to the workers' systems.
        self.superplan = superplan
        # The parent's systems never execute jobs, so this gang mode
        # only steers the worker-side frames (WorkerOptions.gang).
        self.gang = resolve_gang_mode(gang)
        self.fault_plan = fault_plan
        self.num_workers = min(workers, len(self.devices))
        self.plan_cache_warmup = tuple(plan_cache_warmup)
        self.worker_timeout = worker_timeout
        #: Resilience policy: heartbeats/hang detection, hedged
        #: re-dispatch, per-worker circuit breakers (docs/SERVING.md).
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self._mp_context = mp_context
        #: device_id -> owning worker id (round-robin).
        self.worker_of: Dict[int, int] = {
            d.device_id: d.device_id % self.num_workers for d in self.devices
        }
        #: worker_id -> the worker's transport link (ledger, clocks,
        #: breaker; rebuilt per run).
        self._links: Dict[int, WorkerLink] = {}
        self._dead_worker_ids: set = set()
        #: Devices whose worker-side substrate (injector death or
        #: process crash) reported whole-device loss.
        self._dead_device_ids: set = set()
        self._seq = itertools.count()
        #: worker_id -> last seen plan-cache snapshot / stats reply.
        self.worker_stats: Dict[int, dict] = {}
        #: Detected transport faults and breaker trips/probes, across
        #: runs.
        self.transport = TransportTally()
        #: EWMA of observed reply wall times (the hedge threshold's
        #: baseline when ``hedge_after_s`` is not set explicitly).
        self._ewma_reply_s: Optional[float] = None
        #: Workers declared unresponsive (hang detection), a subset of
        #: ``_dead_worker_ids`` once routed around.
        self._unresponsive_worker_ids: set = set()
        #: The requested data-plane mode (resolved per run).
        self.wire = wire
        self._host_wire: Optional[HostWire] = None
        #: Data-plane accounting from the most recent run (the
        #: ``HostWire.stats`` dict, which survives wire shutdown).
        self.wire_stats: Optional[dict] = None

    # ------------------------------------------------------------------
    # Submission sugar
    # ------------------------------------------------------------------

    def submit_specs(
        self,
        specs: Iterable[JobSpec],
        interarrival_cycles: float = 0.0,
    ) -> List[ServeJob]:
        """Materialise and submit a stream of specs."""
        return self.submit_stream(
            [spec.to_job() for spec in specs],
            interarrival_cycles=interarrival_cycles,
        )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _start_workers(self) -> None:
        ctx = (
            self._mp_context
            if self._mp_context is not None
            else default_mp_context()
        )
        self._host_wire = HostWire(self.wire, observer=self.observer)
        self.wire_stats = self._host_wire.stats
        options = WorkerOptions(
            memory_bytes=self._memory_bytes,
            accounting=self._accounting,
            backend=self._backend,
            warmup=self.plan_cache_warmup,
            fault_plan=self.fault_plan,
            superplan=self.superplan,
            gang=self.gang,
            heartbeat_interval_s=self.resilience.heartbeat_interval_s,
        )
        for worker_id in range(self.num_workers):
            owned = [
                (d.device_id, d.config)
                for d in self.devices
                if self.worker_of[d.device_id] == worker_id
            ]
            worker_options = dataclasses.replace(
                options,
                reply_segment=self._host_wire.reply_segment_for(worker_id),
            )
            handle = WorkerHandle(
                worker_id, owned, worker_options, mp_context=ctx
            ).start()
            self._links[worker_id] = WorkerLink(
                handle, self._host_wire, self.resilience.make_breaker(),
                self.observer, self.transport,
            )

    def _stop_workers(self) -> None:
        try:
            for worker_id, link in self._links.items():
                handle = link.handle
                if handle.alive and worker_id not in self._dead_worker_ids:
                    try:
                        seq = next(self._seq)
                        handle.send_stats(seq)
                        deadline = time.monotonic() + self.worker_timeout
                        while True:
                            budget = max(0.05, deadline - time.monotonic())
                            msg = handle.recv(timeout=budget)
                            if msg[0] != "stats":
                                # Heartbeats or straggler replies to already
                                # concluded dispatches: consume and move on.
                                continue
                            _kind, rseq, stats = msg
                            if rseq == seq:
                                self.worker_stats[worker_id] = stats
                            break
                    except (WorkerDiedError, WorkerTimeoutError):
                        pass
                handle.shutdown()
            self._links.clear()
        finally:
            if self._host_wire is not None:
                # Unlinks every owned segment; mappings held by any
                # still-dying worker keep the memory alive until they
                # close, but the names leave /dev/shm now.
                self._host_wire.close()
                self._host_wire = None

    def _on_worker_death(self, link: WorkerLink) -> None:
        """Record a crashed worker; its devices die via the ladder."""
        handle = link.handle
        if handle.worker_id in self._dead_worker_ids:
            return
        self._dead_worker_ids.add(handle.worker_id)
        self._dead_device_ids.update(handle.device_ids)
        self._conclude_worker_gone(link, "died")
        if self.observer.enabled:
            self.observer.counter("serve.worker_deaths").inc()
            self.observer.instant(
                f"worker-dead:{handle.worker_id}", "serve",
                ts=self.clock.now, tid="pool",
                devices=list(handle.device_ids),
            )

    # ------------------------------------------------------------------
    # The execution tier (the one thing DevicePool doesn't supply)
    # ------------------------------------------------------------------

    def _device_dead(self, device: Device) -> bool:
        return device.device_id in self._dead_device_ids

    def _mark_affinity(self, device: Device, akey) -> None:
        """A worker's plan cache is per *process*: any device owned by
        the placed device's worker is equally warm for this kernel."""
        worker_id = self.worker_of[device.device_id]
        for d in self.devices:
            if self.worker_of[d.device_id] == worker_id:
                d.affinity_keys.add(akey)

    def _crashed_result(self, worker_id: int) -> JobResult:
        return JobResult(
            output=None,
            validated=False,
            service_cycles=0.0,
            energy_j=0.0,
            error=f"WorkerDiedError: serving worker {worker_id} died mid-job",
        )

    def _spec_of(self, job) -> JobSpec:
        spec = getattr(job, "spec", None)
        if spec is None:
            raise ConfigError(
                f"{job!r} carries no JobSpec — ServePool jobs "
                f"must be built via JobSpec.to_job() / "
                f"submit_specs() so they can cross the "
                f"process boundary"
            )
        return spec

    def _apply_reply(self, device: Device, job, reply: dict, worker_id) -> None:
        """Fold one worker reply into the job, ledgers, and metrics."""
        obs = self.observer
        job.result = JobResult(
            output=reply["output"],
            validated=reply["validated"],
            service_cycles=reply["service_cycles"],
            energy_j=reply["energy_j"],
            spills=reply["spills"],
            restores=reply["restores"],
            error=reply["error"],
        )
        if reply["device_dead"]:
            self._dead_device_ids.add(device.device_id)
        self.worker_stats[worker_id] = {
            "worker_id": worker_id,
            "jobs_executed": reply["jobs_executed"],
            "plan_cache": reply["plan_cache"],
        }
        if obs.enabled:
            obs.counter("serve.worker.jobs", worker=worker_id).inc()
            cache = reply["plan_cache"]
            for key in ("hits", "misses", "entries"):
                obs.gauge(f"serve.plan.{key}", worker=worker_id).set(cache[key])
            if reply.get("deadline_cancelled"):
                obs.counter("serve.deadline.cancelled").inc()
        count_gang_outcome(obs, reply)

    # ------------------------------------------------------------------
    # Resilient reply collection
    # ------------------------------------------------------------------

    def _transport_failed_result(self, kind: str, worker_id: int) -> JobResult:
        """The failed result a lost dispatch resolves to (ladder fodder)."""
        if kind == "died":
            return self._crashed_result(worker_id)
        messages = {
            "unresponsive": (
                f"WorkerUnresponsiveError: serving worker {worker_id} went "
                f"silent past the hang threshold"
            ),
            "dropped": (
                f"ReplyDrop: reply from serving worker {worker_id} "
                f"concluded lost"
            ),
            "garbled": (
                f"ReplyGarble: serving worker {worker_id} sent an "
                f"unreadable reply"
            ),
            "timeout": (
                f"WorkerTimeoutError: serving worker {worker_id} exceeded "
                f"worker_timeout with the request outstanding"
            ),
        }
        return JobResult(
            output=None,
            validated=False,
            service_cycles=0.0,
            energy_j=0.0,
            error=messages.get(kind, f"{kind}: worker {worker_id}"),
        )

    def _conclude_lost(self, frame, kind: str) -> None:
        """Conclude a frame's reply will never usefully arrive.

        One wire message, one fate: every member of the frame is
        concluded lost together — a dropped or garbled frame resolves
        all of its members through the same detectors.
        """
        if not self._links[frame.worker_id].conclude(frame, kind):
            return
        for entry in frame.members:
            if frame.is_hedge:
                if entry.hedge is frame:
                    entry.hedge_lost = True
            elif entry.lost is None and not entry.resolved:
                entry.lost = kind

    def _conclude_worker_gone(self, link: WorkerLink, kind: str) -> None:
        """Fold a dead/unresponsive worker over its whole wire ledger."""
        for frame in link.drain():
            self._conclude_lost(frame, kind)

    def _declare_unresponsive(self, link: WorkerLink) -> None:
        """Hang verdict: alive but fully silent past the budget.

        Distinct from a death — counted separately — but the remedy is
        the same routing-around: terminate the wedged process and let
        the :meth:`_on_worker_death` failover retire its devices.
        """
        worker_id = link.worker_id
        if worker_id in self._dead_worker_ids:
            return
        self._unresponsive_worker_ids.add(worker_id)
        if self.observer.enabled:
            self.observer.counter("serve.worker.unresponsive").inc()
        link.record_fault("hang")
        self._conclude_worker_gone(link, "unresponsive")
        link.handle.terminate()
        self._on_worker_death(link)

    def _spec_deadline_s(self, spec) -> Optional[float]:
        deadline = getattr(spec, "deadline_s", None)
        if deadline is None:
            return self.resilience.default_deadline_s
        return deadline

    def _note_reply_time(self, frame) -> None:
        dt = max(0.0, time.monotonic() - frame.sent_at)
        prev = self._ewma_reply_s
        self._ewma_reply_s = dt if prev is None else 0.2 * dt + 0.8 * prev

    def _count_hedge_wasted(self, entry: _Pending) -> None:
        if entry.hedge is None or entry.hedge_accounted:
            return
        entry.hedge_accounted = True
        if self.observer.enabled:
            self.observer.counter("serve.hedge.wasted").inc()

    def _apply_primary(self, entry: _Pending, reply: dict) -> None:
        self._apply_reply(
            entry.device, entry.job, reply, entry.primary.worker_id
        )
        entry.resolved = True

    def _apply_hedge(self, entry: _Pending, reply: dict) -> None:
        self._apply_reply(entry.device, entry.job, reply, entry.hedge.worker_id)
        entry.resolved = True
        entry.hedge_accounted = True
        if self.observer.enabled:
            self.observer.counter("serve.hedge.won").inc()

    def _issue_hedge(self, entry: _Pending) -> bool:
        """Re-dispatch a straggling entry's spec to another worker.

        The hedge runs on the target worker's first device — replies
        are content-deterministic, so *which* device computed the
        result doesn't matter; the entry's bookkeeping stays keyed on
        the primary placement either way (canonical winner selection).
        Breakers never steer *primary* placement here; they gate hedge
        targets, in deterministic worker order.
        """
        now = time.monotonic()
        for worker_id, link in sorted(self._links.items()):
            if (
                worker_id == entry.primary.worker_id
                or worker_id in self._dead_worker_ids
                or not link.allow(now)
            ):
                continue
            job = (
                link.handle.device_ids[0],
                entry.spec,
                self._spec_deadline_s(entry.spec),
            )
            try:
                entry.hedge = link.send(
                    next(self._seq), [entry], [job], is_hedge=True
                )
            except WorkerDiedError:
                self._on_worker_death(link)
                continue
            if self.observer.enabled:
                self.observer.counter("serve.hedge.issued").inc()
            return True
        return False

    def _process_frame(self, link: WorkerLink, msg) -> None:
        """Fold one pipe message (heartbeat or reply) into the ledgers."""
        link.last_seen = time.monotonic()
        worker_id = link.worker_id
        if msg[0] == "heartbeat":
            for frame in link.on_heartbeat(msg[2] or {}):
                self._conclude_lost(frame, "dropped")
            return
        if msg[0] != "results":
            raise ConfigError(
                f"worker {worker_id} protocol error: unexpected {msg[0]!r} "
                f"frame while collecting run replies"
            )
        _, rseq, payload = msg
        dropped, frame = link.on_results(rseq)
        for gapped in dropped:
            self._conclude_lost(gapped, "dropped")
        if frame is None:
            raise ConfigError(
                f"worker {worker_id} protocol error: reply seq {rseq} "
                f"matches no outstanding request"
            )
        if not isinstance(payload, list):
            # A garbled frame: the seq routed it, the payload is junk —
            # and every member shares the loss.
            self._conclude_lost(frame, "garbled")
            return
        if len(payload) != len(frame.members):
            raise ConfigError(
                f"worker {worker_id} protocol error: frame seq {rseq} "
                f"carried {len(payload)} replies for "
                f"{len(frame.members)} members"
            )
        link.record_success()
        self._note_reply_time(frame)
        for entry, reply in zip(frame.members, payload):
            reply = self._host_wire.decode_reply(worker_id, reply)
            if frame.is_hedge:
                if entry.resolved:
                    self._count_hedge_wasted(entry)
                elif entry.lost is not None:
                    self._apply_hedge(entry, reply)
                else:
                    entry.hedge_reply = reply
                continue
            # The primary's reply always wins the bookkeeping — even
            # when a hedge resolved the entry first, re-applying the
            # primary is a no-op on values (replies are content-
            # deterministic) and keeps the ledger canonical.
            self._apply_primary(entry, reply)
            self._count_hedge_wasted(entry)

    def _sweep_entries(self, entries) -> None:
        """Wall-clock escalations between polls: hangs, timeouts, hedges."""
        now = time.monotonic()
        budget = silence_budget_s(self.resilience, self.worker_timeout)
        for worker_id, link in sorted(self._links.items()):
            if worker_id in self._dead_worker_ids or not link.silent(now, budget):
                continue
            if link.handle.alive:
                self._declare_unresponsive(link)
            else:
                self._on_worker_death(link)
        threshold = self.resilience.hedge_threshold(self._ewma_reply_s)
        for entry in entries:
            if entry.resolved:
                continue
            primary = entry.primary
            if (
                entry.lost is None
                and not primary.concluded
                and now - primary.sent_at > self.worker_timeout
            ):
                self._conclude_lost(primary, "timeout")
            if (
                entry.hedge_open()
                and now - entry.hedge.sent_at > self.worker_timeout
            ):
                self._conclude_lost(entry.hedge, "timeout")
            if self.resilience.hedge and entry.hedge is None:
                overdue = entry.lost is not None or (
                    threshold is not None
                    and now - primary.sent_at > threshold
                )
                if overdue:
                    self._issue_hedge(entry)
            if entry.lost is not None and not entry.resolved:
                if entry.hedge_reply is not None:
                    self._apply_hedge(entry, entry.hedge_reply)
                elif not entry.hedge_open():
                    entry.job.result = self._transport_failed_result(
                        entry.lost, primary.worker_id
                    )
                    entry.resolved = True

    def _collect(self, entries) -> None:
        """Drain the wire until every batch entry resolves.

        One poll slice per worker per pass (draining bursts without
        blocking), then a sweep for the wall-clock escalations. Failed
        resolutions feed the inherited healing ladder exactly like an
        in-process device failure, so retries/replays stay deterministic.
        """
        while not all(entry.resolved for entry in entries):
            for worker_id, link in sorted(self._links.items()):
                if worker_id in self._dead_worker_ids:
                    continue
                try:
                    # Idle workers get a zero-length poll purely to keep
                    # heartbeats from backing up the pipe buffer.
                    msg = link.handle.recv(
                        timeout=_POLL_SLICE_S if link.frames else 0
                    )
                    while True:
                        self._process_frame(link, msg)
                        msg = link.handle.recv(timeout=0)
                except WorkerTimeoutError:
                    pass
                except WorkerDiedError:
                    self._on_worker_death(link)
            self._sweep_entries(entries)

    def _execute_batch(self, batch) -> None:
        """Ship one launch batch: one ``runs`` frame per worker.

        Pickle + syscall cost is amortised over the round instead of
        paid per request, and the worker gangs what its gang mode
        allows. The inherited driver replays completions in launchpad
        order afterwards, so grouping cannot perturb the bit-identical
        placement/telemetry contract.
        """
        by_worker: Dict[int, list] = {}
        for device, job in batch:
            by_worker.setdefault(self.worker_of[device.device_id], []).append(
                _Pending(device, job, self._spec_of(job))
            )
        entries = []
        for worker_id, group in sorted(by_worker.items()):
            link = self._links[worker_id]
            if worker_id not in self._dead_worker_ids:
                jobs = [
                    (e.device.device_id, e.spec, self._spec_deadline_s(e.spec))
                    for e in group
                ]
                try:
                    frame = link.send(next(self._seq), group, jobs)
                except WorkerDiedError:
                    self._on_worker_death(link)
                else:
                    for entry in group:
                        entry.primary = frame
                    entries.extend(group)
                    continue
            for entry in group:
                entry.job.result = self._crashed_result(worker_id)
        if entries:
            self._collect(entries)

    @contextmanager
    def _execution_tier(self):
        self._start_workers()
        try:
            if self.observer.enabled:
                self.observer.metrics.gauge("serve.workers").set(
                    self.num_workers
                )
            yield self._execute_batch
        finally:
            self._stop_workers()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, max_events: int = 1_000_000) -> TelemetryReport:
        """Drain the loop with jobs executing on the worker tier.

        Same contract as :meth:`DevicePool.run` — including
        :class:`~repro.common.errors.PoolStalledError` when every
        serviceable device (worker) is gone with work still queued.
        """
        return self._run_parallel(max_events)

    def plan_cache_totals(self) -> dict:
        """Aggregate the per-worker plan-cache snapshots.

        Workers ship :meth:`~repro.plan.PlanCache.snapshot` with every
        reply; this sums the counters across workers. Affinity counters
        are parent-side (placement happens here, the workers never see
        it), so they are folded in from the pool's own ledger.
        """
        totals = {
            "entries": 0, "superplans": 0, "hits": 0, "misses": 0,
            "compiles": 0, "compile_ns": 0,
            "affinity_hits": 0, "affinity_misses": 0,
        }
        per_worker = {}
        for worker_id, stats in sorted(self.worker_stats.items()):
            cache = stats.get("plan_cache") or {}
            per_worker[worker_id] = dict(cache)
            for key in totals:
                totals[key] += int(cache.get(key, 0))
        totals["affinity_hits"] += self._affinity_hits
        totals["affinity_misses"] += self._affinity_misses
        return {"total": totals, "per_worker": per_worker}
