"""Worker processes: device shards behind a pipe.

Each worker process owns one or more CAPE devices — a full
:class:`~repro.engine.system.CAPESystem` per device, a *per-process*
:class:`~repro.plan.PlanCache` shared by those systems (warmed at boot
from the configured warmup specs), and, when a fault plan is active,
each device's :class:`~repro.faults.FaultInjector` over its slice of
the plan. Job execution happens entirely inside the worker: the parent
ships a picklable :class:`~repro.serve.spec.JobSpec`, the worker
materialises the job, resets the target device, executes, validates
against the golden, and ships back a plain-dict reply with the outputs,
cycle/energy charges, the device's death flag, and the plan-cache
snapshot.

The protocol is deliberately tiny — tuples over a duplex
``multiprocessing`` pipe, requests answered strictly in order:

=================================  ====================================
parent → worker                    worker → parent
=================================  ====================================
``("runs", seq, members, ack)``    ``("results", seq, [reply, ...])``
``("stats", seq)``                 ``("stats", seq, stats_dict)``
``("shutdown",)``                  (clean exit, pipe closes)
(unsolicited, from a side thread)  ``("heartbeat", worker_id, info)``
=================================  ====================================

``runs`` is the one run message: ``members`` is one dispatch round's
worth of ``(device_id, spec, deadline_s)`` tuples for this worker (a
single member for a hedge), answered by exactly one ``results`` frame
carrying the member replies in order — one pickle + one syscall per
*round* instead of per request. The worker runs every frame through
:func:`repro.gang.run_ganged` in its ``WorkerOptions.gang`` mode —
stacked replay for eligible groups, sequential execution otherwise —
so kill/hang/slow/drop/garble injection, deadlines, and the progress
marks below apply to every frame alike. ``ack`` piggybacks the
parent's cumulative reply-ring consume mark for the shared-memory data
plane (``repro.serve.shm``): specs may arrive with
:class:`~repro.serve.shm.ShmRef` descriptors in place of numpy arrays
(decoded here into zero-copy views), and reply arrays are written into
this worker's reply ring when one was provisioned via
``WorkerOptions.reply_segment``.

``deadline_s`` is the member's *remaining* wall-clock budget in
seconds (``None`` = unbounded); a worker that receives an
already-expired member cheap-cancels it — an error reply with
``deadline_cancelled`` set, no execution. When
``WorkerOptions.heartbeat_interval_s`` is positive, a side thread
interleaves ``heartbeat`` messages with the ordered replies (sends
share one lock, so frames never tear); parents must skip them when
awaiting a reply.

A worker crash — injected via :class:`~repro.faults.WorkerKill` or
real — closes the pipe; the parent surfaces it as
:class:`~repro.common.errors.WorkerDiedError` and the serving tier
treats every device the worker owned as dead (the ``DeviceKill``
pathway of the healing ladder). The rest of the transport taxonomy
(:class:`~repro.faults.WorkerHang` / :class:`~repro.faults.SlowWorker`
/ :class:`~repro.faults.ReplyDrop` / :class:`~repro.faults.ReplyGarble`)
is injected here on the worker side of the pipe, keyed on the worker's
1-based lifetime job count, so seeded chaos storms exercise the wire
itself — see :class:`~repro.faults.TransportSchedule` for precedence.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.common.errors import (
    ConfigError,
    DeadlineExceededError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from repro.engine.system import CAPEConfig, CAPESystem
from repro.faults.injector import FaultInjector
from repro.gang import run_ganged
from repro.memory.mainmem import WordMemory
from repro.plan.cache import PlanCache
from repro.serve.shm import DEFAULT_MIN_BYTES, WorkerWire
from repro.serve.spec import JobSpec

__all__ = ["GARBLED_PAYLOAD", "WorkerHandle", "WorkerOptions", "worker_main"]

#: Exit code of an injected :class:`WorkerKill` crash (tests assert it).
KILLED_EXIT_CODE = 17


@dataclass(frozen=True)
class WorkerOptions:
    """Everything a worker needs to rebuild its shard (picklable).

    Attributes mirror the :class:`~repro.runtime.pool.DevicePool`
    construction arguments so worker-side devices are indistinguishable
    from the in-process devices the sequential comparison path uses.
    """

    memory_bytes: Optional[int] = None
    accounting: str = "paper"
    backend: Optional[str] = None
    warmup: Tuple[JobSpec, ...] = ()
    fault_plan: object = None  # Optional[FaultPlan]; picklable
    #: Whole-kernel superplan mode for the shard's systems
    #: (``True`` / ``False`` / ``"auto"``, docs/PERFORMANCE.md).
    superplan: object = False
    #: Gang-execution mode for every ``runs`` frame (``True`` /
    #: ``False`` / ``"auto"``, docs/GANG.md); ``"auto"`` is evaluated
    #: per frame.
    gang: object = False
    #: Period of the unsolicited ``("heartbeat", ...)`` messages a side
    #: thread sends so the parent can tell a hung worker from a slow
    #: one; ``0`` (the default) disables the thread entirely.
    heartbeat_interval_s: float = 0.0
    #: Name of this worker's parent-owned reply-ring segment on the
    #: shared-memory data plane; ``None`` keeps replies fully inline.
    reply_segment: Optional[str] = None
    #: Arrays below this many bytes stay inline even on the shm wire.
    wire_min_bytes: int = DEFAULT_MIN_BYTES


def _build_shard(
    worker_id: int,
    devices: Sequence[Tuple[int, CAPEConfig]],
    options: WorkerOptions,
):
    """Construct this worker's systems, injectors, and plan cache."""
    plan_cache = PlanCache()
    systems: Dict[int, CAPESystem] = {}
    injectors: Dict[int, Optional[FaultInjector]] = {}
    for device_id, config in devices:
        system = CAPESystem(
            config,
            memory=(
                WordMemory(options.memory_bytes)
                if options.memory_bytes is not None
                else None
            ),
            accounting=options.accounting,
            backend=options.backend,
            plan_cache=plan_cache,
            superplan=options.superplan,
        )
        injector = None
        if options.fault_plan is not None:
            injector = FaultInjector(options.fault_plan.for_device(device_id))
            system.attach_fault_injector(injector)
        systems[device_id] = system
        injectors[device_id] = injector
    if options.warmup and devices:
        # Warm the per-process plan cache on a throwaway system so the
        # warmup never advances injector state — plans are shape-keyed
        # (num_cols excluded), so one config warms every device.
        scratch = CAPESystem(
            devices[0][1],
            memory=(
                WordMemory(options.memory_bytes)
                if options.memory_bytes is not None
                else None
            ),
            accounting=options.accounting,
            backend=options.backend,
            plan_cache=plan_cache,
            superplan=options.superplan,
        )
        for spec in options.warmup:
            scratch.reset()
            spec.to_job().execute(scratch)
    return systems, injectors, plan_cache


def _error_reply(spec: JobSpec, injector, exc: Exception) -> dict:
    """Reply for a spec-level failure (unknown kernel, bad payload)."""
    return {
        "name": spec.name,
        "output": None,
        "validated": False,
        "service_cycles": 0.0,
        "energy_j": 0.0,
        "spills": 0,
        "restores": 0,
        "error": f"{type(exc).__name__}: {exc}",
        "device_dead": bool(injector is not None and injector.dead),
        "faults_injected": (
            sum(injector.injected.values()) if injector is not None else 0
        ),
    }


def _result_reply(spec: JobSpec, injector, result) -> dict:
    """Reply carrying one executed job's result back over the pipe."""
    return {
        "name": spec.name,
        "output": result.output,
        "validated": result.validated,
        "service_cycles": result.service_cycles,
        "energy_j": result.energy_j,
        "spills": result.spills,
        "restores": result.restores,
        "error": result.error,
        "device_dead": bool(injector is not None and injector.dead),
        "faults_injected": (
            sum(injector.injected.values()) if injector is not None else 0
        ),
    }


#: The reply payload an injected :class:`~repro.faults.ReplyGarble`
#: substitutes for the real dict — deliberately not a mapping, so any
#: parent-side reply handler trips over it (tests assert the marker).
GARBLED_PAYLOAD = "\x00garbled-by-fault-plan\x00"


def _cancel_reply(spec: JobSpec, injector, deadline_s) -> dict:
    """Reply for a worker-side cheap cancel of an expired request."""
    reply = _error_reply(
        spec,
        injector,
        DeadlineExceededError(
            f"deadline expired before execution "
            f"(remaining budget {deadline_s:.3g}s)"
        ),
    )
    reply["deadline_cancelled"] = True
    return reply


def _run_frame(systems, injectors, members, mode) -> list:
    """Execute one ``runs`` frame's members; one plain-dict reply each.

    Every member goes through :func:`repro.gang.run_ganged` in the
    worker's gang ``mode`` — stacked replay for eligible groups,
    sequential execution otherwise (``mode=False`` is the plain
    sequential path). A member whose deadline was spent on arrival is
    cheap-cancelled, never run. ``Job.execute`` already captures body
    errors in the result; spec-level failures (an unknown kernel, an
    unpicklable payload surfacing late, a failed device reset) are
    caught too, so a malformed request costs one error reply, never the
    worker process. With gang on, each executed member's reply also
    carries its outcome (``ganged`` / ``ejected`` / ``gang_size`` /
    ``gang_reason``) so the parent can account ``gang.*`` metrics.
    """
    replies: list = [None] * len(members)
    entries = []
    slots = []
    errors: Dict[int, Exception] = {}
    for i, (device_id, spec, deadline_s) in enumerate(members):
        if deadline_s is not None and deadline_s <= 0:
            replies[i] = _cancel_reply(spec, injectors[device_id], deadline_s)
            continue
        try:
            job = spec.to_job()
        except Exception as exc:  # noqa: BLE001 — the reply IS the error path
            replies[i] = _error_reply(spec, injectors[device_id], exc)
            continue
        entries.append((systems[device_id], job))
        slots.append(i)

    def run_job(index: int) -> None:
        system, job = entries[index]
        try:
            system.reset()
            job.result = job.execute(system)
        except Exception as exc:  # noqa: BLE001 — the reply IS the error path
            errors[index] = exc

    outcomes = run_ganged(entries, mode=mode, run_job=run_job)
    for index, (slot, (_system, job), outcome) in enumerate(
        zip(slots, entries, outcomes)
    ):
        device_id, spec, _deadline_s = members[slot]
        injector = injectors[device_id]
        if index in errors:
            reply = _error_reply(spec, injector, errors[index])
        else:
            reply = _result_reply(spec, injector, job.result)
        if mode is not False:
            reply["ganged"] = outcome.ganged
            reply["ejected"] = outcome.ejected
            reply["gang_size"] = outcome.gang_size
            reply["gang_reason"] = outcome.reason
        replies[slot] = reply
    return replies


class _Heartbeat:
    """The worker's side thread: unsolicited liveness over the pipe.

    Shares ``send_lock`` with the main loop so a heartbeat can never
    tear a reply frame mid-pickle. An injected
    :class:`~repro.faults.WorkerHang` stops the thread along with the
    main loop — a hung worker goes *fully* silent, which is exactly the
    signal hang detection keys on.
    """

    def __init__(self, conn, worker_id: int, interval_s: float, send_lock):
        self._conn = conn
        self._worker_id = worker_id
        self._interval_s = interval_s
        self._send_lock = send_lock
        self._stop = threading.Event()
        self._thread = None
        self.info: Dict[str, object] = {}

    def start(self) -> None:
        if self._interval_s <= 0:
            return
        self._thread = threading.Thread(
            target=self._main, name="cape-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _main(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                with self._send_lock:
                    self._conn.send(
                        ("heartbeat", self._worker_id, dict(self.info))
                    )
            except (BrokenPipeError, OSError):
                return  # parent went away; nothing to report to


def worker_main(
    conn,
    worker_id: int,
    devices: Sequence[Tuple[int, CAPEConfig]],
    options: WorkerOptions,
) -> None:
    """The worker process entry point: build the shard, serve the pipe.

    Requests are served strictly in arrival order; an injected
    :class:`~repro.faults.WorkerKill` exits the process abruptly (no
    reply, exit code :data:`KILLED_EXIT_CODE`) *while* the matching job
    is in flight, exactly like a hard crash. The rest of the transport
    schedule fires here too, keyed on the 1-based lifetime job count:
    a hang wedges the process (alive, fully silent — heartbeats stop
    with the main loop), a slow delays the reply, a drop executes the
    job but never sends (device state still advances, exactly as if
    the reply were lost in flight), a garble sends a non-dict payload.
    """
    # Keep the heap inherited from a forked parent out of this
    # process's collections: a full pass over a large parent heap holds
    # the GIL long enough to silence the heartbeat past the hang
    # threshold.
    gc.freeze()
    systems, injectors, plan_cache = _build_shard(worker_id, devices, options)
    wire = WorkerWire(options.reply_segment, options.wire_min_bytes)
    schedule = None
    if options.fault_plan is not None:
        schedule = options.fault_plan.transport_for_worker(worker_id)
        if schedule.empty:
            schedule = None
    kill_at = schedule.kill_at if schedule is not None else None
    jobs_executed = 0
    injected = {"hang": 0, "slow": 0, "drop": 0, "garble": 0}
    send_lock = threading.Lock()
    heartbeat = _Heartbeat(
        conn, worker_id, options.heartbeat_interval_s, send_lock
    )
    heartbeat.start()

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def hang_forever() -> None:
        # The injected wedge: stop heartbeats, keep the process alive,
        # never touch the pipe again. The parent's hang detector (not
        # pipe EOF) is what must notice; it terminates us.
        heartbeat.stop()
        while True:
            time.sleep(3600.0)

    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:  # parent went away: nothing left to serve
                return
            if msg[0] == "shutdown":
                return
            if msg[0] == "runs":
                _, seq, members, ack = msg
                wire.note_ack(ack)
                start = jobs_executed
                end = start + len(members)
                if kill_at is not None and end >= kill_at:
                    # The injected crash lands inside this frame: die
                    # mid-frame, reply never sent — every member fails
                    # over exactly like a hard crash.
                    conn.close()
                    os._exit(KILLED_EXIT_CODE)
                if schedule is not None and (
                    schedule.hang_at is not None and end >= schedule.hang_at
                ):
                    injected["hang"] += 1
                    hang_forever()
                jobs_executed = end
                heartbeat.info["jobs_executed"] = end
                members = [
                    (device_id, wire.decode_spec(spec), deadline_s)
                    for device_id, spec, deadline_s in members
                ]
                replies = _run_frame(systems, injectors, members, options.gang)
                snapshot = plan_cache.snapshot()
                for i, reply in enumerate(replies):
                    reply["worker_id"] = worker_id
                    reply["device_id"] = members[i][0]
                    reply["jobs_executed"] = start + i + 1
                    reply["plan_cache"] = snapshot
                if schedule is not None:
                    span = range(start + 1, end + 1)
                    for j in span:
                        delay = schedule.slow.get(j)
                        if delay is not None:
                            injected["slow"] += 1
                            time.sleep(delay)
                    dropped = [j for j in span if j in schedule.drop_at]
                    garbled = [j for j in span if j in schedule.garble_at]
                    if dropped:
                        # The jobs ran — device state advanced — but the
                        # reply vanishes, as if lost on the wire. Any
                        # member loss drops the *whole* frame: one wire
                        # message, one fate. The completion mark still
                        # advances to the frame end (only *after* the
                        # send would have happened), so the parent's
                        # drop detector can conclude every member from a
                        # later heartbeat.
                        injected["drop"] += len(dropped)
                        heartbeat.info["transport_injected"] = dict(injected)
                        heartbeat.info["jobs_completed"] = end
                        continue
                    if garbled:
                        injected["garble"] += len(garbled)
                        heartbeat.info["transport_injected"] = dict(injected)
                        send(("results", seq, GARBLED_PAYLOAD))
                        heartbeat.info["jobs_completed"] = end
                        continue
                send(
                    ("results", seq, [wire.encode_reply(r) for r in replies])
                )
                # Updated after the send (under FIFO): any heartbeat
                # carrying this mark was framed behind the reply, so a
                # parent that saw the mark but no reply knows the reply
                # was dropped, not merely late.
                heartbeat.info["jobs_completed"] = end
            elif msg[0] == "stats":
                _, seq = msg
                send(
                    (
                        "stats",
                        seq,
                        {
                            "worker_id": worker_id,
                            "pid": os.getpid(),
                            "jobs_executed": jobs_executed,
                            "transport_injected": dict(injected),
                            "plan_cache": plan_cache.snapshot(),
                            "devices": {
                                device_id: (
                                    injector.report()
                                    if injector is not None
                                    else None
                                )
                                for device_id, injector in injectors.items()
                            },
                        },
                    )
                )
            else:  # unknown message: fail loudly, don't wedge the pipe
                raise ConfigError(f"unknown worker message {msg[0]!r}")
    finally:
        heartbeat.stop()
        wire.close()
        conn.close()


class WorkerHandle:
    """Parent-side handle on one worker process.

    Wraps process lifecycle and the pipe protocol. Hard transport
    failures (broken pipe on send, EOF on receive, a dead process) are
    normalised to :class:`~repro.common.errors.WorkerDiedError`;
    a reply that is merely *late* from a live process surfaces as
    :class:`~repro.common.errors.WorkerTimeoutError` so callers never
    mistake a slow worker for a crashed one.
    """

    def __init__(
        self,
        worker_id: int,
        devices: Sequence[Tuple[int, CAPEConfig]],
        options: WorkerOptions,
        mp_context=None,
    ) -> None:
        if not devices:
            raise ConfigError(f"worker {worker_id} owns no devices")
        self.worker_id = worker_id
        self.devices = tuple(devices)
        self.device_ids = tuple(device_id for device_id, _ in devices)
        self.options = options
        self._ctx = mp_context
        self._process = None
        self._conn = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "WorkerHandle":
        import multiprocessing as mp

        ctx = self._ctx if self._ctx is not None else mp.get_context()
        parent, child = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=worker_main,
            args=(child, self.worker_id, self.devices, self.options),
            name=f"cape-serve-{self.worker_id}",
            daemon=True,
        )
        self._process.start()
        child.close()
        self._conn = parent
        return self

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self._process.exitcode if self._process is not None else None

    def terminate(self, timeout: float = 1.0) -> None:
        """Hard-stop a wedged worker (hang verdicts: no shutdown message
        can help a process that stopped reading its pipe)."""
        if self._process is None:
            return
        self._process.terminate()
        self._process.join(timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it won't."""
        if self._process is None:
            return
        try:
            self._conn.send(("shutdown",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)
        self._conn.close()

    # -- protocol -------------------------------------------------------

    def _died(self, context: str = "") -> WorkerDiedError:
        detail = f" {context}" if context else ""
        return WorkerDiedError(
            f"serving worker {self.worker_id} died{detail} "
            f"(exit code {self.exitcode}, devices {list(self.device_ids)})"
        )

    def send_runs(self, seq: int, members, ack: int = 0) -> None:
        """Ship one ``runs`` frame: a list of ``(device_id, wire_spec,
        deadline_s)`` members answered by a single ``("results", seq,
        [reply, ...])`` frame. ``deadline_s`` is the member's
        *remaining* wall budget (``None`` = unbounded), enforced
        worker-side as a cheap cancel when already spent on arrival.
        ``ack`` is the parent's cumulative reply-ring consume mark (shm
        wire only)."""
        for device_id, _spec, _deadline_s in members:
            if device_id not in self.device_ids:
                raise ConfigError(
                    f"device {device_id} is not owned by worker "
                    f"{self.worker_id}"
                )
        self._send(("runs", seq, list(members), int(ack)))

    def send_stats(self, seq: int) -> None:
        self._send(("stats", seq))

    def _send(self, msg) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            # Name the worker and the frame kind: a storm log full of
            # bare BrokenPipeErrors is unattributable.
            raise self._died(f"while sending a {msg[0]!r} frame") from exc

    def poll(self) -> bool:
        """Is a message waiting unread (or the pipe at EOF)?"""
        try:
            return self._conn.poll(0)
        except (BrokenPipeError, OSError):
            return False

    def recv(self, timeout: Optional[float] = None):
        """Next ``(kind, seq, payload)`` message; raises on crash/timeout.

        A poll timeout from a *live* process raises
        :class:`~repro.common.errors.WorkerTimeoutError` — the reply is
        late or lost, not dead; the caller decides whether to keep
        waiting, hedge, or escalate to unresponsive. Only a dead
        process or a closed pipe raises
        :class:`~repro.common.errors.WorkerDiedError`. Note heartbeats
        arrive through here too — callers awaiting a reply must skip
        ``("heartbeat", ...)`` frames.
        """
        try:
            if timeout is not None and not self._conn.poll(timeout):
                if not self.alive:
                    raise self._died()
                raise WorkerTimeoutError(
                    f"serving worker {self.worker_id} sent nothing for "
                    f"{timeout}s (process alive — slow, hung, or the "
                    f"reply was dropped)"
                )
            return self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise self._died() from exc

    def __repr__(self) -> str:
        state = "live" if self.alive else f"exit={self.exitcode}"
        return (
            f"WorkerHandle(#{self.worker_id}, "
            f"devices={list(self.device_ids)}, {state})"
        )
