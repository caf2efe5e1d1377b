"""One worker's transport link: the wire ledger both front doors share.

:class:`~repro.serve.pool.ServePool` and
:class:`~repro.serve.gateway.Gateway` talk to their workers with one
message kind — ``("runs", seq, members, ack)`` answered by
``("results", seq, [reply, ...])`` — and police it with one
:class:`WorkerLink` per worker process. The link owns everything about
the wire that does not depend on *who wins* a request:

* the :class:`Frame` ledger — a strict FIFO mirroring the worker's
  reply order — and the worker's lifetime job ordinals;
* the last-seen clock that hang detection reads, and
  :func:`silence_budget_s`, the silence a worker that owes work may
  keep before it is declared unresponsive;
* arena-token lifetime: a frame's shared-memory request blocks are
  released only on proof the worker is done reading them;
* the two drop detectors — a reply sequenced past an outstanding frame
  (seq gap), and a heartbeat progress mark past a frame's end ordinal;
* breaker accounting: detected transport faults, trips, and half-open
  probes.

Each front door keeps its own winner policy and reply loop on top:
the pool polls on its main thread and lets the primary's reply win
canonically; the gateway pumps replies in from reader threads and lets
the first reply win.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.resilience import BreakerState

__all__ = [
    "WORKER_GONE", "Frame", "TransportTally", "WorkerLink",
    "count_gang_outcome", "silence_budget_s",
]

#: Conclusion kinds that mean the *worker* is gone, not the wire: its
#: frames concluded this way count no transport fault of their own.
WORKER_GONE = ("died", "unresponsive")


class Frame:
    """One ``("runs", ...)`` frame on the wire: seq × worker × members.

    ``members`` is the front door's ordered member list — one entry per
    job the frame carries (a whole per-worker dispatch round, or a
    single hedge). One wire message has one fate: the frame's reply
    answers every member, and a concluded loss (seq gap, heartbeat
    progress mark, worker death, or timeout) concludes every member
    together while counting a single transport fault. ``ordinal`` is
    the *end* position of the frame's jobs in the worker's lifetime
    count, matching the worker-side ``jobs_completed`` heartbeat mark.
    ``tokens`` pin the members' request-arena blocks.

    A frame stays in its link's ledger until its reply is received —
    or, once *concluded* lost, until a later reply or a progress mark
    sweeps it out — so a reply that turns out to be merely late still
    matches its frame instead of desynchronising the stream.
    """

    __slots__ = (
        "seq", "ordinal", "worker_id", "members", "tokens",
        "is_hedge", "sent_at", "concluded",
    )

    def __init__(self, seq, ordinal, worker_id, members, tokens, is_hedge):
        self.seq = seq
        self.ordinal = ordinal
        self.worker_id = worker_id
        self.members = members
        self.tokens = tokens
        self.is_hedge = is_hedge
        self.sent_at = time.monotonic()
        self.concluded = False


@dataclass
class TransportTally:
    """Transport verdicts the links account, shared across a front
    door's workers (:class:`~repro.serve.gateway.GatewayReport` carries
    the same three fields and serves as the gateway's tally)."""

    #: Detected transport faults by kind (dropped/garbled/timeout/hang).
    transport_faults: Dict[str, int] = field(default_factory=dict)
    breaker_trips: int = 0
    breaker_probes: int = 0


def silence_budget_s(resilience, worker_timeout: float) -> float:
    """Total pipe silence tolerated from a live worker that owes work.

    With heartbeats on, a healthy worker is never silent for more than
    an interval or two, so the hang threshold applies; with them off,
    silence is normal during execution and only the blunt
    ``worker_timeout`` bounds it.
    """
    if resilience.heartbeat_interval_s > 0:
        return resilience.hang_timeout_s
    return worker_timeout


def count_gang_outcome(observer, reply: dict) -> None:
    """Fold one reply's gang outcome into the ``gang.*`` families.

    Workers run no observer, so each reply carries what
    :func:`repro.gang.run_ganged` would have emitted; ``gang.size`` is
    observed per member here (the in-process pool observes it once per
    gang). Replies from a ``gang=False`` worker carry no outcome and
    emit nothing.
    """
    if not observer.enabled or "ganged" not in reply:
        return
    if reply["ganged"]:
        observer.counter("gang.hit").inc()
        observer.histogram("gang.size").observe(reply["gang_size"])
    elif reply["ejected"]:
        observer.counter("gang.ejected").inc()
        observer.counter("gang.miss", reason="ejected").inc()
    else:
        observer.counter("gang.miss", reason=reply["gang_reason"] or "?").inc()


class WorkerLink:
    """The parent's view of one worker process's wire.

    Args:
        handle: the worker's :class:`~repro.serve.worker.WorkerHandle`.
        host_wire: the front door's :class:`~repro.serve.shm.HostWire`.
        breaker: the worker's circuit breaker (``None`` = disabled).
        observer: the front door's observer.
        tally: the front door's :class:`TransportTally` (or any object
            with the same three fields).
    """

    def __init__(self, handle, host_wire, breaker, observer, tally):
        self.handle = handle
        self.worker_id = handle.worker_id
        self.host_wire = host_wire
        self.breaker = breaker
        self.observer = observer
        self.tally = tally
        #: FIFO of outstanding :class:`Frame`, in the worker's reply order.
        self.frames: deque = deque()
        #: Lifetime jobs dispatched (mirrors the worker's job ordinals).
        self.sent = 0
        #: Monotonic time of the last message seen (reply or heartbeat):
        #: the silence clock for hang detection.
        self.last_seen = time.monotonic()

    # -- dispatch ---------------------------------------------------------

    def send(self, seq: int, members: list, jobs, is_hedge: bool = False) -> Frame:
        """Encode and ship one ``runs`` frame; return its ledger entry.

        ``jobs`` is one ``(device_id, spec, deadline_s)`` per member.
        The frame joins the ledger *before* the send, so a
        :class:`~repro.common.errors.WorkerDiedError` (re-raised to the
        caller) leaves it for the death failover to conclude and
        release like every other frame the worker owed.
        """
        wire_jobs = []
        tokens: tuple = ()
        for device_id, spec, deadline_s in jobs:
            wire_spec, spec_tokens = self.host_wire.encode_spec(spec)
            tokens += spec_tokens
            wire_jobs.append((device_id, wire_spec, deadline_s))
        self.sent += len(wire_jobs)
        frame = Frame(seq, self.sent, self.worker_id, members, tokens, is_hedge)
        self.frames.append(frame)
        self.handle.send_runs(
            seq, wire_jobs, ack=self.host_wire.ack_for(self.worker_id)
        )
        self.host_wire.note_frame(len(wire_jobs))
        return frame

    def release(self, frame: Frame) -> None:
        """Return a frame's request-arena blocks to the allocator.

        Called only once the worker is provably done reading them: its
        reply arrived (even garbled), a drop detector proved the frame
        was processed, or the process itself is gone. A bare timeout
        conclusion does *not* release — the worker may still read the
        blocks later (the arena's close() is the backstop).
        """
        if frame.tokens:
            self.host_wire.free(frame.tokens)
        frame.tokens = ()

    def _pop(self) -> Frame:
        frame = self.frames.popleft()
        self.release(frame)
        return frame

    # -- the drop detectors -----------------------------------------------

    def on_heartbeat(self, info: dict) -> List[Frame]:
        """Fold a heartbeat; return the frames it proves dropped.

        ``jobs_completed`` advances worker-side only *after* a frame's
        reply is sent (or deliberately dropped), and the pipe is FIFO —
        so a mark past a ledger frame's end ordinal proves its reply
        already arrived or never will. Marks land only on frame
        boundaries. Also mirrors the worker's injected-fault tallies
        into ``faults.transport.injected`` gauges.
        """
        injected = info.get("transport_injected")
        if injected and self.observer.enabled:
            for kind, count in sorted(injected.items()):
                self.observer.gauge(
                    "faults.transport.injected", worker=self.worker_id, kind=kind
                ).set(count)
        completed = info.get("jobs_completed")
        dropped = []
        while (
            completed is not None
            and self.frames
            and self.frames[0].ordinal <= completed
        ):
            dropped.append(self._pop())
        return dropped

    def on_results(self, seq: int) -> Tuple[List[Frame], Optional[Frame]]:
        """Match a ``results`` reply; return ``(dropped, frame)``.

        Replies are strictly ordered per worker, so a reply sequenced
        past an outstanding frame proves that frame was dropped.
        ``frame`` is the one the reply answers (released: the worker is
        done reading it, garbled payload or not), or ``None`` when the
        reply matches nothing outstanding.
        """
        dropped = []
        while self.frames and self.frames[0].seq < seq:
            dropped.append(self._pop())
        if not self.frames or self.frames[0].seq != seq:
            return dropped, None
        return dropped, self._pop()

    def drain(self) -> List[Frame]:
        """The worker is gone: empty the ledger, releasing every frame."""
        frames = list(self.frames)
        self.frames.clear()
        for frame in frames:
            self.release(frame)
        return frames

    # -- verdicts and breaker accounting ------------------------------------

    def conclude(self, frame: Frame, kind: str) -> bool:
        """Conclude ``frame`` lost; ``False`` if it already was.

        A wire loss counts one transport fault however many members
        rode the frame; a gone worker's frames count none.
        """
        if frame.concluded:
            return False
        frame.concluded = True
        if kind not in WORKER_GONE:
            self.record_fault(kind)
        return True

    def silent(self, now: float, budget_s: float) -> bool:
        """Owes work yet fully silent (no reply, no heartbeat) past
        ``budget_s``: the unresponsive verdict's trigger.

        A message waiting unread in the pipe is not silence: the parent
        fell behind (a long garbage-collection pause stalls every
        thread of this process), not the worker.
        """
        return (
            now - self.last_seen > budget_s
            and any(not frame.concluded for frame in self.frames)
            and not self.handle.poll()
        )

    def record_fault(self, kind: str) -> None:
        """Account one detected transport fault (and any breaker trip)."""
        faults = self.tally.transport_faults
        faults[kind] = faults.get(kind, 0) + 1
        obs = self.observer
        if obs.enabled:
            obs.counter("faults.transport.detected", kind=kind).inc()
        if self.breaker is None or not self.breaker.record_failure(time.monotonic()):
            return
        self.tally.breaker_trips += 1
        if obs.enabled:
            obs.counter("serve.breaker.trips", worker=self.worker_id).inc()

    def record_success(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()

    def allow(self, now: float) -> bool:
        """May work be routed to this worker now? Counts half-open probes."""
        breaker = self.breaker
        if breaker is None or breaker.state is BreakerState.CLOSED:
            return True
        if not breaker.allow(now):
            return False
        # The cooldown lapsed: this admission is the half-open probe.
        self.tally.breaker_probes += 1
        if self.observer.enabled:
            self.observer.counter("serve.breaker.probes", worker=self.worker_id).inc()
        return True
