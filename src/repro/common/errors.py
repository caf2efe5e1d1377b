"""Exception hierarchy for the CAPE reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


class CapacityError(ReproError):
    """A request exceeds the capacity of a hardware structure.

    Raised e.g. when a vector length exceeds MAX_VL, a truth table exceeds
    the TTM entry count, or a key-value insert finds no free slot.
    """


class CSBCapacityError(CapacityError):
    """A vector-state request exceeds the CSB's footprint.

    Structured variant of :class:`CapacityError` for the register-file
    capacity cliff (Section VI-E): carries the requested vs. available
    footprint so schedulers and callers can react programmatically
    (queue, spill, or re-place the work) instead of parsing a message.

    Attributes:
        requested_lanes / available_lanes: vector elements (columns
            summed over chains) requested vs. what the CSB offers.
        cols_per_chain: columns per chain, to convert lanes to chains.
        requested_registers / available_registers: architectural vector
            registers requested vs. the register-file rows available
            (``None`` when the failure is lane-only).
    """

    def __init__(
        self,
        message: str,
        *,
        requested_lanes: int = 0,
        available_lanes: int = 0,
        cols_per_chain: int = 32,
        requested_registers=None,
        available_registers=None,
    ) -> None:
        super().__init__(message)
        self.requested_lanes = requested_lanes
        self.available_lanes = available_lanes
        self.cols_per_chain = max(1, cols_per_chain)
        self.requested_registers = requested_registers
        self.available_registers = available_registers

    @property
    def requested_chains(self) -> int:
        """Chains needed for the requested lanes (ceiling division)."""
        return -(-self.requested_lanes // self.cols_per_chain)

    @property
    def shortfall_lanes(self) -> int:
        """Lanes the request overshoots capacity by (never negative)."""
        return max(0, self.requested_lanes - self.available_lanes)


class ProtocolError(ReproError):
    """A hardware protocol invariant was violated.

    Examples: searching more than four rows of one subarray, updating more
    than one row per subarray, or an illegal MESI transition.
    """


class PageFault(ReproError):
    """A vector memory instruction touched an unmapped page.

    Carries the element index at which the transfer stopped, so the
    control processor can restart the instruction there via ``vstart``
    (Section V-C: "load/store operations can be restarted at the index
    where a page fault occurred").
    """

    def __init__(self, element_index: int, addr: int) -> None:
        super().__init__(f"page fault at element {element_index} (addr {addr:#x})")
        self.element_index = element_index
        self.addr = addr


class FaultInjectionError(ConfigError):
    """A fault plan is malformed or targets state that cannot exist.

    Raised when a :class:`repro.faults.FaultPlan` is validated or bound
    to a device — a stuck-at value outside {0, 1}, a chain or element
    index beyond the CSB's shape, an unknown transfer kind. Injection
    itself never raises this: a bad plan is a configuration bug, caught
    before any fault fires.
    """


class DeviceFailedError(ReproError):
    """A device died mid-job (injected whole-device failure).

    Raised from the charging path once a device's cumulative cycles
    cross its :class:`repro.faults.DeviceKill` threshold — and on every
    charge thereafter, so a dead device cannot quietly keep serving.
    The pool catches it through the job-result error channel, marks the
    device dead in its health ledger, and re-places the work elsewhere.
    """


class RetryExhaustedError(ReproError):
    """A job failed on every allowed attempt and will not be retried.

    The pool's bounded-retry policy (``max_retries`` attempts with
    exponential backoff in device cycles) gave up on the job; the final
    :class:`~repro.runtime.job.JobResult` carries this error's message so
    the telemetry names why the job is FAILED.
    """


class SpillCorruptionError(ReproError):
    """A context spill slab failed its parity check on restore.

    Each protected spill appends one XOR parity word per register row;
    a restore that recomputes different parity names the corrupted rows
    here instead of silently reloading garbage into the register file.

    Attributes:
        addr: slab address of the corrupted block.
        bad_rows: indices of the rows whose parity mismatched.
    """

    def __init__(self, addr: int, bad_rows) -> None:
        self.addr = addr
        self.bad_rows = tuple(int(r) for r in bad_rows)
        rows = ", ".join(str(r) for r in self.bad_rows)
        super().__init__(
            f"spill slab at {addr:#x} corrupted: parity mismatch on "
            f"row(s) {rows}"
        )


class AdmissionError(ReproError):
    """The serving gateway refused a request at the front door.

    The gateway applies backpressure instead of buffering without
    bound: a request that cannot be admitted right now — the pending
    queue is full, the tenant is over quota, or the footprint fits no
    live device — is rejected immediately with a ``retry_after_s``
    hint so a well-behaved client can back off and resubmit.

    Attributes:
        reason: machine-readable rejection class (``"queue_full"``,
            ``"quota"``, ``"capacity"``, ``"closed"``).
        retry_after_s: suggested client backoff in wall seconds
            (``None`` when retrying cannot help, e.g. capacity).
    """

    def __init__(self, message: str, reason: str, retry_after_s=None) -> None:
        self.reason = reason
        self.retry_after_s = retry_after_s
        hint = (
            f" (retry after {retry_after_s:.3g}s)"
            if retry_after_s is not None
            else ""
        )
        super().__init__(f"{message}{hint}")


class QuotaExceededError(AdmissionError):
    """A tenant exceeded its serving quota (in-flight jobs or lanes).

    Per-tenant admission rides the same :class:`~repro.runtime.job.
    Footprint` machinery as device placement: each tenant's in-flight
    footprint lanes and job count are bounded, and a submit past either
    bound is rejected here rather than starving the other tenants.
    """

    def __init__(self, message: str, tenant: str, retry_after_s=None) -> None:
        self.tenant = tenant
        super().__init__(message, reason="quota", retry_after_s=retry_after_s)


class WorkerDiedError(ReproError):
    """A serving worker process died with requests in flight.

    The process-sharded tier treats a worker crash exactly like an
    injected :class:`repro.faults.DeviceKill` on every device the
    worker owned: the devices are retired, their queues re-placed, and
    the in-flight jobs retried elsewhere. This error surfaces only when
    no retry path remains (or directly from a raw
    :class:`repro.serve.worker.WorkerHandle`).
    """


class WorkerTimeoutError(ReproError):
    """A worker reply did not arrive within the poll window.

    Distinct from :class:`WorkerDiedError`: the worker *process* is
    still alive — the reply is merely late (a slow worker, a loaded
    host) or lost (a dropped reply, a hung worker). Callers decide how
    to escalate: keep waiting, hedge the request to another worker, or
    conclude unresponsiveness once the hang threshold passes. The
    serving tier never treats this alone as a crash.
    """


class WorkerUnresponsiveError(WorkerTimeoutError):
    """A live worker process stopped making observable progress.

    The escalation of :class:`WorkerTimeoutError`: the process is
    alive but has sent neither replies nor heartbeats past the hang
    threshold — a wedged interpreter, a deadlock, an injected
    :class:`repro.faults.WorkerHang`. The serving tier routes around
    the worker (terminate + failover) but counts it separately from a
    process death.
    """


class DeadlineExceededError(ReproError):
    """A served request blew its wall-clock deadline.

    Raised to the submitter when the gateway cancels a request whose
    deadline expired before (or while) it could be dispatched; workers
    enforce the same deadline by skipping execution of an
    already-expired request (a cheap cancel, reported in the reply
    rather than raised).
    """


class PoolStalledError(ReproError):
    """The pool's event loop stopped with jobs still queued or running.

    Raised by :meth:`repro.runtime.pool.DevicePool.run` when the event
    budget is exhausted, or when the loop drains while jobs remain stuck
    (e.g. every surviving device is dead and work is parked). Carries
    the stuck jobs' names so the operator sees *what* is stranded, not
    just that something is.

    Attributes:
        reason: why the loop stopped.
        job_names: names of the jobs left queued/running/parked.
    """

    def __init__(self, reason: str, job_names=()) -> None:
        self.reason = reason
        self.job_names = tuple(str(n) for n in job_names)
        stuck = ", ".join(self.job_names) if self.job_names else "none"
        super().__init__(f"pool stalled: {reason}; stuck jobs: {stuck}")
