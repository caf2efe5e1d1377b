"""Multi-tenant CAPE device runtime (serving layer).

Turns the single-shot simulator into a servable engine: jobs wrap any
CAPE kernel with a vector-register footprint, priority, and deadline; a
capacity-aware scheduler admits them against the CSB capacity cliff
(Section VI-E) or serves oversized footprints through context
spill/restore; and a device pool shards the stream across mixed
CAPE32k/CAPE131k systems under a deterministic simulated clock, with
per-job and per-device telemetry. The pool self-heals through injected
faults (:mod:`repro.faults`): bounded retries with exponential backoff,
per-device health ledgers with quarantine/probation, and permanent
retirement of dead devices — see :mod:`repro.runtime.health`.

See ``docs/RUNTIME.md`` for the job model, the scheduling policies, and
the spill-cost model.
"""

from repro.runtime.clock import SimClock
from repro.runtime.context import ContextManager, ContextStats, VectorContext
from repro.runtime.execconfig import ExecConfig
from repro.runtime.health import DeviceHealth, HealthState
from repro.runtime.job import (
    Footprint,
    Job,
    JobResult,
    JobState,
    SegmentedJob,
)
from repro.runtime.pool import DEFAULT_POOL, Device, DevicePool
from repro.runtime.scheduler import (
    POLICIES,
    BestFitPolicy,
    FIFOPolicy,
    Scheduler,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
    make_policy,
)
from repro.runtime._telemetry import (
    DeviceRecord,
    JobRecord,
    Telemetry,
    TelemetryReport,
)

__all__ = [
    "BestFitPolicy",
    "ContextManager",
    "ContextStats",
    "DEFAULT_POOL",
    "Device",
    "DeviceHealth",
    "DevicePool",
    "DeviceRecord",
    "ExecConfig",
    "FIFOPolicy",
    "HealthState",
    "Footprint",
    "Job",
    "JobRecord",
    "JobResult",
    "JobState",
    "POLICIES",
    "Scheduler",
    "SchedulingPolicy",
    "SegmentedJob",
    "ShortestJobFirstPolicy",
    "SimClock",
    "Telemetry",
    "TelemetryReport",
    "VectorContext",
    "make_policy",
]
