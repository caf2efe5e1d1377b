"""Gang execution: one CompiledPlan replayed across N stacked devices.

SIMD over *devices*: same-shape devices running structurally identical
jobs stack their bit-plane mirrors into one wide
:class:`~repro.csb.bitplane.BitplaneBackend` and replay each compiled
plan once with one int op per step over the stacked packed planes
(``repro.plan.packed``) — amortising the per-dispatch Python overhead
that worker processes (BENCH_6) could not, so it wins even on one
CPU. Results, cycles, energy, and microop totals stay bit-identical to
sequential execution; a member that diverges mid-gang is ejected onto the sequential path
(where the fault-healing ladder applies) without touching its peers.

See :mod:`repro.gang.runner` for the orchestration contract,
:mod:`repro.gang.defer` for phase-1 trace capture, and
:mod:`repro.gang.replay` for the stacked replay; docs/GANG.md covers
eligibility, fallback, and fault-ejection semantics.
"""

from repro.gang.defer import DeferredBitEngine, trace_signature
from repro.gang.replay import GangMember, GangReplay
from repro.gang.runner import (
    GANG_MODES,
    GangOutcome,
    ineligible_reason,
    resolve_gang_mode,
    run_ganged,
)

__all__ = [
    "DeferredBitEngine",
    "GANG_MODES",
    "GangMember",
    "GangOutcome",
    "GangReplay",
    "ineligible_reason",
    "resolve_gang_mode",
    "run_ganged",
    "trace_signature",
]
