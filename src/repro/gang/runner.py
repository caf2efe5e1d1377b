"""Gang orchestration: eligibility, trace capture, grouping, dispatch.

:func:`run_ganged` is the one entry point both execution tiers share —
:class:`~repro.runtime.pool.DevicePool` calls it in process for each
wave of its event loop, :mod:`repro.serve.worker` calls it inside a worker
process for the members it owns. It takes ``(system, job)`` pairs,
executes every job exactly once from the caller's point of view
(setting ``job.result``), and reports per-job :class:`GangOutcome`\\ s.

The pipeline:

1. **Eligibility** — a job gangs only when it would execute on the
   bit-plane backend (the job's own ``backend=`` or the device's), the
   device carries no live CSB faults (stuck bits / tag flips / chain
   kills make the mirror diverge by design and belong on the sequential
   ladder; transfer faults and whole-device kills live outside the CSB
   and gang fine), and no microop trace is being kept (bulk charging
   would reorder it). Ineligible jobs run the normal sequential path.
2. **Phase 1: traced functional execution** — each eligible job runs on
   its own device with a :class:`~repro.gang.defer.DeferredBitEngine`
   swapped in, producing the job's real functional result, cycle and
   energy charges, and the mirror trace. A body that switches backends
   mid-job evicts the deferred engine; such jobs are detected and
   re-run sequentially.
3. **Grouping** — traces are grouped by device shape plus
   :func:`~repro.gang.defer.trace_signature` (the plan-key stream), so a
   group shares every compiled plan it will replay.
4. **Phase 2: stacked replay** — each group replays once on a
   :class:`~repro.gang.replay.GangReplay`; surviving members get their
   buffered microop charges flushed to their device's observer, ejected
   members are re-run sequentially (the healing ladder applies there).

Observer families (pool-level observer): ``gang.hit`` (jobs whose
mirror work was served by a stacked replay), ``gang.size`` histogram
(one observation per ``gang.hit``: the size of that job's gang, ejected
members included — what the wire path folds from each reply),
``gang.miss`` with a ``reason`` label, and ``gang.ejected``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.csb.counter import MicroopStats
from repro.gang.defer import DeferredBitEngine, trace_signature
from repro.gang.replay import GangMember, GangReplay

__all__ = ["GangOutcome", "ineligible_reason", "run_ganged"]

#: Accepted values for every ``gang=`` knob.
GANG_MODES = (True, False, "auto")


def resolve_gang_mode(gang):
    """Validate a ``gang=`` knob (``True`` / ``False`` / ``"auto"``)."""
    if gang not in GANG_MODES:
        raise ConfigError(
            f"gang must be True, False, or 'auto', got {gang!r}"
        )
    return gang


@dataclass
class GangOutcome:
    """How one job was executed by :func:`run_ganged`."""

    #: Mirror work served by a stacked gang replay.
    ganged: bool = False
    #: Gang check failed for this member; job re-ran sequentially.
    ejected: bool = False
    #: Miss/ejection reason ("backend", "faults", "trace", "singleton",
    #: "backend-switch", or a divergence description); None on a hit.
    reason: Optional[str] = None
    #: Members in this job's gang (0 when not ganged).
    gang_size: int = 0


def ineligible_reason(system, job) -> Optional[str]:
    """Why (system, job) cannot join a gang; ``None`` when it can."""
    backend = job.backend if job.backend is not None else system.backend
    if backend != "bitplane":
        return "backend"
    injector = system.fault_injector
    if injector is not None and injector.has_csb_faults:
        return "faults"
    engine = system._bitengine
    if engine is not None and engine.csb.stats.keep_trace:
        return "trace"
    return None


def _run_sequential(system, job) -> None:
    system.reset()
    job.result = job.execute(system)


def _phase1(system, job):
    """Execute ``job`` functionally with a deferred mirror; return the
    trace, or ``None`` if the body evicted the deferred engine (explicit
    ``set_backend`` mid-job — the job must re-run sequentially)."""
    system.reset()
    previous = system._bitengine
    config = system.config
    engine = DeferredBitEngine(
        config.num_chains,
        config.element_bits,
        config.cols_per_chain,
        plan_cache=system._plan_cache,
        observer=system.observer,
    )
    system._bitengine = engine
    try:
        job.result = job.execute(system)
    finally:
        installed = system._bitengine
        system._bitengine = previous
    return engine.trace if installed is engine else None


def _flush_charges(system, member: GangMember) -> None:
    """Credit a surviving member's buffered microops to its device.

    A throwaway :class:`MicroopStats` bound to the device's observer
    reproduces exactly what the live mirror's counter would have
    emitted (same ``csb.microops`` family, same backend/device labels,
    same totals)."""
    if not member.charges:
        return
    stats = MicroopStats()
    stats.attach_observer(system.observer, backend="bitplane")
    for (op, bit_parallel), n in member.charges.items():
        stats.record(op, bit_parallel, n)


def run_ganged(
    entries: Sequence[Tuple[object, object]],
    *,
    mode=True,
    observer=None,
    run_job: Optional[Callable[[int], None]] = None,
) -> List[GangOutcome]:
    """Execute ``(system, job)`` pairs, ganging what can be ganged.

    Args:
        entries: one (system, job) per device; systems must be distinct
            (a device runs one job at a time).
        mode: ``True`` gangs every eligible job (singleton gangs
            included); ``"auto"`` requires at least two eligible jobs in
            the batch, otherwise everything runs sequentially; ``False``
            runs everything sequentially.
        observer: optional pool-level observer for the ``gang.*``
            metric families.
        run_job: sequential executor ``run_job(index)`` used for
            ineligible jobs and ejected members; defaults to
            ``system.reset(); job.result = job.execute(system)``.

    Returns:
        One :class:`GangOutcome` per entry, in order.
    """
    mode = resolve_gang_mode(mode)
    obs = observer if observer is not None and observer.enabled else None
    if run_job is None:
        def run_job(index):
            system, job = entries[index]
            _run_sequential(system, job)

    outcomes = [GangOutcome() for _ in entries]
    eligible: List[int] = []
    sequential: List[int] = []
    for index, (system, job) in enumerate(entries):
        reason = None if mode is not False else "disabled"
        if reason is None:
            reason = ineligible_reason(system, job)
        if reason is None:
            eligible.append(index)
        else:
            outcomes[index].reason = reason
            sequential.append(index)

    if mode == "auto" and len(eligible) < 2:
        for index in eligible:
            outcomes[index].reason = "singleton"
        sequential = sorted(sequential + eligible)
        eligible = []

    if obs is not None:
        for index in sequential:
            obs.counter("gang.miss", reason=outcomes[index].reason).inc()

    # Phase 1: traced functional execution on each member's own device.
    groups = {}
    for index in eligible:
        system, job = entries[index]
        trace = _phase1(system, job)
        if trace is None:
            outcomes[index].reason = "backend-switch"
            if obs is not None:
                obs.counter("gang.miss", reason="backend-switch").inc()
            run_job(index)
            continue
        config = system.config
        shape = (
            config.num_chains, config.cols_per_chain, config.element_bits,
        )
        key = (shape, trace_signature(trace))
        groups.setdefault(key, []).append((index, trace))

    # Phase 2: one stacked replay per structural group.
    for (_shape, _sig), grouped in groups.items():
        config = entries[grouped[0][0]][0].config
        members = [
            GangMember(trace, label=getattr(entries[i][1], "name", str(i)))
            for i, trace in grouped
        ]
        replay = GangReplay(config, members)
        replay.replay()
        for (index, _trace), member in zip(grouped, members):
            outcome = outcomes[index]
            outcome.gang_size = len(members)
            if member.ejected:
                outcome.ejected = True
                outcome.reason = member.eject_reason
                if obs is not None:
                    obs.counter("gang.ejected").inc()
                    obs.counter("gang.miss", reason="ejected").inc()
                run_job(index)
            else:
                outcome.ganged = True
                system, _job = entries[index]
                _flush_charges(system, member)
                if obs is not None:
                    obs.counter("gang.hit").inc()
                    obs.histogram("gang.size").observe(len(members))

    for index in sequential:
        run_job(index)
    return outcomes
