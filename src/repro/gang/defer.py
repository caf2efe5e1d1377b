"""Deferred bit-level engine: trace a job's mirror work instead of doing it.

Gang execution runs in two phases. Phase 1 executes each member job
*functionally* on its own device with a :class:`DeferredBitEngine`
standing in for the real :class:`~repro.engine.bitexec.BitEngine`: every
intrinsic that would have run microcode on the mirror CSB is resolved to
its :class:`~repro.plan.CompiledPlan` (warming the plan cache exactly
like live execution) and logged as a trace entry; every register sync is
logged with the functional values; reductions log the functional scalar
they must reproduce. Phase 2 (:mod:`repro.gang.replay`) stacks the
traces of same-shape jobs and replays each plan once across all of them.

The deferred engine reports ``backend == "bitplane"`` so
``CAPESystem.set_backend("bitplane")`` inside ``Job.execute`` is a no-op
while it is installed, and ``deferred = True`` so
``CAPESystem._bitexec`` skips the immediate destination check (the
mirror state does not exist yet — the check happens at gang replay,
with mismatching members ejected to the sequential path).

Trace entries (tuples, first element is the kind):

* ``("op", key, plan, vl, vstart)`` — one intrinsic's microcode; ``key``
  is the :class:`~repro.engine.bitexec.OpKey` the live engine would have
  used (mnemonic, SEW, operand roles, scalar, mask form — never the
  column count), so grouping by trace signature *is* grouping by plan
  key.
* ``("sync", vreg, values)`` — the functional row mirrored after the op
  (or standing alone for loads and unsupported-form fallbacks).
* ``("redsum", vs1, width, vl, vstart, expected)`` — bit-serial
  reduction; ``expected`` is the functional sum the replay must match.
* ``("popcount", vm, vl, vstart, expected)`` — mask pop-count.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.bitexec import (
    UnsupportedMicrocode,
    microcode_unsupported_reason,
    op_key,
    op_plan,
)
from repro.plan import GLOBAL_PLAN_CACHE, PlanCache

__all__ = ["DeferredBitEngine", "trace_signature"]


class DeferredBitEngine:
    """A :class:`~repro.engine.bitexec.BitEngine` stand-in that records.

    Duck-types the engine surface :class:`~repro.engine.system.CAPESystem`
    drives while deferred — ``execute``/``sync_register``/``popcount``/
    ``reset``/``attach_observer`` — but owns no CSB: microcode becomes
    trace entries, syncs become logged functional rows. Plans resolve
    through :func:`~repro.engine.bitexec.op_plan` with the same cache and
    keys as live execution, so a deferred phase warms the cache
    identically.
    """

    #: Deferred engines never execute eagerly; the system's ``_bitexec``
    #: checks this to skip the immediate destination check.
    deferred = True

    def __init__(
        self,
        num_chains: int,
        num_subarrays: int,
        num_cols: int,
        plan_cache: PlanCache = GLOBAL_PLAN_CACHE,
        observer=None,
    ) -> None:
        #: Reported backend name; must be "bitplane" so set_backend()
        #: inside Job.execute early-returns while we are installed.
        self.backend = "bitplane"
        self.observer = observer
        self._plan_cache = plan_cache
        self._shape = (num_chains, num_subarrays, num_cols)
        #: The recorded trace (see module docstring for entry shapes).
        self.trace: List[tuple] = []
        #: vreg -> last synced functional row (the shadow register file
        #: reductions compute their expected scalars from).
        self._rows = {}

    # -- engine surface -------------------------------------------------

    def reset(self) -> None:
        """Drop the recorded trace and shadow rows (fresh mirror)."""
        self.trace.clear()
        self._rows.clear()

    def attach_observer(self, observer) -> None:
        self.observer = observer

    def sync_register(self, vreg: int, values: np.ndarray) -> None:
        values = np.array(values, dtype=np.int64, copy=True)
        self._rows[vreg] = values
        self.trace.append(("sync", vreg, values))

    def popcount(self, vreg: int, vl: int, vstart: int) -> None:
        """Log a mask pop-count; returns ``None`` (checked at replay)."""
        row = self._rows.get(vreg)
        count = 0 if row is None else int((row[vstart:vl] & 1).sum())
        self.trace.append(("popcount", vreg, vl, vstart, count))
        return None

    def execute(
        self,
        mnemonic: str,
        vd: Optional[int] = None,
        vs1: Optional[int] = None,
        vs2: Optional[int] = None,
        scalar: Optional[int] = None,
        mask_reg: Optional[int] = None,
        width: int = 32,
        vl: int = 0,
        vstart: int = 0,
    ):
        """Resolve the intrinsic's plan and log it instead of running it.

        Applies the live engine's form check
        (:func:`~repro.engine.bitexec.microcode_unsupported_reason`), so
        the functional-fallback behaviour (and therefore the trace's sync
        pattern) matches sequential execution entry for entry.
        """
        reason = microcode_unsupported_reason(mnemonic, vd, vs1, vs2, mask_reg)
        if reason is not None:
            raise UnsupportedMicrocode(reason)

        if mnemonic == "vredsum.vs":
            row = self._rows.get(vs1)
            expected = 0 if row is None else int(row[vstart:vl].sum())
            self.trace.append(
                ("redsum", vs1, width, vl, vstart, expected)
            )
            # None tells the system to keep the functional total; the
            # bit-level total is checked against ``expected`` at replay.
            return None

        key = op_key(
            mnemonic, width, self._shape[1], vd, vs1, vs2, scalar, mask_reg
        )
        plan = op_plan(key, self._plan_cache, self.observer)
        self.trace.append(("op", key, plan, vl, vstart))
        return None


def trace_signature(trace) -> tuple:
    """Structural signature of a trace: the gang-grouping key.

    Two traces with equal signatures issue the same plans against the
    same registers in the same order — per-member data (synced values,
    expected scalars) and active windows (``vl``/``vstart``) are
    deliberately excluded, so jobs over different data and different
    vector lengths still gang together.
    """
    sig = []
    for entry in trace:
        kind = entry[0]
        if kind == "op":
            sig.append(("op", entry[1]))
        elif kind == "sync":
            sig.append(("sync", entry[1]))
        elif kind == "redsum":
            sig.append(("redsum", entry[1], entry[2]))
        else:
            sig.append(("popcount", entry[1]))
    return tuple(sig)
