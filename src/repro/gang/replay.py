"""Phase 2 of gang execution: replay stacked traces on one wide backend.

A gang of K same-shape devices is realised as a single fresh
:class:`~repro.csb.bitplane.BitplaneBackend` whose column axis is K
contiguous device-sized blocks — member ``k`` owns columns
``[k*C, (k+1)*C)`` where ``C`` is the device's ``max_vl``. Because the
VMU interleave makes fused column ``e`` hold element ``e``, a member
block is just that device's ganged backend laid side by side with its
peers: the conceptual ``(devices, planes, cols)`` stack flattened along
the column axis. Every lowered plan kernel is already width-agnostic
(plans are shared across device widths), so one kernel over ``K*C``-bit
packed planes (``repro.plan.packed``) **is** the batched per-step op —
searches, updates, lookup-table expressions and the shifts' plane moves
sweep all K devices in one int operation, with no callback into the
backend.

Per-member state enters through two narrow doors:

* **syncs** — the K functional rows are concatenated and exploded into
  bit-planes with one :func:`~repro.common.bitutils.ints_to_bits` call;
* **active windows** — each member's ``vl``/``vstart`` becomes ones in
  its column block, so heterogeneous vector lengths gang together.

Cross-validation is batched and lazy: after replaying an op the
destination is *checked at the adjacent sync* (the system always syncs
the destination right after checking it) by
:func:`~repro.engine.bitexec.sync_destination` — the routine every
device applies to its one window, here over K windows of the stacked
planes at once, re-syncing each member block that matched. A member
that fails any check (op, redsum, or popcount) is **ejected**: its gang
outcome is discarded and the caller re-runs the job on its own device,
where the fault-healing ladder applies. Ejection never poisons peers —
no lowered kernel reads across columns.

Microop charges are buffered per member — each op's charges over the
member's ``vl - vstart`` lanes, by the rule every lowered replay charges
by (:meth:`~repro.plan.packed.Program.charges_over`) — and flushed by
the caller only for members whose gang execution survived, so observer
totals stay bit-identical to sequential execution.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.microops import Microop
from repro.common.bitutils import ints_to_bits
from repro.common.errors import ConfigError
from repro.csb.bitplane import BitplaneBackend
from repro.csb.reduction import ReductionTree
from repro.engine.bitexec import MASK_RESULTS, sync_destination
from repro.plan.packed import pack_bits, run_program
from repro.plan.recorder import NUM_ROWS

__all__ = ["GangMember", "GangReplay"]


class GangMember:
    """One device's contribution to a gang: its trace and its tally."""

    __slots__ = ("trace", "label", "charges", "ejected", "eject_reason")

    def __init__(self, trace, label: str = "?") -> None:
        self.trace = trace
        self.label = label
        #: Buffered microop charges, keyed like MicroopStats.counts.
        self.charges: Counter = Counter()
        self.ejected = False
        self.eject_reason: Optional[str] = None


class GangReplay:
    """Replay K structurally-identical traces on one stacked backend.

    Args:
        config: the members' shared :class:`~repro.engine.system.CAPEConfig`
            design point (same chains, columns, and element width — the
            runner groups by shape before building a gang).
        members: :class:`GangMember` per device, traces already verified
            to share a :func:`~repro.gang.defer.trace_signature`.

    After :meth:`replay`, each member carries its buffered ``charges``
    and, on divergence, ``ejected``/``eject_reason``.
    """

    #: Test seam: when set (class or instance attribute), called as
    #: ``chaos_hook(replay, index, kind)`` before each trace entry is
    #: replayed — chaos tests use it to flip a tag or bitcell of one
    #: member mid-gang and assert the ejection path. ``None`` in
    #: production.
    chaos_hook = None

    def __init__(self, config, members: List[GangMember]) -> None:
        if not members:
            raise ConfigError("a gang needs at least one member")
        lengths = {len(m.trace) for m in members}
        if len(lengths) != 1:
            raise ConfigError(
                f"gang members disagree on trace length: {sorted(lengths)}"
            )
        self.config = config
        self.members = members
        self.K = len(members)
        self.C = config.max_vl
        self.S = config.element_bits
        self.num_chains = config.num_chains
        #: The stacked mirror: K contiguous device-sized column blocks.
        self.backend = BitplaneBackend(self.S, NUM_ROWS, self.K * self.C)
        self._tree = ReductionTree(self.num_chains)
        self._active_key: Optional[Tuple] = None
        self._active_u8: Optional[np.ndarray] = None
        self._active_int = 0
        #: (OpKey, windows) of the op awaiting its sync check.
        self._pending = None

    def member_slice(self, k: int) -> slice:
        """Column block of member ``k`` in the stacked backend."""
        return slice(k * self.C, (k + 1) * self.C)

    # -- active-window stacking ----------------------------------------

    def _active(self, windows: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        """Gang-wide active mask from per-member ``(vl, vstart)``."""
        if windows == self._active_key:
            return self._active_u8
        active = np.zeros(self.K * self.C, dtype=np.uint8)
        for k, (vl, vstart) in enumerate(windows):
            active[k * self.C + vstart: k * self.C + vl] = 1
        self._active_key = windows
        self._active_u8 = active
        self._active_int = pack_bits(active)
        return active

    # -- ejection -------------------------------------------------------

    def _eject(self, k: int, reason: str) -> None:
        member = self.members[k]
        if not member.ejected:
            member.ejected = True
            member.eject_reason = reason

    # -- replay ---------------------------------------------------------

    def replay(self) -> None:
        """Walk the stacked trace; see the class docstring for effects."""
        members = self.members
        length = len(members[0].trace)
        # Plain-function lookup: a hook assigned on the class must not
        # bind as a method (it is called with the replay passed
        # explicitly), so bypass the descriptor protocol.
        hook = self.__dict__.get("chaos_hook", type(self).__dict__.get("chaos_hook"))
        for index in range(length):
            if hook is not None:
                hook(self, index, members[0].trace[index][0])
            rows = [m.trace[index] for m in members]
            kind = rows[0][0]
            if kind == "op":
                self._replay_op(rows)
            elif kind == "sync":
                self._replay_sync(rows)
            elif kind == "redsum":
                self._replay_redsum(rows)
            else:
                self._replay_popcount(rows)
        self._pending = None

    def _replay_op(self, rows) -> None:
        _, key, plan, _vl, _vstart = rows[0]
        windows = tuple((entry[3], entry[4]) for entry in rows)
        self._active(windows)
        program = plan.program
        run_program(program, self.backend, self._active_int)
        for member, (vl, vstart) in zip(self.members, windows):
            if not member.ejected:
                member.charges.update(program.charges_over(vl - vstart))
        self._pending = (key, windows)

    def _replay_sync(self, rows) -> None:
        vreg = rows[0][1]
        stacked = np.concatenate([entry[2] for entry in rows])
        pending = self._pending
        if pending is None or pending[0].vd != vreg:
            self.backend.set_register_planes(vreg, ints_to_bits(stacked, self.S))
            return
        key, windows = pending
        self._pending = None
        width = 1 if key.mnemonic in MASK_RESULTS else key.width
        diverged = sync_destination(self.backend, vreg, stacked, windows, width)
        for k in np.flatnonzero(diverged):
            self._eject(k, f"op divergence on v{vreg}")

    def _replay_redsum(self, rows) -> None:
        _, vs1, width, _vl, _vstart, _exp = rows[0]
        windows = tuple((entry[3], entry[4]) for entry in rows)
        partials = self.backend.echo_partials(
            vs1, width, self._active(windows), self.num_chains, self.K
        )
        for k, entry in enumerate(rows):
            member = self.members[k]
            if member.ejected:
                continue
            total = self._tree.reduce([int(p) for p in partials[k]])
            if total != entry[5]:
                self._eject(k, "redsum divergence")
                continue
            member.charges[(Microop.SEARCH, True)] += width
            member.charges[(Microop.REDUCE, True)] += width

    def _replay_popcount(self, rows) -> None:
        vm = rows[0][1]
        windows = tuple((entry[2], entry[3]) for entry in rows)
        counts = self.backend.echo_partials(
            vm, 1, self._active(windows), self.num_chains, self.K
        ).sum(axis=1)
        for k, entry in enumerate(rows):
            member = self.members[k]
            if not member.ejected and int(counts[k]) != entry[4]:
                self._eject(k, "popcount divergence")
