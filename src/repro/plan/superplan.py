"""Whole-kernel superplans: fuse per-instruction plans into one trace.

A :class:`~repro.plan.plan.CompiledPlan` amortises the FSM walk of
*one* intrinsic; warm replay then pays the Python interleaved *between*
intrinsics — a destination check and re-sync per instruction plus a
fresh pass over each plan's kernels. A :class:`Superplan` records a whole
kernel's instruction sequence (collected by
``CAPESystem.superplan_scope``) and fuses the per-instruction lowered
programs into a single kernel stream. The active window is programmed
once per fused segment instead of once per instruction
(``vsetvl``/``vstart`` changes are flush points, so the window is
loop-invariant by construction).

Every member's lowered kernels — packed-plane int kernels, with each
accumulating search group compiled into one bitwise expression of its
truth table (``repro.plan.packed``) — are concatenated into one
:class:`~repro.plan.packed.Program`, which replays once per flush on the
backend's packed planes. The
fused stream is exactly its members' kernels: they share one token
environment, as large as the largest member's, and no kernel marks the
instruction boundaries.

Cycle/energy charging is untouched (it is functional-side, per
instruction); the fused program's static and per-lane microop charges
are the *sums* of the member plans', charged by the one rule every
lowered replay uses, so ``csb.microops`` totals stay bit-identical to
per-instruction replay. The destination check and mirror re-sync
happen once per flushed register (``CAPESystem._superplan_flush``),
through the routine every route uses,
:func:`~repro.engine.bitexec.sync_destination`: the low SEW planes
inside the active window (plane 0 for mask producers), every plane
outside it, and the row left equal to the functional row.

Superplans are pure like their members: keyed by the instruction-key
sequence (never column count or data), cached in the same
:class:`~repro.plan.cache.PlanCache`, and safe to share across
devices. Eligibility mirrors gang execution — plain bit-plane
backend, no fault injector, no microop trace — so the reference and
faulty per-primitive paths are untouched (``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.plan import packed
from repro.plan.plan import CompiledPlan

__all__ = ["Superplan", "fuse_plans", "superplan_key"]


def superplan_key(num_subarrays: int, sew: int, op_keys: Sequence) -> tuple:
    """The cache key of a fused segment.

    Purely structural — the per-instruction plan keys in dispatch order
    (those already carry mnemonic/SEW/roles/scalar/mask form), never the
    column count, window, or data — so one superplan serves every device
    and every ``vl`` the kernel runs at.
    """
    return ("superplan", num_subarrays, sew, tuple(op_keys))


class Superplan:
    """An immutable fused kernel stream for one instruction sequence.

    Built by :func:`fuse_plans`; ``CAPESystem._superplan_flush`` replays
    its ``program`` (:func:`~repro.plan.plan.replay_lowered`) on the
    ganged chain of a plain bit-plane backend. ``writes`` lists the registers the sequence
    leaves written (in first-write order) with their mask-result flag —
    the flush validates and re-syncs exactly those.
    """

    __slots__ = ("key", "num_subarrays", "program", "writes",
                 "num_instructions")

    def __init__(
        self,
        key,
        num_subarrays: int,
        program: packed.Program,
        writes: Tuple[Tuple[int, bool], ...],
        num_instructions: int,
    ) -> None:
        self.key = key
        self.num_subarrays = num_subarrays
        self.program = program
        self.writes = writes
        self.num_instructions = num_instructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Superplan({self.num_instructions} instrs, "
            f"{len(self.program.kernels)} kernels)"
        )


def fuse_plans(
    key,
    num_subarrays: int,
    entries: Sequence[Tuple[str, int, bool, CompiledPlan]],
) -> Superplan:
    """Fuse per-instruction plans into one :class:`Superplan`.

    ``entries`` is the recorded sequence: ``(mnemonic, vd, is_mask,
    plan)`` per instruction in dispatch order. The members' kernels are
    concatenated and their charges summed, so microop totals match
    per-instruction replay exactly. The members share one token
    environment, sized for the largest: every token a kernel reads was
    written earlier by its own member, so a slot an earlier member left
    behind is never read.
    """
    writes: List[Tuple[int, bool]] = []
    last_mask: Dict[int, bool] = {}
    for _mnemonic, vd, is_mask, _plan in entries:
        if vd not in last_mask:
            writes.append((vd, is_mask))
        last_mask[vd] = is_mask
    # The flag that matters is the *last* writer's (earlier intermediate
    # values are overwritten before the flush compares them).
    writes = [(vd, last_mask[vd]) for vd, _ in writes]

    programs = [plan.program for _mnemonic, _vd, _is_mask, plan in entries]
    charges: Counter = Counter()
    lane_charges: Counter = Counter()
    for program in programs:
        charges.update(program.charges)
        lane_charges.update(program.lane_charges)
    fused = packed.Program(
        [kernel for program in programs for kernel in program.kernels],
        num_subarrays,
        max((program.num_tokens for program in programs), default=0),
        charges,
        lane_charges,
    )
    return Superplan(key, num_subarrays, fused, tuple(writes), len(entries))
