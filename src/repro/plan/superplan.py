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
:class:`~repro.plan.packed.Program`, so the fused stream packs each
touched row once per flush and writes back only what it wrote.

Cycle/energy charging is untouched (it is functional-side, per
instruction); the fused stream's static microop charges are the *sum* of
the member plans' charges, so ``csb.microops`` totals stay bit-identical
to per-instruction replay. The destination check and mirror re-sync
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

    Built by :func:`fuse_plans`; replayed by
    ``CAPESystem._superplan_flush`` on the ganged chain of a plain
    bit-plane backend. ``writes`` lists the registers the sequence
    leaves written (in first-write order) with their mask-result flag —
    the flush validates and re-syncs exactly those.
    """

    __slots__ = (
        "key",
        "num_subarrays",
        "program",
        "charges",
        "writes",
        "num_instructions",
        "kernels_in",
        "kernels_out",
    )

    def __init__(
        self,
        key,
        num_subarrays: int,
        kernels: List[Tuple],
        charges: Counter,
        writes: Tuple[Tuple[int, bool], ...],
        num_instructions: int,
        kernels_in: int,
    ) -> None:
        self.key = key
        self.num_subarrays = num_subarrays
        self.program = packed.Program(kernels, num_subarrays, 0)
        self.charges = dict(charges)
        self.writes = writes
        self.num_instructions = num_instructions
        self.kernels_in = kernels_in
        self.kernels_out = len(kernels)

    def replay(self, chain) -> None:
        """Run the fused stream on a live ganged chain, then bulk-charge.

        The caller guarantees a plain
        :class:`~repro.csb.bitplane.BitplaneBackend` with no microop
        trace (the same precondition as the lowered per-instruction
        path); validation and mirror re-sync are the caller's job.
        """
        packed.run_program(
            self.program, chain.backend,
            packed.pack_bits(chain.active_columns), chain.rmw_register,
        )
        stats = chain.stats
        for (op, bit_parallel), n in self.charges.items():
            stats.record(op, bit_parallel, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Superplan({self.num_instructions} instrs, "
            f"{self.kernels_in}->{self.kernels_out} kernels)"
        )


def fuse_plans(
    key,
    num_subarrays: int,
    entries: Sequence[Tuple[str, int, bool, CompiledPlan]],
) -> Superplan:
    """Fuse per-instruction plans into one :class:`Superplan`.

    ``entries`` is the recorded sequence: ``(mnemonic, vd, is_mask,
    plan)`` per instruction in dispatch order. The members' kernels are
    concatenated, each member opening a fresh token environment, and
    their charges summed, so microop totals match per-instruction replay
    exactly.
    """
    kernels: List[Tuple] = []
    charges: Counter = Counter()
    kernels_in = 0

    writes: List[Tuple[int, bool]] = []
    last_mask: Dict[int, bool] = {}
    for _mnemonic, vd, is_mask, _plan in entries:
        if vd not in last_mask:
            writes.append((vd, is_mask))
        last_mask[vd] = is_mask
    # The flag that matters is the *last* writer's (earlier intermediate
    # values are overwritten before the flush compares them).
    writes = [(vd, last_mask[vd]) for vd, _ in writes]

    for _mnemonic, _vd, _is_mask, plan in entries:
        for (op, bit_parallel), n in plan.charges.items():
            charges[(op, bit_parallel)] += n
        if plan.program.num_tokens:
            kernels.append(packed.new_env(plan.program.num_tokens))
        kernels.extend(plan.program.kernels)
        kernels_in += len(plan.program.kernels)

    return Superplan(
        key,
        num_subarrays,
        kernels,
        charges,
        tuple(writes),
        len(entries),
        kernels_in,
    )
