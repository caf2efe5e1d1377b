"""Vector-context spill/restore through the VMU (the capacity valve).

The CSB register file is the scarce resource the runtime schedules
around (the Section VI-E capacity cliff): a job whose live vector state
does not fit a device's lanes must *time-share* the register file. This
module implements the save/restore half of that: snapshots of the
architectural vector state (selected registers' windows plus the
``vl``/``vstart``/SEW CSRs) spilled to a reserved slab of device memory
over the VMU's bulk path — so every spill and restore shows up in the
run's HBM cycles and energy, and scheduling decisions have a visible,
physical cost.

The CSR portion of a context is control-processor state and costs
nothing to stage; the register windows pay full HBM freight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

from repro.common.errors import CapacityError, ConfigError
from repro.engine.system import CAPESystem
from repro.memory.mainmem import WORD_BYTES

#: Default base of the spill slab: above the workload array slots
#: (``ARRAY_BASE + 3 * ARRAY_SPACING``) in the default 64 MiB store.
SPILL_BASE = 0x0340_0000


@dataclass(frozen=True)
class VectorContext:
    """One spilled context: where it lives and the CSRs to re-arm.

    Attributes:
        addr: slab address of the contiguous register block.
        regs: architectural register indices, in spill order.
        vl / vstart / sew: the CSR state at spill time.
        capacity_words: slab words reserved (for in-place re-spill).
    """

    addr: int
    regs: Tuple[int, ...]
    vl: int
    vstart: int
    sew: int
    capacity_words: int

    @property
    def words(self) -> int:
        return len(self.regs) * self.vl


@dataclass
class ContextStats:
    """Spill-path accounting, aggregated across a job or device."""

    spills: int = 0
    restores: int = 0
    bytes_spilled: int = 0
    bytes_restored: int = 0
    cycles: float = 0.0


class ContextManager:
    """Allocates spill slots in a device's memory and moves contexts.

    One manager per device execution; slots are keyed by any hashable
    (the runtime uses segment indices) and reused in place when the same
    key is re-spilled with a compatible shape.

    Args:
        system: the device whose state is being staged.
        base: first byte of the spill slab (word-aligned).
        limit: one past the last usable slab byte (defaults to the end
            of the device's memory).
        protect: append + verify XOR parity words on every context
            (one word per register). Defaults to on exactly when the
            system carries a fault injector with a live plan, so the
            fault-free path keeps its byte counts and the chaos path
            detects corrupted slabs instead of reloading garbage.
    """

    def __init__(
        self,
        system: CAPESystem,
        base: int = SPILL_BASE,
        limit: int = 0,
        protect: bool = None,
    ) -> None:
        if base % WORD_BYTES != 0:
            raise ConfigError("spill base must be word-aligned")
        self.system = system
        self.base = base
        self.limit = limit if limit > 0 else system.memory.size_bytes
        if not base < self.limit <= system.memory.size_bytes:
            raise ConfigError(
                f"spill slab [{base:#x}, {self.limit:#x}) outside device "
                f"memory of {system.memory.size_bytes:#x} bytes"
            )
        if protect is None:
            injector = getattr(system, "fault_injector", None)
            protect = injector is not None and injector.protect_slabs
        self.protect = bool(protect)
        self._next = base
        self._slots: Dict[Hashable, VectorContext] = {}
        self.stats = ContextStats()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slots

    def _allocate(self, key: Hashable, words: int) -> Tuple[int, int]:
        """Reuse the key's slot when it still fits, else carve a new one."""
        old = self._slots.get(key)
        if old is not None and words <= old.capacity_words:
            return old.addr, old.capacity_words
        addr = self._next
        end = addr + words * WORD_BYTES
        if end > self.limit:
            raise CapacityError(
                f"spill slab exhausted: need {words * WORD_BYTES} bytes at "
                f"{addr:#x}, slab ends at {self.limit:#x}"
            )
        self._next = end
        return addr, words

    def spill(self, key: Hashable, regs) -> VectorContext:
        """Save ``regs``' active windows + CSRs under ``key``.

        Charges the bulk HBM transfer to the device's stats and returns
        the recorded context.
        """
        regs = tuple(dict.fromkeys(int(r) for r in regs))  # dedupe, keep order
        if not regs:
            raise ConfigError("cannot spill an empty register set")
        system = self.system
        words = len(regs) * system.vl
        # Parity words live after the data rows inside the same slot.
        alloc_words = words + (len(regs) if self.protect else 0)
        addr, capacity = self._allocate(key, alloc_words)
        cycles = system.spill_vregs(regs, addr, protect=self.protect)
        ctx = VectorContext(
            addr=addr,
            regs=regs,
            vl=system.vl,
            vstart=system.vstart,
            sew=system.sew,
            capacity_words=capacity,
        )
        self._slots[key] = ctx
        self.stats.spills += 1
        self.stats.bytes_spilled += words * WORD_BYTES
        self.stats.cycles += cycles
        return ctx

    def restore(self, key: Hashable) -> VectorContext:
        """Re-arm the CSRs and reload the registers spilled under ``key``."""
        try:
            ctx = self._slots[key]
        except KeyError:
            raise ConfigError(f"no spilled context under key {key!r}") from None
        system = self.system
        system.set_sew(ctx.sew)
        system.vl = ctx.vl
        system.vstart = ctx.vstart
        cycles = system.fill_vregs(ctx.regs, ctx.addr, protect=self.protect)
        self.stats.restores += 1
        self.stats.bytes_restored += ctx.words * WORD_BYTES
        self.stats.cycles += cycles
        return ctx
