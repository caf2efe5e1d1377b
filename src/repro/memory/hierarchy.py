"""Cache hierarchy timing model for the baseline and control processors.

Latencies follow Table III: L1 2-cycle tag/data, L2 14 cycles, L3 50
cycles, all backed by HBM. The hierarchy simulates real content (tags,
LRU, writebacks); latency of an access is the sum of the levels visited
plus the HBM fill on an LLC miss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB
from repro.memory.cache import Cache
from repro.memory.hbm import HBM


class AccessType(enum.Enum):
    LOAD = "load"
    STORE = "store"
    IFETCH = "ifetch"


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latency of a private L1/L2 (+ optional shared L3).

    Defaults are the baseline out-of-order tile of Table III; CAPE's
    control processor uses ``l3_size=0`` (no L3) and a 512 B L2 line.
    """

    l1d_size: int = 32 * KIB
    l1i_size: int = 32 * KIB
    l1_assoc: int = 8
    l1_latency: int = 2
    l1_line: int = 64
    l2_size: int = 1 * MIB
    l2_assoc: int = 16
    l2_latency: int = 14
    l2_line: int = 64
    l3_size: int = int(5.5 * MIB)
    l3_assoc: int = 11
    l3_latency: int = 50
    l3_line: int = 512
    frequency_hz: float = 3.6e9

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")


class CacheHierarchy:
    """A core-private cache stack, optionally sharing an L3 and an HBM.

    Args:
        config: geometry/latency parameters.
        hbm: backing memory (shared across cores); a private instance is
            created when omitted.
        shared_l3: an L3 shared with other hierarchies (multicore); when
            omitted and ``config.l3_size > 0``, a private L3 is built.
    """

    #: Latency of a hit in a CAPE-tile victim cache: the probe message,
    #: the CSB tag search plus row read, and the block transfer back —
    #: cheaper than the 50-cycle L3 (the probe runs concurrently with
    #: the LLC access, Section VII).
    VICTIM_HIT_LATENCY = 20

    def __init__(
        self,
        config: HierarchyConfig = HierarchyConfig(),
        hbm: Optional[HBM] = None,
        shared_l3: Optional[Cache] = None,
        victim_cache=None,
    ) -> None:
        self.config = config
        self.hbm = hbm if hbm is not None else HBM()
        #: Optional CAPE tile emulating a victim cache for this L2
        #: (Section VII): L2 victims are installed there and L2 misses
        #: probe it concurrently with the next level.
        self.victim_cache = victim_cache
        self.l1d = Cache(config.l1d_size, config.l1_assoc, config.l1_line, "L1D")
        self.l1i = Cache(config.l1i_size, config.l1_assoc, config.l1_line, "L1I")
        self.l2 = Cache(config.l2_size, config.l2_assoc, config.l2_line, "L2")
        if shared_l3 is not None:
            self.l3: Optional[Cache] = shared_l3
        elif config.l3_size > 0:
            self.l3 = Cache(config.l3_size, config.l3_assoc, config.l3_line, "L3")
        else:
            self.l3 = None
        self.total_cycles = 0
        self.accesses = 0

    @staticmethod
    def make_shared_l3(config: HierarchyConfig) -> Cache:
        """Build an L3 suitable for sharing across hierarchies."""
        return Cache(config.l3_size, config.l3_assoc, config.l3_line, "L3")

    # ------------------------------------------------------------------

    def access(self, addr: int, kind: AccessType = AccessType.LOAD) -> int:
        """Access one address; returns the latency in core cycles."""
        is_write = kind is AccessType.STORE
        l1 = self.l1i if kind is AccessType.IFETCH else self.l1d
        cycles = self.config.l1_latency
        hit, wb = l1.access(addr, is_write)
        if hit:
            self._account(cycles)
            return cycles
        if wb is not None:
            self.l2.access(wb, True)

        cycles += self.config.l2_latency
        hit, wb = self.l2.access(addr, is_write)
        if hit:
            self._account(cycles)
            return cycles
        if wb is not None and self.l3 is not None:
            self.l3.access(wb, True)
        if self.victim_cache is not None:
            # Install the L2's victim (clean or dirty) in the CAPE tile.
            if self.l2.last_victim is not None:
                self.victim_cache.insert(self.l2.last_victim)
            # Probe for the missing line, concurrent with the next level.
            if self.victim_cache.lookup(addr) is not None:
                cycles += self.VICTIM_HIT_LATENCY
                self._account(cycles)
                return cycles

        if self.l3 is not None:
            cycles += self.config.l3_latency
            hit, wb = self.l3.access(addr, is_write)
            if hit:
                self._account(cycles)
                return cycles
            line = self.config.l3_line
        else:
            line = self.config.l2_line

        fill_s = self.hbm.line_fill_time_s(line)
        cycles += max(1, round(fill_s * self.config.frequency_hz))
        self._account(cycles)
        return cycles

    def _account(self, cycles: int) -> None:
        self.total_cycles += cycles
        self.accesses += 1

    # ------------------------------------------------------------------

    def amat_cycles(self) -> float:
        """Average memory access time observed so far, in cycles."""
        return self.total_cycles / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.total_cycles = 0
        self.accesses = 0
        for cache in (self.l1d, self.l1i, self.l2, self.l3):
            if cache is not None:
                cache.stats.__init__()
