"""A set-associative, write-back, write-allocate cache with MESI states.

Replacement is true LRU within each set: a set is an insertion-ordered
dict, least recently used line first, so a hit and an eviction cost O(1)
whatever the associativity. Lines carry a MESI coherence state; a
single-cache configuration simply never leaves the E/M/I corner of the
protocol. The coherent bus (``coherence.py``) drives the state
transitions for multicore configurations.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.common.errors import ConfigError


class MESIState(enum.Enum):
    """MESI coherence states."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


_INVALID = MESIState.INVALID


@dataclass
class _Line:
    tag: int
    state: MESIState
    dirty: bool


class Cache:
    """One cache level.

    Args:
        size_bytes: total capacity.
        assoc: ways per set.
        line_bytes: cache-line size (the baseline LLC uses 512 B lines,
            Table III).
        name: label used in reports.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigError("cache geometry must be positive")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line ({assoc}*{line_bytes})"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.name = name
        self.num_sets = size_bytes // (assoc * line_bytes)
        self.stats = CacheStats()
        #: set index -> tag -> line, least recently used first.
        self._sets: Dict[int, "OrderedDict[int, _Line]"] = {}
        #: Sets that may hold INVALID lines (only ``set_state`` makes
        #: them); a fill sweeps just these.
        self._stale: Set[int] = set()
        #: Line address of the victim evicted by the most recent fill
        #: (dirty or clean), or None. Consumed by victim-cache hooks.
        self.last_victim: Optional[int] = None

    # ------------------------------------------------------------------

    def _locate(self, addr: int) -> Tuple[int, int]:
        tag, set_idx = divmod(addr // self.line_bytes, self.num_sets)
        return set_idx, tag

    def lookup(self, addr: int) -> Optional[MESIState]:
        """Peek a line's state without touching LRU (snoop path)."""
        set_idx, tag = self._locate(addr)
        line = self._sets.get(set_idx, {}).get(tag)
        return line.state if line and line.state is not _INVALID else None

    def access(self, addr: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Access one address; fill on miss.

        Returns:
            ``(hit, writeback_line_addr)`` — the second element is the
            line address written back when a dirty victim was evicted,
            else ``None``.
        """
        set_idx, tag = self._locate(addr)
        lines = self._sets.get(set_idx)
        if lines is None:
            lines = self._sets[set_idx] = OrderedDict()
        line = lines.get(tag)
        if line is not None and line.state is not _INVALID:
            self.stats.hits += 1
            lines.move_to_end(tag)
            if is_write:
                line.dirty = True
                line.state = MESIState.MODIFIED
            return True, None

        self.stats.misses += 1
        writeback = self._fill(lines, set_idx, tag, is_write)
        return False, writeback

    def _fill(
        self, lines: "OrderedDict[int, _Line]", set_idx: int, tag: int,
        is_write: bool,
    ) -> Optional[int]:
        """Insert a line, evicting the LRU way if the set is full."""
        if set_idx in self._stale:
            # Reuse INVALID slots (dropping them keeps the LRU order).
            self._stale.discard(set_idx)
            for t in [t for t, l in lines.items() if l.state is _INVALID]:
                del lines[t]
        writeback = None
        self.last_victim = None
        if len(lines) >= self.assoc:
            victim_tag, victim = lines.popitem(last=False)
            self.stats.evictions += 1
            victim_addr = (victim_tag * self.num_sets + set_idx) * self.line_bytes
            self.last_victim = victim_addr
            if victim.dirty:
                self.stats.writebacks += 1
                writeback = victim_addr
        state = MESIState.MODIFIED if is_write else MESIState.EXCLUSIVE
        lines[tag] = _Line(tag=tag, state=state, dirty=is_write)
        return writeback

    # ------------------------------------------------------------------
    # Coherence hooks (driven by the bus)
    # ------------------------------------------------------------------

    def set_state(self, addr: int, state: MESIState) -> None:
        """Force a line's MESI state (bus-directed transition)."""
        set_idx, tag = self._locate(addr)
        line = self._sets.get(set_idx, {}).get(tag)
        if line is None:
            return
        if state is _INVALID:
            self.stats.invalidations_received += 1
            line.dirty = False
            self._stale.add(set_idx)
        line.state = state

    def flush(self) -> int:
        """Write back all dirty lines; returns the count written back."""
        count = 0
        for lines in self._sets.values():
            for line in lines.values():
                if line.dirty and line.state is not _INVALID:
                    count += 1
                    line.dirty = False
                    if line.state == MESIState.MODIFIED:
                        line.state = MESIState.EXCLUSIVE
        self.stats.writebacks += count
        return count

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(
            1
            for lines in self._sets.values()
            for line in lines.values()
            if line.state is not _INVALID
        )
