"""Key-value storage mode (Section VII).

Keys and values are 32-bit; a pair occupies one column position at one of
16 row-pairs (key row, value row), so a 32-subarray chain stores
16 x 32 = 512 pairs — about half a million pairs in CAPE32k. Keys are
bit-sliced like vector operands, so a lookup is a bit-parallel search of
one key row across every chain simultaneously — one search on the CSB's
ganged chain — followed by the bit-serial tag combine; the matched
column's value is then read out. Slot ``(chain, pair, col)`` is element
``chain + col * num_chains`` of registers ``2 * pair`` (key) and
``2 * pair + 1`` (value). The control processor maintains the free list
(as the paper suggests), and the VCU's scan microprogram realises inserts
into free slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import CapacityError, ConfigError
from repro.csb.csb import CSB

#: Row pairs per chain: rows 0..31 hold 16 (key, value) row pairs.
ROW_PAIRS = 16


class KeyValueStore:
    """Content-addressable key-value store over a CSB."""

    def __init__(self, csb: CSB) -> None:
        self.csb = csb
        self.capacity = csb.num_chains * csb.num_cols * ROW_PAIRS
        # CP-side free list: (chain, row_pair, column) slots.
        self._free: List[Tuple[int, int, int]] = [
            (chain, pair, col)
            for chain in range(csb.num_chains)
            for pair in range(ROW_PAIRS)
            for col in range(csb.num_cols)
        ]
        self._free.reverse()  # pop() yields slots in natural order
        self._occupied: Dict[Tuple[int, int, int], int] = {}
        self.cycles = 0

    def __len__(self) -> int:
        return len(self._occupied)

    # ------------------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        """Insert (or update) a key-value pair.

        Raises:
            CapacityError: when no free slot remains.
        """
        limit = 1 << self.csb.num_subarrays
        if not 0 <= key < limit or not 0 <= value < limit:
            raise ConfigError(
                f"key/value must fit in {self.csb.num_subarrays} bits"
            )
        slot = self._find(key)
        if slot is None:
            if not self._free:
                raise CapacityError("key-value store is full")
            slot = self._free.pop()
        pair, element = self._home(slot)
        self.csb.ganged.write_element(2 * pair, element, key)
        self.csb.ganged.write_element(2 * pair + 1, element, value)
        self._occupied[slot] = key
        self.cycles += 2  # two element writes

    def lookup(self, key: int) -> Optional[int]:
        """Find a key; returns its value or ``None``.

        One bit-parallel search per row-pair, across all chains at once,
        plus the tag combine and a single element read on a hit.
        """
        slot = self._find(key)
        if slot is None:
            return None
        pair, element = self._home(slot)
        return self.csb.ganged.read_element(2 * pair + 1, element)

    def delete(self, key: int) -> bool:
        """Remove a key; returns True when it was present."""
        slot = self._find(key)
        if slot is None:
            return False
        del self._occupied[slot]
        self._free.append(slot)
        return True

    # ------------------------------------------------------------------

    def _home(self, slot: Tuple[int, int, int]) -> Tuple[int, int]:
        """A slot's row pair and its element (fused column)."""
        chain, pair, col = slot
        return pair, chain + col * self.csb.num_chains

    def _find(self, key: int) -> Optional[Tuple[int, int, int]]:
        """Associative probe: search each row-pair until the key matches."""
        width = self.csb.num_subarrays
        key_bits = [(key >> i) & 1 for i in range(width)]
        ganged = self.csb.ganged
        for pair in range(ROW_PAIRS):
            row = 2 * pair
            keys = [{row: key_bits[i]} for i in range(width)]
            self.cycles += 1  # one bit-parallel search (all chains)
            ganged.search_bit_parallel(keys)
            match = ganged.combine_tags_serial()
            for element in np.flatnonzero(match):
                chain, col = self.csb.locate(int(element))
                slot = (chain, pair, col)
                if self._occupied.get(slot) == key:
                    return slot
        return None
