"""Scratchpad mode: the CSB as directly-addressed memory (Section VII).

The VMU accepts ordinary load/store requests from remote nodes and
performs physical address indexing into the CSB. Words are stored
row-wise: word ``w`` lives in row ``w // 32`` (wrapping through the
subarrays) at the 32 bitcells of one subarray row — Jeloka et al.'s row
reads take one cycle and row writes two. Chain ``c``'s row is columns
``c::num_chains`` of the CSB's fused row, so a word access reads (and a
write rewrites) that row of one subarray of the ganged chain.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitutils import bits_to_ints, ints_to_bits
from repro.common.errors import CapacityError, ConfigError
from repro.csb.csb import CSB

#: Row read / write latency in CSB cycles (Jeloka et al., Section VII).
ROW_READ_CYCLES = 1
ROW_WRITE_CYCLES = 2


class Scratchpad:
    """Word-addressable scratchpad over a CSB.

    A subarray row (32 bitcells) holds one 32-bit word. Capacity is
    ``chains x subarrays x rows`` words.
    """

    def __init__(self, csb: CSB) -> None:
        self.csb = csb
        self._rows_per_subarray = csb.ganged.subarrays[0].num_rows
        self.capacity_words = (
            csb.num_chains * csb.num_subarrays * self._rows_per_subarray
        )
        self.cycles = 0

    def _locate(self, word_index: int):
        if not 0 <= word_index < self.capacity_words:
            raise CapacityError(
                f"word {word_index} outside scratchpad capacity "
                f"{self.capacity_words}"
            )
        rows_per_chain = self.csb.num_subarrays * self._rows_per_subarray
        chain = word_index // rows_per_chain
        rest = word_index % rows_per_chain
        subarray = rest // self._rows_per_subarray
        row = rest % self._rows_per_subarray
        return chain, subarray, row

    def write_word(self, addr: int, value: int) -> None:
        """Store a 32-bit word at byte address ``addr`` (word-aligned)."""
        if addr % 4 != 0:
            raise ConfigError(f"address {addr:#x} is not word-aligned")
        chain, subarray, row = self._locate(addr // 4)
        word = ints_to_bits(np.array([value]), 32)[:, 0]
        target = self.csb.ganged.subarrays[subarray]
        bits = target.read_row(row)
        bits[chain::self.csb.num_chains] = word
        target.write_row(row, bits)
        self.cycles += ROW_WRITE_CYCLES

    def read_word(self, addr: int) -> int:
        """Load the 32-bit word at byte address ``addr``."""
        if addr % 4 != 0:
            raise ConfigError(f"address {addr:#x} is not word-aligned")
        chain, subarray, row = self._locate(addr // 4)
        bits = self.csb.ganged.subarrays[subarray].read_row(row)
        bits = bits[chain::self.csb.num_chains]
        self.cycles += ROW_READ_CYCLES
        return int(bits_to_ints(bits[:, None])[0])

    def write_block(self, addr: int, values: np.ndarray) -> None:
        """Store consecutive words starting at ``addr``."""
        for i, value in enumerate(np.asarray(values)):
            self.write_word(addr + 4 * i, int(value))

    def read_block(self, addr: int, count: int) -> np.ndarray:
        """Load ``count`` consecutive words starting at ``addr``."""
        return np.array(
            [self.read_word(addr + 4 * i) for i in range(count)], dtype=np.int64
        )
