"""Truth-table memory (TTM) entry format (Section V-D).

Each TTM entry describes one search-update-reduce "data pack": the rows and
bit values driven during the search, the row(s) written during the update
(at most one row per subarray, at most two subarrays), and control flags —
search/update valid bits, the tag-accumulator enable, and the reduce
enable. Entries use symbolic *operand roles* (``vd``, ``vs1``, ``vs2``,
``carry``, ``mask``, ...) that the truth-table decoder binds to physical
rows when the VCU dispatches an instruction; this is the "standard format
to represent any associative algorithm's truth table".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import ConfigError, ProtocolError
from repro.csb.subarray import MAX_SEARCH_ROWS

#: Operand roles a TT entry may reference. ``vd``/``vs1``/``vs2`` bind to
#: the instruction's register operands; the rest bind to metadata rows.
ROLES = ("vd", "vs1", "vs2", "carry", "mask", "flag", "scratch")


@dataclass(frozen=True)
class UpdateOp:
    """One row write of an update microoperation.

    Attributes:
        role: operand role naming the row to write.
        value: the bit driven onto the selected columns.
        next_subarray: write happens in subarray ``i+1`` (carry/borrow
            propagation) instead of the subarray being processed.
    """

    role: str
    value: int
    next_subarray: bool = False

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ConfigError(f"unknown operand role {self.role!r}")
        if self.value not in (0, 1):
            raise ConfigError(f"update value must be 0 or 1, got {self.value}")


@dataclass(frozen=True)
class TTEntry:
    """One TTM entry: a search key plus optional update and flags.

    Attributes:
        search: role -> bit searched; empty means no search this entry.
        updates: row writes committed by the update phase (empty = none).
        accumulate: OR this search's matches into the tag bits.
        route_next: route this search's matches to subarray ``i+1``'s tags.
        reduce: engage the reduction logic on the tag bits this entry.
    """

    search: Tuple[Tuple[str, int], ...] = ()
    updates: Tuple[UpdateOp, ...] = ()
    accumulate: bool = False
    route_next: bool = False
    reduce: bool = False

    def __post_init__(self) -> None:
        if len(self.search) > MAX_SEARCH_ROWS:
            raise ProtocolError(
                f"TT entry searches {len(self.search)} rows, "
                f"maximum is {MAX_SEARCH_ROWS}"
            )
        local_rows = [u for u in self.updates if not u.next_subarray]
        next_rows = [u for u in self.updates if u.next_subarray]
        if len(local_rows) > 1 or len(next_rows) > 1:
            raise ProtocolError(
                "update may write at most one row per subarray "
                "(one local, one in the next subarray)"
            )
        for role, bit in self.search:
            if role not in ROLES:
                raise ConfigError(f"unknown operand role {role!r}")
            if bit not in (0, 1):
                raise ConfigError(f"search bit must be 0 or 1, got {bit}")

    @property
    def has_search(self) -> bool:
        return bool(self.search)

    @property
    def has_update(self) -> bool:
        return bool(self.updates)


@dataclass(frozen=True)
class TruthTable:
    """A named sequence of TTM entries for one associative algorithm.

    Attributes:
        name: the vector instruction mnemonic this table implements.
        entries: the search-update-reduce packs, in sequencer order.
        max_entries: capacity of the chain controller's TTM.
    """

    name: str
    entries: Tuple[TTEntry, ...]
    max_entries: int = 16

    def __post_init__(self) -> None:
        if len(self.entries) > self.max_entries:
            raise ProtocolError(
                f"truth table {self.name!r} has {len(self.entries)} entries, "
                f"TTM capacity is {self.max_entries}"
            )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def max_search_rows(self) -> int:
        """Largest number of rows driven by any entry's search."""
        return max((len(e.search) for e in self.entries), default=0)

    @property
    def max_update_rows(self) -> int:
        """Largest number of row writes in any entry's update (<= 2)."""
        return max((len(e.updates) for e in self.entries), default=0)

    def encoded_bits(self, row_address_bits: int = 6) -> int:
        """Size of this table in TTM storage bits.

        Each entry stores, per referenced row: an address and a data bit;
        plus the four control bits (search/update valid, accumulator
        enable, reduce enable) noted in Section V-D. Unreferenced rows are
        not stored — "encoded efficiently to only store values for the
        bits involved in the operations".
        """
        total = 0
        for entry in self.entries:
            rows = len(entry.search) + len(entry.updates)
            total += rows * (row_address_bits + 1) + 4
        return total
