"""A CAPE chain: 32 subarrays with bit-sliced operand layout (Section IV).

Layout (Figure 4/5 of the paper): a chain stores 32 vector elements, one
per column. Element bits are *bit-sliced* across the chain's subarrays —
subarray ``i`` holds bit ``i`` of every vector register. Row ``r`` of every
subarray belongs to vector register ``v<r>``; four extra metadata rows hold
the running carry/borrow, the replicated mask register, and scratch flags.

This layout maximises operand locality: a search touching bit ``i`` of
several registers activates only subarray ``i`` (bit-serial flavour), while
logic and comparison instructions drive the same rows of *all* subarrays at
once (bit-parallel flavour). Updates re-use the tag bits latched by the
previous search to select columns; a chain can route subarray ``i``'s tags
to subarray ``i+1`` to realise carry propagation in the same cycle
(UPDATE_PROP: "arithmetic instructions update two subarrays simultaneously,
but only one row per subarray").

Reads and writes access the same (row, column) bitcell of *all* subarrays
in one microoperation, i.e. they transfer a whole element (Section VI-A).

The chain itself is backend-agnostic: it owns the paper-visible semantics
(microoperation accounting, active-window masking, tag routing) and drives
an :class:`~repro.csb.backend.ExecutionBackend` for the bitcell state and
raw kernels. ``backend="reference"`` (default) keeps the per-subarray
model; ``backend="bitplane"`` swaps in the packed bit-plane engine of
:mod:`repro.csb.bitplane` with identical semantics and microop charges.
"""

from __future__ import annotations

import enum
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.circuits.microops import Microop
from repro.common.bitutils import bits_to_ints, ints_to_bits
from repro.common.errors import ConfigError
from repro.csb.backend import BackendLike, ExecutionBackend, make_backend
from repro.csb.counter import MicroopStats

#: Vector register rows per subarray (one row per RISC-V vector name).
NUM_VREGS = 32


def plane_sources(sources: Sequence[Optional[int]], num_subarrays: int) -> tuple:
    """A plane move's ``sources``: a plane index or ``None`` per plane."""
    sources = tuple(sources)
    if len(sources) != num_subarrays or any(
        j is not None and not 0 <= j < num_subarrays for j in sources
    ):
        raise ConfigError(
            f"plane sources {sources} do not map {num_subarrays} planes"
        )
    return sources


class MetaRow(enum.IntEnum):
    """The four metadata rows appended to the 32 vector-register rows."""

    CARRY = 32    # running carry / borrow for bit-serial arithmetic
    MASK = 33     # replicated copy of the active mask register
    FLAG = 34     # per-element scratch flag (e.g. "decided" in compares)
    SCRATCH = 35  # general scratch bit


class Chain:
    """One chain of ``num_subarrays`` subarrays, plus its tag routing.

    Args:
        num_subarrays: bit-slices per element; 32 for the published design
            (32-bit elements).
        num_cols: elements per chain; 32 for the published design.
        stats: microoperation recorder; a fresh one is created if omitted.
            Multiple chains may share one recorder.
        backend: execution backend — ``"reference"`` (default) for the
            per-subarray model, ``"bitplane"`` for the packed engine,
            or a ready :class:`~repro.csb.backend.ExecutionBackend`
            instance (e.g. a CSB's fused, possibly fault-wrapped, one).
    """

    def __init__(
        self,
        num_subarrays: int = 32,
        num_cols: int = 32,
        stats: Optional[MicroopStats] = None,
        backend: BackendLike = "reference",
        observer=None,
    ) -> None:
        if num_subarrays <= 0 or num_cols <= 0:
            raise ConfigError("chain dimensions must be positive")
        self.num_subarrays = num_subarrays
        self.num_cols = num_cols
        self.stats = stats if stats is not None else MicroopStats()
        if stats is None and observer is not None:
            name = backend if isinstance(backend, str) else getattr(backend, "name", "custom")
            self.stats.attach_observer(observer, backend=name)
        num_rows = NUM_VREGS + len(MetaRow)
        self.backend: ExecutionBackend = make_backend(
            backend, num_subarrays, num_rows, num_cols
        )
        # Active-window column mask (vstart/vl support, Section V-F).
        self.active_columns = np.ones(num_cols, dtype=np.uint8)

    @property
    def subarrays(self) -> List:
        """Per-subarray state windows (real :class:`Subarray` objects under
        the reference backend; plane views,
        :class:`~repro.csb.bitplane.PlaneView`, under the bitplane
        backend)."""
        return self.backend.subarrays

    # ------------------------------------------------------------------
    # Active window (vstart / vl)
    # ------------------------------------------------------------------

    def set_active_window(self, start: int, length: int) -> None:
        """Mask the chain's columns to ``[start, start + length)``.

        The chain controller computes this mask locally from its chain ID
        and the vstart/vl CSRs; masked columns are excluded from updates so
        tail elements remain unchanged, per the RISC-V VLA semantics.
        """
        if start < 0 or length < 0 or start + length > self.num_cols:
            raise ConfigError(
                f"active window [{start}, {start + length}) outside "
                f"[0, {self.num_cols})"
            )
        mask = self.active_columns
        mask[:] = 0
        mask[start : start + length] = 1

    @property
    def is_power_gated(self) -> bool:
        """True when every column is masked: peripherals may power-gate."""
        return not self.active_columns.any()

    # ------------------------------------------------------------------
    # Element (read/write) microoperations — whole 32-bit element at once
    # ------------------------------------------------------------------

    def read_element(self, vreg: int, col: int) -> int:
        """Read one element: bit ``i`` comes from subarray ``i``."""
        self._check_vreg(vreg)
        bits = self.backend.element_bits(vreg, col)
        self.stats.record(Microop.READ, bit_parallel=True)
        return int(bits_to_ints(bits[:, None])[0])

    def write_element(self, vreg: int, col: int, value: int) -> None:
        """Write one element across all subarrays in one microoperation."""
        self._check_vreg(vreg)
        bits = ints_to_bits(np.array([value]), self.num_subarrays)[:, 0]
        self.backend.set_element_bits(vreg, col, bits)
        self.stats.record(Microop.WRITE, bit_parallel=True)

    def read_register(self, vreg: int) -> np.ndarray:
        """Read all elements of a register (one READ microop per column)."""
        self._check_vreg(vreg)
        bits = self.backend.register_planes(vreg)
        self.stats.record(Microop.READ, bit_parallel=True, n=self.num_cols)
        return bits_to_ints(bits)

    def write_register(self, vreg: int, values: Sequence[int]) -> None:
        """Write all elements of a register (one WRITE microop per column)."""
        self._check_vreg(vreg)
        values = np.asarray(values)
        if values.shape != (self.num_cols,):
            raise ConfigError(
                f"register write expects {self.num_cols} elements, "
                f"got shape {values.shape}"
            )
        self.backend.set_register_planes(vreg, ints_to_bits(values, self.num_subarrays))
        self.stats.record(Microop.WRITE, bit_parallel=True, n=self.num_cols)

    def move_planes(
        self, vd: int, vs1: int, sources: Sequence[Optional[int]]
    ) -> None:
        """Element-wise rewrite of a whole register as a plane move.

        Models the chain controller's per-column rewrite path used by the
        shift instructions: each element of ``vs1`` is read (one READ
        microop) and written to ``vd`` (one WRITE microop) with bit ``i``
        taken from bit ``sources[i]`` (0 where it is ``None``). On
        bit-sliced storage that fixed bit map moves whole bit-planes, so
        the backend runs the sweep as one kernel. Only columns in the
        active window are visited (masked tail elements keep their
        data); each costs one READ plus one WRITE.
        """
        self._check_vreg(vd)
        self._check_vreg(vs1)
        sources = plane_sources(sources, self.num_subarrays)
        self.backend.move_planes(vd, vs1, sources, self.active_columns)
        n = int(self.active_columns.sum())
        if n:
            self.stats.record(Microop.READ, bit_parallel=True, n=n)
            self.stats.record(Microop.WRITE, bit_parallel=True, n=n)

    # ------------------------------------------------------------------
    # Search microoperations
    # ------------------------------------------------------------------

    def search(
        self,
        subarray: int,
        key: Mapping[int, int],
        accumulate: bool = False,
    ) -> np.ndarray:
        """Bit-serial search: drive rows of one subarray only.

        Args:
            subarray: the active subarray (operand locality means the
                others stay idle, which is where the energy win comes
                from).
            key: row -> searched bit value; absent rows are don't-care.
            accumulate: OR the result into the subarray's tag bits.

        Returns:
            The subarray's tag bits after the search.
        """
        self._check_subarray(subarray)
        tags = self.backend.search(subarray, key, accumulate=accumulate)
        self.stats.record(Microop.SEARCH, bit_parallel=False)
        return tags

    def search_accumulate_next(
        self,
        subarray: int,
        key: Mapping[int, int],
        accumulate: bool = True,
    ) -> np.ndarray:
        """Bit-serial search whose matches land in the *next* subarray's tags.

        Models the tag-routing path of Figure 5: the match outcome of
        subarray ``i`` is routed to the tag bits of subarray ``i+1``
        (wrapping at the chain's end), so a later single update there can
        commit e.g. a carry-out. With ``accumulate`` the match is OR-ed
        into the destination tags, otherwise it overwrites them. The
        search itself still costs one SEARCH microop.
        """
        self._check_subarray(subarray)
        nxt = (subarray + 1) % self.num_subarrays
        # Compute the match without disturbing the source subarray's tags.
        match = self.backend.match(subarray, key)
        if accumulate:
            self.backend.or_tags(nxt, match)
        else:
            self.backend.set_tags(nxt, match)
        self.stats.record(Microop.SEARCH, bit_parallel=False)
        return match

    def search_bit_parallel(
        self,
        keys: Sequence[Mapping[int, int]],
        accumulate: bool = False,
    ) -> np.ndarray:
        """Bit-parallel search: drive every subarray in the same cycle.

        Args:
            keys: one key per subarray (e.g. the bits of a scalar comparand
                for ``vmseq.vx``, or the same row pattern replicated for
                logic instructions).
            accumulate: OR results into each subarray's tag bits.

        Returns:
            Array of shape ``(num_subarrays, num_cols)`` of tag bits.
        """
        if len(keys) != self.num_subarrays:
            raise ConfigError(
                f"expected {self.num_subarrays} keys, got {len(keys)}"
            )
        tags = self.backend.search_all(keys, accumulate=accumulate)
        self.stats.record(Microop.SEARCH, bit_parallel=True)
        return tags

    # ------------------------------------------------------------------
    # Update microoperations
    # ------------------------------------------------------------------

    def update(self, subarray: int, row: int, value: int) -> None:
        """Bit-serial update of one row in one subarray, on local tags."""
        self._check_subarray(subarray)
        select = self.backend.tags_of(subarray) & self.active_columns
        self.backend.update(subarray, row, value, select)
        self.stats.record(Microop.UPDATE, bit_parallel=False)

    def update_prop(
        self,
        subarray: int,
        row: int,
        value: int,
        next_row: int,
        next_value: int,
    ) -> None:
        """Dual-subarray update: one row here and one in subarray ``i+1``.

        Subarray ``i`` is updated on its local tags and subarray ``i+1`` on
        *its own* tag register (typically filled by
        :meth:`search_accumulate_next`). One row per subarray, two
        subarrays, one cycle — the "update with propagation" flavour.
        """
        self._check_subarray(subarray)
        nxt = (subarray + 1) % self.num_subarrays
        here = self.backend.tags_of(subarray) & self.active_columns
        there = self.backend.tags_of(nxt) & self.active_columns
        self.backend.update(subarray, row, value, here)
        self.backend.update(nxt, next_row, next_value, there)
        self.stats.record(Microop.UPDATE_PROP, bit_parallel=False)

    def update_next(self, subarray: int, next_row: int, value: int) -> None:
        """Update one row of subarray ``i+1`` using *its* tag register.

        The propagation-only flavour: commits e.g. a carry accumulated by
        :meth:`search_accumulate_next` without touching subarray ``i``.
        """
        self._check_subarray(subarray)
        nxt = (subarray + 1) % self.num_subarrays
        select = self.backend.tags_of(nxt) & self.active_columns
        self.backend.update(nxt, next_row, value, select)
        self.stats.record(Microop.UPDATE, bit_parallel=False)

    def update_row_full(self, subarray: int, row: int, value: int) -> None:
        """Bulk-write one row of one subarray, all active columns selected.

        A single-subarray clear/preset (e.g. initialising a flag row before
        spilling tags into it).
        """
        self._check_subarray(subarray)
        self.backend.update(subarray, row, value, self.active_columns)
        self.stats.record(Microop.UPDATE, bit_parallel=False)

    def update_bit_parallel_select(
        self,
        row: int,
        value: int,
        select: np.ndarray,
    ) -> None:
        """Bit-parallel update of the same row everywhere with a routed
        column select.

        Models broadcasting one subarray's tag bits onto the chain's column
        bus so every subarray commits the same per-element condition (used
        to replicate a mask register into the MASK metadata rows).
        """
        select = np.asarray(select, dtype=np.uint8)
        if select.shape != (self.num_cols,):
            raise ConfigError(
                f"column select expects {self.num_cols} bits, got {select.shape}"
            )
        fanned = np.broadcast_to(
            select & self.active_columns, (self.num_subarrays, self.num_cols)
        )
        self.backend.update_all(row, value, fanned)
        self.stats.record(Microop.UPDATE, bit_parallel=True)

    def update_bit_parallel(
        self,
        row: int,
        value: int,
        use_tags: bool = True,
    ) -> None:
        """Bit-parallel update: the same row of every subarray in one cycle.

        With ``use_tags=False`` all active columns are written — this is
        the bulk clear/preset used to initialise a destination register or
        the carry rows ("+2" initialisation cycles of Table I).
        """
        if use_tags:
            select = self.backend.all_tags() & self.active_columns
        else:
            select = np.broadcast_to(
                self.active_columns, (self.num_subarrays, self.num_cols)
            )
        self.backend.update_all(row, value, select)
        self.stats.record(Microop.UPDATE, bit_parallel=True)

    def update_bit_parallel_values(
        self,
        row: int,
        values: Sequence[int],
        use_tags: bool = False,
    ) -> None:
        """Bit-parallel update with a distinct data bit per subarray.

        Each subarray's write drivers are independent, so one update cycle
        can deposit a different bit in each bit-slice — this is how a
        scalar is broadcast to every element (``vmv.v.x``) in one cycle.
        """
        if len(values) != self.num_subarrays:
            raise ConfigError(
                f"expected {self.num_subarrays} values, got {len(values)}"
            )
        if use_tags:
            select = self.backend.all_tags() & self.active_columns
        else:
            select = np.broadcast_to(
                self.active_columns, (self.num_subarrays, self.num_cols)
            )
        self.backend.update_all_values(row, values, select)
        self.stats.record(Microop.UPDATE, bit_parallel=True)

    def set_tags(self, subarray: int, tags: np.ndarray) -> None:
        """Load one subarray's tag register from the chain's tag bus.

        Part of the tag-routing fabric — no microop cost of its own (it
        happens in the shadow of the reduce that produced ``tags``).
        """
        self._check_subarray(subarray)
        self.backend.set_tags(subarray, tags)

    # ------------------------------------------------------------------
    # Tag plumbing
    # ------------------------------------------------------------------

    def clear_tags(self) -> None:
        """Zero every subarray's tag register (no microop cost: part of
        the idle-state precharge)."""
        self.backend.clear_tags()

    def tags_of(self, subarray: int) -> np.ndarray:
        """The tag bits currently latched in one subarray."""
        self._check_subarray(subarray)
        return self.backend.tags_of(subarray)

    def combine_tags_serial(self, limit: Optional[int] = None) -> np.ndarray:
        """AND the first ``limit`` subarrays' tags into one bit per element.

        This is the bit-serial post-processing used by equality compares:
        each element is bit-sliced, so per-subarray matches must be reduced
        into a single match/mismatch value (Section V-A). Costs one REDUCE
        microop per subarray combined (n cycles for n-bit elements).
        """
        limit = self.num_subarrays if limit is None else limit
        combined = np.ones(self.num_cols, dtype=np.uint8)
        if limit:
            tags = self.backend.all_tags()
            combined = np.bitwise_and.reduce(tags[:limit], axis=0)
            self.stats.record(Microop.REDUCE, bit_parallel=False, n=limit)
        return combined

    def combine_tags_serial_or(self, limit: Optional[int] = None) -> np.ndarray:
        """OR the first ``limit`` subarrays' tags into one bit per element."""
        limit = self.num_subarrays if limit is None else limit
        combined = np.zeros(self.num_cols, dtype=np.uint8)
        if limit:
            tags = self.backend.all_tags()
            combined = np.bitwise_or.reduce(tags[:limit], axis=0)
            self.stats.record(Microop.REDUCE, bit_parallel=False, n=limit)
        return combined

    # ------------------------------------------------------------------
    # Reduction-sum support (Section IV-E)
    # ------------------------------------------------------------------

    def redsum_step(self, subarray: int, row: int) -> int:
        """One step of the bit-serial reduction sum.

        Searches for value 1 on ``row`` of one subarray (masking all other
        rows), then pop-counts the matching tag bits. The caller shifts and
        accumulates (Figure 6). Costs one SEARCH (bit-parallel flavour: all
        chains do this simultaneously) and one REDUCE microop.
        """
        self._check_subarray(subarray)
        tags = self.backend.search(subarray, {row: 1})
        self.stats.record(Microop.SEARCH, bit_parallel=True)
        self.stats.record(Microop.REDUCE, bit_parallel=True)
        return int((tags & self.active_columns).sum())

    def redsum(self, vreg: int, width: Optional[int] = None) -> int:
        """Full intra-chain reduction sum of one vector register.

        Walks bits from most to least significant: echo the bit-vector
        through the tags, pop-count, shift the accumulator left and add
        (Figure 6). Returns this chain's partial scalar sum.
        """
        self._check_vreg(vreg)
        width = self.num_subarrays if width is None else width
        total = 0
        for bit in reversed(range(width)):
            total = (total << 1) + self.redsum_step(bit, vreg)
        return total

    # ------------------------------------------------------------------
    # Convenience views (no microop cost — host-side inspection)
    # ------------------------------------------------------------------

    def peek_register(self, vreg: int, signed: bool = False) -> np.ndarray:
        """Host-side view of a register's values; free of microop cost."""
        self._check_vreg(vreg)
        vals = bits_to_ints(self.backend.register_planes(vreg))
        if signed:
            sign = np.int64(1) << (self.num_subarrays - 1)
            vals = (vals ^ sign) - sign
        return vals

    def poke_register(self, vreg: int, values: Sequence[int]) -> None:
        """Host-side register load; free of microop cost (test fixture)."""
        self._check_vreg(vreg)
        values = np.asarray(values)
        self.backend.set_register_planes(
            vreg, ints_to_bits(values, self.num_subarrays)
        )

    def peek_row(self, subarray: int, row: int) -> np.ndarray:
        """Host-side view of one subarray row (metadata inspection)."""
        self._check_subarray(subarray)
        return self.backend.plane(subarray, row)

    # ------------------------------------------------------------------

    def _check_vreg(self, vreg: int) -> None:
        if not 0 <= vreg < NUM_VREGS:
            raise ConfigError(f"vector register {vreg} out of range [0, {NUM_VREGS})")

    def _check_subarray(self, subarray: int) -> None:
        if not 0 <= subarray < self.num_subarrays:
            raise ConfigError(
                f"subarray {subarray} out of range [0, {self.num_subarrays})"
            )
