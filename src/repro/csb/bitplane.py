"""Packed bit-plane execution backend for the CSB.

The reference model walks a chain subarray by subarray in Python. This
backend stores the same state as Python ints, one per row of bits —

* ``planes[slot(sub, row)]``: row ``row`` of subarray ``sub`` across
  every column, and
* ``tags[sub]``: subarray ``sub``'s tag register —

with bit ``c`` of every int holding column ``c``. Each microoperation
is then a few word-wide bitwise operations whatever the column count: a
search ANDs the planes its key drives (complemented where it drives 0),
an update is one masked OR or AND-NOT, and a popcount is
``int.bit_count``. This is the bulk-bitwise mapping of associative
microoperations used by DRAMA and the FPGA CAM processors, with Python's
arbitrary-width ints as the machine word.

Fusing goes one level further at the CSB: because the VMU interleaves
element ``e`` to chain ``e % C``, column ``e // C``, laying the ``C``
chains side by side with chain ``c`` at columns ``c::C`` puts element
``e`` at fused column ``e`` — so a single *ganged* chain over the fused
planes runs a truth-table step across the whole block in one int
operation.

The two lists are the only storage, and this module owns their format:
the slot rule, the bit order, and the row pack/unpack helpers. Lowered
plan replay (:func:`repro.plan.packed.run_program`) runs its kernels on
the lists in place; the per-step kernels and host accessors below act on
the same ints and convert numpy 0/1 vectors only at their own call
boundary. Every operation mutates the lists in place (never rebinding
them), so a replay holding them sees every write.

Storage invariant: every plane and tag int lies in ``[0, 2**num_cols)``.
No operation sets a bit at or above ``num_cols``, and every complement
is written ``full ^ x`` or ``m & ~x`` with ``m`` itself in range.

Semantics are bit-for-bit those of :class:`~repro.csb.subarray.Subarray`,
enforced by the differential suite in ``tests/csb/test_backend_equiv.py``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError, ProtocolError
from repro.csb.chain import NUM_VREGS, MetaRow
from repro.csb.subarray import MAX_SEARCH_ROWS

#: Wordlines per subarray (32 vector registers + 4 metadata rows).
NUM_ROWS = NUM_VREGS + len(MetaRow)


def slot(sub: int, row: int) -> int:
    """Index of plane ``(sub, row)`` in a backend's plane list; every
    chain's backend has ``NUM_ROWS`` rows per subarray."""
    return sub * NUM_ROWS + row


def pack_bits(bits) -> int:
    """One column vector as an int: bit ``c`` is set where column ``c``
    is nonzero."""
    packed = np.packbits(np.asarray(bits), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def pack_rows(bits: np.ndarray) -> List[int]:
    """Every row of a 2-D column array as an int (:func:`pack_bits`)."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack_rows(values: Sequence[int], num_cols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: ints in ``[0, 2**num_cols)`` back to
    a ``(len(values), num_cols)`` uint8 0/1 array."""
    nbytes = (num_cols + 7) >> 3
    buf = b"".join([v.to_bytes(nbytes, "little") for v in values])
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(packed, axis=-1, count=num_cols, bitorder="little")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PlaneView:
    """A :class:`~repro.csb.subarray.Subarray`-compatible window onto one
    bit-slice of a :class:`BitplaneBackend`.

    ``bits`` and ``tags`` are read-only copies of the packed state, so a
    stray ``view.bits[:] = ...`` raises instead of writing into a
    temporary; writes go through :meth:`write_row`, :meth:`write_bit`,
    :meth:`set_tags` or the ``tags`` setter.
    """

    def __init__(self, backend: "BitplaneBackend", sub: int) -> None:
        self._backend = backend
        self._sub = sub
        self.num_rows = backend.num_rows
        self.num_cols = backend.num_cols

    def _slot(self, row: int) -> int:
        self._backend._check_row(row)
        return self._sub * self.num_rows + row

    @property
    def bits(self) -> np.ndarray:
        base = self._sub * self.num_rows
        return _read_only(unpack_rows(
            self._backend.planes[base:base + self.num_rows], self.num_cols
        ))

    @property
    def tags(self) -> np.ndarray:
        return _read_only(self._backend.tags_of(self._sub))

    @tags.setter
    def tags(self, value) -> None:
        value = np.broadcast_to(np.asarray(value, dtype=np.uint8), (self.num_cols,))
        self._backend.set_tags(self._sub, value)

    def read_bit(self, row: int, col: int) -> int:
        i = self._slot(row)
        self._backend._check_col(col)
        return (self._backend.planes[i] >> col) & 1

    def write_bit(self, row: int, col: int, value: int) -> None:
        self._backend.force_bit(self._sub, row, col, 1 if value else 0)

    def read_row(self, row: int) -> np.ndarray:
        return self._backend.plane(self._sub, row)

    def write_row(self, row: int, values: np.ndarray) -> None:
        i = self._slot(row)
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != (self.num_cols,):
            raise ConfigError(
                f"row write expects {self.num_cols} bits, got shape {values.shape}"
            )
        self._backend.planes[i] = pack_bits(values & 1)

    def search(self, key: Mapping[int, int], accumulate: bool = False) -> np.ndarray:
        return self._backend.search(self._sub, key, accumulate=accumulate)

    def update(
        self, row: int, value: int, column_select: Optional[np.ndarray] = None
    ) -> None:
        select = self.tags if column_select is None else np.asarray(column_select)
        self._backend.update(self._sub, row, value, select)

    def set_tags(self, tags: np.ndarray) -> None:
        self._backend.set_tags(self._sub, tags)


class BitplaneBackend:
    """Packed bit-plane state + int kernels (``name="bitplane"``).

    Args:
        num_subarrays: bit-slices per element.
        num_rows: wordlines per subarray (32 vregs + 4 metadata rows).
        num_cols: columns covered — a single chain's, or, for a fused
            CSB-level instance, ``num_chains * cols_per_chain``.
    """

    name = "bitplane"

    def __init__(self, num_subarrays: int, num_rows: int, num_cols: int) -> None:
        if num_subarrays <= 0 or num_rows <= 0 or num_cols <= 0:
            raise ConfigError("bitplane dimensions must be positive")
        self.num_subarrays = num_subarrays
        self.num_rows = num_rows
        self.num_cols = num_cols
        #: Every column set: ``2**num_cols - 1``.
        self.full = (1 << num_cols) - 1
        #: Plane ``(sub, row)`` at index ``sub * num_rows + row``.
        self.planes: List[int] = [0] * (num_subarrays * num_rows)
        #: Each subarray's tag register.
        self.tags: List[int] = [0] * num_subarrays
        self._views: Optional[List[PlaneView]] = None

    @property
    def subarrays(self) -> List[PlaneView]:
        """Subarray-shaped windows, one per bit-slice (lazily built)."""
        if self._views is None:
            self._views = [PlaneView(self, s) for s in range(self.num_subarrays)]
        return self._views

    def _pack(self, bits) -> int:
        """One column vector as an int, checked against the width."""
        bits = np.asarray(bits)
        if bits.shape != (self.num_cols,):
            raise ConfigError(
                f"expected {self.num_cols} column bits, got shape {bits.shape}"
            )
        return pack_bits(bits)

    def _unpack(self, value: int) -> np.ndarray:
        return unpack_rows((value,), self.num_cols)[0]

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def element_bits(self, row: int, col: int) -> np.ndarray:
        self._check_row(row)
        self._check_col(col)
        return np.array(
            [(plane >> col) & 1 for plane in self.planes[row::self.num_rows]],
            dtype=np.uint8,
        )

    def set_element_bits(self, row: int, col: int, bits: np.ndarray) -> None:
        self._check_row(row)
        self._check_col(col)
        bit = 1 << col
        P, R = self.planes, self.num_rows
        for sub, value in enumerate((np.asarray(bits, dtype=np.uint8) & 1).tolist()):
            i = sub * R + row
            P[i] = P[i] | bit if value else P[i] & ~bit

    def register_planes(self, row: int) -> np.ndarray:
        self._check_row(row)
        return unpack_rows(self.planes[row::self.num_rows], self.num_cols)

    def set_register_planes(self, row: int, bits: np.ndarray) -> None:
        self._check_row(row)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[0] != self.num_subarrays \
                or bits.shape[1] > self.num_cols:
            raise ConfigError(
                f"register write expects ({self.num_subarrays}, <= "
                f"{self.num_cols}) bits, got shape {bits.shape}"
            )
        values = pack_rows(bits & 1)
        P, R = self.planes, self.num_rows
        if bits.shape[1] == self.num_cols:
            P[row::R] = values
            return
        # Columns [0, n) take the new bits; the rest keep theirs.
        keep = ~((1 << bits.shape[1]) - 1)
        for sub, value in enumerate(values):
            i = sub * R + row
            P[i] = P[i] & keep | value

    def plane(self, sub: int, row: int) -> np.ndarray:
        self._check_row(row)
        return self._unpack(self.planes[sub * self.num_rows + row])

    # ------------------------------------------------------------------
    # Tag access
    # ------------------------------------------------------------------

    def tags_of(self, sub: int) -> np.ndarray:
        return self._unpack(self.tags[sub])

    def all_tags(self) -> np.ndarray:
        return unpack_rows(self.tags, self.num_cols)

    def set_tags(self, sub: int, tags: np.ndarray) -> None:
        self.tags[sub] = self._pack(np.asarray(tags, dtype=np.uint8) & 1)

    def or_tags(self, sub: int, tags: np.ndarray) -> None:
        self.tags[sub] |= self._pack(np.asarray(tags, dtype=np.uint8) & 1)

    def clear_tags(self) -> None:
        self.tags[:] = [0] * self.num_subarrays

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def _match(self, sub: int, key: Mapping[int, int]) -> int:
        self._check_key(key)
        P, base = self.planes, sub * self.num_rows
        match = self.full
        for row, want in key.items():
            match &= P[base + row] if want else ~P[base + row]
        return match

    def match(self, sub: int, key: Mapping[int, int]) -> np.ndarray:
        return self._unpack(self._match(sub, key))

    def search(
        self, sub: int, key: Mapping[int, int], accumulate: bool = False
    ) -> np.ndarray:
        match = self._match(sub, key)
        T = self.tags
        T[sub] = T[sub] | match if accumulate else match
        return self._unpack(T[sub])

    def search_all(
        self, keys: Sequence[Mapping[int, int]], accumulate: bool = False
    ) -> np.ndarray:
        # Every key is checked before any tag register latches.
        matches = [self._match(sub, key) for sub, key in enumerate(keys)]
        T = self.tags
        for sub, match in enumerate(matches):
            T[sub] = T[sub] | match if accumulate else match
        return unpack_rows(T, self.num_cols)

    def _write(self, i: int, value: int, select: int) -> None:
        P = self.planes
        P[i] = P[i] | select if value else P[i] & ~select

    def update(self, sub: int, row: int, value: int, select: np.ndarray) -> None:
        self._check_row(row)
        self._write(sub * self.num_rows + row, value, self._pack(select))

    def update_all(self, row: int, value: int, select: np.ndarray) -> None:
        self.update_all_values(
            row, (1 if value else 0,) * self.num_subarrays, select
        )

    def update_all_values(
        self, row: int, values: Sequence[int], select: np.ndarray
    ) -> None:
        self._check_row(row)
        select = np.asarray(select)
        if select.shape != (self.num_subarrays, self.num_cols):
            raise ConfigError(
                f"column select expects {(self.num_subarrays, self.num_cols)} "
                f"bits, got {select.shape}"
            )
        R = self.num_rows
        for sub, mask in enumerate(pack_rows(select)):
            self._write(sub * R + row, int(values[sub]) & 1, mask)

    def move_planes(
        self,
        dst_row: int,
        src_row: int,
        sources: Sequence[Optional[int]],
        active: np.ndarray,
    ) -> None:
        # Every source plane is read (in the window) before any
        # destination plane is written, so the destination may be the
        # source; columns outside the window keep their data.
        self._check_row(src_row)
        self._check_row(dst_row)
        A = self._pack(active)
        P, R = self.planes, self.num_rows
        moved = [0 if j is None else P[j * R + src_row] & A for j in sources]
        keep = ~A
        for sub, value in enumerate(moved):
            i = sub * R + dst_row
            P[i] = P[i] & keep | value

    def echo_partials(
        self, row: int, width: int, active: int, num_chains: int,
        blocks: int = 1,
    ) -> np.ndarray:
        """A reduction walk's ``width`` echo searches of ``row``, at once.

        Bit-step ``b`` latches plane ``b`` into the tags and pop-counts
        each chain's columns in the packed window ``active``, weighted
        by ``2**b``. The columns are ``blocks`` equal blocks (gang
        members) with column ``e`` of a block on chain ``e % num_chains``.
        Returns the ``(blocks, num_chains)`` int64 partials.
        """
        planes = self.planes[row::self.num_rows][:width]
        self.tags[:width] = planes
        hits = unpack_rows([plane & active for plane in planes], self.num_cols)
        per_chain = self.num_cols // (blocks * num_chains)
        # A chain's hit count fits a byte at every design point (at most
        # 32 columns per chain); wider chains sum in int64.
        hits = hits.reshape(width, blocks, per_chain, num_chains).sum(
            axis=2, dtype=np.uint8 if per_chain <= 255 else np.int64
        )
        weights = np.int64(1) << np.arange(width, dtype=np.int64)
        return (weights @ hits.reshape(width, -1)).reshape(blocks, num_chains)

    # -- fault-injection hooks ------------------------------------------

    def force_bit(self, sub: int, row: int, col: int, value: int) -> None:
        self._check_row(row)
        self._check_col(col)
        self._write(sub * self.num_rows + row, value & 1, 1 << col)

    def zero_columns(self, cols: np.ndarray) -> None:
        dark = np.zeros(self.num_cols, dtype=np.uint8)
        dark[cols] = 1
        keep = ~pack_bits(dark)
        self.planes[:] = [plane & keep for plane in self.planes]
        self.tags[:] = [tag & keep for tag in self.tags]

    # ------------------------------------------------------------------

    def _check_key(self, key: Mapping[int, int]) -> None:
        if len(key) > MAX_SEARCH_ROWS:
            raise ProtocolError(
                f"search may drive at most {MAX_SEARCH_ROWS} rows, got {len(key)}"
            )
        for row in key:
            self._check_row(row)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.num_rows:
            raise ConfigError(f"row {row} out of range [0, {self.num_rows})")

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.num_cols:
            raise ConfigError(f"column {col} out of range [0, {self.num_cols})")
