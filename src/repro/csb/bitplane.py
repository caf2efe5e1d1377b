"""Vectorized bit-plane execution backend for the CSB.

The reference model walks a chain subarray by subarray in Python. This
backend stores the same state as two dense numpy matrices —

* ``bits`` of shape ``(num_subarrays, num_rows, num_cols)``: plane
  ``[i, r]`` is row ``r`` of subarray ``i`` across every column, and
* ``tags`` of shape ``(num_subarrays, num_cols)``: the tag registers —

so every microoperation becomes a whole-array boolean kernel: a
bit-parallel search is a handful of elementwise AND/ANDNOTs over the
``(subarrays, cols)`` planes, an update is one masked assignment, and a
popcount is one ``sum()``. This is the same bulk-bitwise mapping of
associative microoperations used by DRAMA and the FPGA CAM processors.

Fusing goes one level further at the CSB: because the VMU interleaves
element ``e`` to chain ``e % C``, column ``e // C``, laying the ``C``
chains side by side in an ``(S, R, C * N)`` matrix with chain ``c`` at
columns ``c::C`` puts element ``e`` at fused column ``e`` — so a single
*ganged* chain over the fused matrix runs a truth-table step across the
whole block in one numpy operation, and the per-chain windows
``bits[:, :, c::C]`` remain live views of the same storage. All kernels
therefore mutate strictly in place (masked assignment, never rebinding),
so the fused and per-chain views stay coherent by construction.

Semantics are bit-for-bit those of :class:`~repro.csb.subarray.Subarray`,
enforced by the differential suite in ``tests/csb/test_backend_equiv.py``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError, ProtocolError
from repro.csb.subarray import MAX_SEARCH_ROWS


class PlaneView:
    """A :class:`~repro.csb.subarray.Subarray`-compatible window onto one
    bit-slice of a :class:`BitplaneBackend`.

    ``bits`` and ``tags`` are live views into the backend's fused storage,
    so host-side inspection and the memory-only modes (which address
    ``chain.subarrays[i]`` directly) keep working under the bitplane
    backend without copying state around.
    """

    def __init__(self, backend: "BitplaneBackend", sub: int) -> None:
        self._backend = backend
        self._sub = sub
        self.num_rows = backend.num_rows
        self.num_cols = backend.num_cols

    @property
    def bits(self) -> np.ndarray:
        return self._backend.bits[self._sub]

    @property
    def tags(self) -> np.ndarray:
        return self._backend.tags[self._sub]

    @tags.setter
    def tags(self, value) -> None:
        # In-place, so the fused backend (and any ganged view) sees it.
        self._backend.tags[self._sub][:] = np.asarray(value, dtype=np.uint8) & 1

    def read_bit(self, row: int, col: int) -> int:
        self._backend._check_row(row)
        self._backend._check_col(col)
        return int(self.bits[row, col])

    def write_bit(self, row: int, col: int, value: int) -> None:
        self._backend._check_row(row)
        self._backend._check_col(col)
        self.bits[row, col] = 1 if value else 0

    def read_row(self, row: int) -> np.ndarray:
        self._backend._check_row(row)
        return self.bits[row].copy()

    def write_row(self, row: int, values: np.ndarray) -> None:
        self._backend._check_row(row)
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != (self.num_cols,):
            raise ConfigError(
                f"row write expects {self.num_cols} bits, got shape {values.shape}"
            )
        self.bits[row][:] = values & 1

    def search(self, key: Mapping[int, int], accumulate: bool = False) -> np.ndarray:
        return self._backend.search(self._sub, key, accumulate=accumulate)

    def update(
        self, row: int, value: int, column_select: Optional[np.ndarray] = None
    ) -> None:
        select = self.tags if column_select is None else np.asarray(column_select)
        if select.shape != (self.num_cols,):
            raise ConfigError(
                f"column select expects {self.num_cols} bits, got {select.shape}"
            )
        self._backend.update(self._sub, row, value, select)

    def set_tags(self, tags: np.ndarray) -> None:
        self._backend.set_tags(self._sub, tags)


class BitplaneBackend:
    """Dense bit-plane state + vectorized kernels (``name="bitplane"``).

    Args:
        num_subarrays: bit-slices per element.
        num_rows: wordlines per subarray (32 vregs + 4 metadata rows).
        num_cols: columns covered — a single chain's, or, for a fused
            CSB-level instance, ``num_chains * cols_per_chain``.
        bits / tags: adopt existing storage (possibly strided views of a
            larger backend) instead of allocating; used by
            :meth:`column_view`.
    """

    name = "bitplane"

    def __init__(
        self,
        num_subarrays: int,
        num_rows: int,
        num_cols: int,
        bits: Optional[np.ndarray] = None,
        tags: Optional[np.ndarray] = None,
    ) -> None:
        if num_subarrays <= 0 or num_rows <= 0 or num_cols <= 0:
            raise ConfigError("bitplane dimensions must be positive")
        self.num_subarrays = num_subarrays
        self.num_rows = num_rows
        self.num_cols = num_cols
        shape = (num_subarrays, num_rows, num_cols)
        if bits is None:
            bits = np.zeros(shape, dtype=np.uint8)
        elif bits.shape != shape:
            raise ConfigError(f"bits shape {bits.shape} != {shape}")
        if tags is None:
            tags = np.zeros((num_subarrays, num_cols), dtype=np.uint8)
        elif tags.shape != (num_subarrays, num_cols):
            raise ConfigError(
                f"tags shape {tags.shape} != {(num_subarrays, num_cols)}"
            )
        self.bits = bits
        self.tags = tags
        self._views: Optional[List[PlaneView]] = None

    def column_view(self, cols: slice) -> "BitplaneBackend":
        """A backend over a strided column window of this one's storage.

        The view shares (never copies) the underlying arrays: the CSB
        hands each chain the window ``c::num_chains`` of one fused
        backend, so per-chain and ganged execution see the same bits.
        """
        bits = self.bits[:, :, cols]
        tags = self.tags[:, cols]
        return BitplaneBackend(
            self.num_subarrays,
            self.num_rows,
            bits.shape[2],
            bits=bits,
            tags=tags,
        )

    @property
    def subarrays(self) -> List[PlaneView]:
        """Subarray-shaped windows, one per bit-slice (lazily built)."""
        if self._views is None:
            self._views = [PlaneView(self, s) for s in range(self.num_subarrays)]
        return self._views

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def element_bits(self, row: int, col: int) -> np.ndarray:
        return self.bits[:, row, col].copy()

    def set_element_bits(self, row: int, col: int, bits: np.ndarray) -> None:
        self.bits[:, row, col] = np.asarray(bits, dtype=np.uint8) & 1

    def register_planes(self, row: int) -> np.ndarray:
        return self.bits[:, row, :].copy()

    def set_register_planes(
        self, row: int, bits: np.ndarray, cols: Optional[slice] = None
    ) -> None:
        if cols is None:
            self.bits[:, row, :] = np.asarray(bits, dtype=np.uint8) & 1
        else:
            self.bits[:, row, cols] = np.asarray(bits, dtype=np.uint8) & 1

    def plane(self, sub: int, row: int) -> np.ndarray:
        return self.bits[sub, row].copy()

    # ------------------------------------------------------------------
    # Tag access
    # ------------------------------------------------------------------

    def tags_of(self, sub: int) -> np.ndarray:
        return self.tags[sub].copy()

    def all_tags(self) -> np.ndarray:
        return self.tags.copy()

    def set_tags(self, sub: int, tags: np.ndarray) -> None:
        tags = np.asarray(tags, dtype=np.uint8)
        if tags.shape != (self.num_cols,):
            raise ConfigError(f"tags expect {self.num_cols} bits, got {tags.shape}")
        self.tags[sub][:] = tags & 1

    def or_tags(self, sub: int, tags: np.ndarray) -> None:
        self.tags[sub] |= np.asarray(tags, dtype=np.uint8) & 1

    def clear_tags(self) -> None:
        self.tags[:] = 0

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def match(self, sub: int, key: Mapping[int, int]) -> np.ndarray:
        self._check_key(key)
        match = np.ones(self.num_cols, dtype=np.uint8)
        for row, want in key.items():
            plane = self.bits[sub, row]
            match &= plane if want else plane ^ 1
        return match

    def search(
        self, sub: int, key: Mapping[int, int], accumulate: bool = False
    ) -> np.ndarray:
        match = self.match(sub, key)
        if accumulate:
            self.tags[sub] |= match
        else:
            self.tags[sub][:] = match
        return self.tags[sub].copy()

    def search_all(
        self, keys: Sequence[Mapping[int, int]], accumulate: bool = False
    ) -> np.ndarray:
        # One fused kernel over all subarrays: for each distinct row any
        # key drives, build the per-subarray drive column (1 = search-one,
        # 0 = search-zero, -1 = don't care) and AND the outcome planes.
        for key in keys:
            self._check_key(key)
        rows = sorted({row for key in keys for row in key})
        match = np.ones((self.num_subarrays, self.num_cols), dtype=np.uint8)
        for row in rows:
            want = np.array(
                [key.get(row, -1) for key in keys], dtype=np.int8
            )[:, None]
            planes = self.bits[:, row, :]
            match &= np.where(
                want == 1, planes, np.where(want == 0, planes ^ 1, np.uint8(1))
            )
        if accumulate:
            self.tags |= match
        else:
            self.tags[:] = match
        return self.tags.copy()

    def update(self, sub: int, row: int, value: int, select: np.ndarray) -> None:
        self._check_row(row)
        np.copyto(
            self.bits[sub, row],
            np.uint8(1 if value else 0),
            where=np.asarray(select).astype(bool),
        )

    def update_all(self, row: int, value: int, select: np.ndarray) -> None:
        self._check_row(row)
        np.copyto(
            self.bits[:, row, :],
            np.uint8(1 if value else 0),
            where=np.asarray(select).astype(bool),
        )

    def update_all_values(
        self, row: int, values: Sequence[int], select: np.ndarray
    ) -> None:
        self._check_row(row)
        data = (np.asarray(values, dtype=np.uint8) & 1)[:, None]
        np.copyto(
            self.bits[:, row, :],
            np.broadcast_to(data, (self.num_subarrays, self.num_cols)),
            where=np.asarray(select).astype(bool),
        )

    def move_planes(
        self,
        dst_row: int,
        src_row: int,
        sources: Sequence[Optional[int]],
        active: np.ndarray,
    ) -> None:
        # Element rewrite as one gather of the source planes (a copy, so
        # the destination may be the source), zeroed where a plane has
        # no source, then one masked store: columns outside the active
        # window keep their data.
        self._check_row(src_row)
        self._check_row(dst_row)
        planes = self.bits[[0 if j is None else j for j in sources], src_row, :]
        planes[[i for i, j in enumerate(sources) if j is None]] = 0
        np.copyto(
            self.bits[:, dst_row, :], planes,
            where=np.asarray(active).astype(bool),
        )

    def echo_partials(
        self, row: int, width: int, active: np.ndarray, num_chains: int,
        blocks: int = 1,
    ) -> np.ndarray:
        """A reduction walk's ``width`` echo searches of ``row``, at once.

        Bit-step ``b`` latches plane ``b`` into the tags and pop-counts
        each chain's ``active`` columns, weighted by ``2**b``. The
        columns are ``blocks`` equal blocks (gang members) with column
        ``e`` of a block on chain ``e % num_chains``. Returns the
        ``(blocks, num_chains)`` int64 partials.
        """
        planes = self.bits[:width, row, :]
        self.tags[:width] = planes
        hits = (planes & active).reshape(
            width, blocks, -1, num_chains
        ).sum(axis=2, dtype=np.int64)
        weights = np.int64(1) << np.arange(width, dtype=np.int64)
        return (weights @ hits.reshape(width, -1)).reshape(blocks, num_chains)

    # -- fault-injection hooks ------------------------------------------

    def force_bit(self, sub: int, row: int, col: int, value: int) -> None:
        self._check_row(row)
        self._check_col(col)
        self.bits[sub, row, col] = np.uint8(value & 1)

    def zero_columns(self, cols: np.ndarray) -> None:
        self.bits[:, :, cols] = 0
        self.tags[:, cols] = 0

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
