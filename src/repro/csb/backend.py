"""Execution backends: pluggable state + kernel engines behind a Chain.

A :class:`~repro.csb.chain.Chain` is split into two layers:

* the **chain facade** owns the paper-visible semantics — microoperation
  accounting, the active-window column mask, tag routing between
  subarrays — and is backend-agnostic;
* an **execution backend** owns the bitcell/tag *state* and the raw
  array kernels (search matchlines, bulk row updates, register-plane
  transfers) the facade drives.

Two backends ship:

``reference``
    The always-available per-subarray model: a list of
    :class:`~repro.csb.subarray.Subarray` objects, each a standalone
    6T-SRAM matrix, walked with Python loops. This is the bit-accurate
    model the reproduction has validated since the seed; every other
    backend must match it bit-for-bit.

``bitplane``
    A vectorized engine (:mod:`repro.csb.bitplane`) storing the whole
    chain — or, fused at the CSB level, *all* chains — as a single
    ``(subarrays, rows, columns)`` bit matrix, so each microoperation is
    one whole-array boolean kernel instead of a per-subarray/per-column
    loop. Same semantics, orders of magnitude faster at scale.

Both implement the :class:`ExecutionBackend` protocol below. Because the
chain facade performs all microop recording, the two backends charge
*identical* microoperation counts by construction; the differential test
suite (``tests/csb/test_backend_equiv.py``) additionally pins down
bit-identical register state, tag bits, and reduction results.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from repro.common.errors import ConfigError
from repro.csb.subarray import Subarray

#: Names accepted wherever a backend can be selected.
BACKEND_NAMES = ("reference", "bitplane")

#: A backend selector: a name from :data:`BACKEND_NAMES` or an instance.
BackendLike = Union[str, "ExecutionBackend"]


@runtime_checkable
class ExecutionBackend(Protocol):
    """State + kernels a :class:`~repro.csb.chain.Chain` executes on.

    All bit arrays use dtype ``uint8`` with values 0/1; ``sub`` indexes a
    subarray (bit-slice), ``row`` a wordline, and column vectors have one
    entry per chain column. Implementations mutate their arrays strictly
    in place so external views (e.g. the per-chain windows of a fused
    CSB-level backend) stay coherent.
    """

    #: Identifying name ("reference" / "bitplane").
    name: str
    num_subarrays: int
    num_rows: int
    num_cols: int

    # -- state access ---------------------------------------------------

    def element_bits(self, row: int, col: int) -> np.ndarray:
        """Bits of one element: ``(num_subarrays,)``, slice ``i`` = bit ``i``."""

    def set_element_bits(self, row: int, col: int, bits: np.ndarray) -> None:
        """Write one element's bits across every subarray."""

    def register_planes(self, row: int) -> np.ndarray:
        """Copy of one row across all subarrays: ``(num_subarrays, num_cols)``."""

    def set_register_planes(
        self, row: int, bits: np.ndarray, cols: Optional[slice] = None
    ) -> None:
        """Write one row across all subarrays (optionally a column slice)."""

    def plane(self, sub: int, row: int) -> np.ndarray:
        """Copy of a single subarray row: ``(num_cols,)``."""

    # -- tag access -----------------------------------------------------

    def tags_of(self, sub: int) -> np.ndarray:
        """Copy of one subarray's tag bits."""

    def all_tags(self) -> np.ndarray:
        """Copy of every subarray's tags: ``(num_subarrays, num_cols)``."""

    def set_tags(self, sub: int, tags: np.ndarray) -> None:
        """Overwrite one subarray's tag bits."""

    def or_tags(self, sub: int, tags: np.ndarray) -> None:
        """OR into one subarray's tag bits (the tag accumulator)."""

    def clear_tags(self) -> None:
        """Zero every subarray's tag register."""

    # -- kernels --------------------------------------------------------

    def match(self, sub: int, key: Mapping[int, int]) -> np.ndarray:
        """Matchline outcome of a search, *without* touching the tags."""

    def search(
        self, sub: int, key: Mapping[int, int], accumulate: bool = False
    ) -> np.ndarray:
        """Search one subarray; latch (or OR) the match into its tags."""

    def search_all(
        self, keys: Sequence[Mapping[int, int]], accumulate: bool = False
    ) -> np.ndarray:
        """Search every subarray in one cycle (one key per subarray)."""

    def update(
        self, sub: int, row: int, value: int, select: np.ndarray
    ) -> None:
        """Write ``value`` to the selected columns of one subarray row."""

    def update_all(self, row: int, value: int, select: np.ndarray) -> None:
        """Write ``value`` to the same row of every subarray.

        ``select`` is a per-subarray column enable of shape
        ``(num_subarrays, num_cols)``.
        """

    def update_all_values(
        self, row: int, values: Sequence[int], select: np.ndarray
    ) -> None:
        """Like :meth:`update_all` with a distinct data bit per subarray."""

    def move_planes(
        self,
        dst_row: int,
        src_row: int,
        sources: Sequence[Optional[int]],
        active: np.ndarray,
    ) -> None:
        """Element rewrite as a plane move: in the ``active`` columns,
        plane ``i`` of ``dst_row`` becomes plane ``sources[i]`` of
        ``src_row``, or 0 where it is ``None``.

        Models the chain controller's per-column element rewrite path
        (shifts): a fixed map from result bit to source bit is, on
        bit-sliced storage, a move of whole bit-planes. Every source
        plane is read before any plane is written; masked columns keep
        their data.
        """

    # -- fault-injection hooks ------------------------------------------

    def force_bit(self, sub: int, row: int, col: int, value: int) -> None:
        """Force one bitcell to ``value``, bypassing kernel semantics.

        The physical write a stuck-at fault models; used by
        :class:`repro.faults.FaultyBackend` to re-assert persistent
        faults after every mutation.
        """

    def zero_columns(self, cols: np.ndarray) -> None:
        """Zero the given columns' bitcells and tags in every subarray.

        Models a dead chain going dark (bitcells read 0, matchlines
        never discharge); used by the fault injector for chain kills.
        """


class ReferenceBackend:
    """The per-subarray reference model (a list of :class:`Subarray`).

    Kernels iterate subarrays in Python — bit-for-bit the model the
    reproduction has always used, kept as the always-available ground
    truth.
    """

    name = "reference"

    def __init__(self, num_subarrays: int, num_rows: int, num_cols: int) -> None:
        self.num_subarrays = num_subarrays
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.subarrays: List[Subarray] = [
            Subarray(num_rows=num_rows, num_cols=num_cols)
            for _ in range(num_subarrays)
        ]

    # -- state access ---------------------------------------------------

    def element_bits(self, row: int, col: int) -> np.ndarray:
        return np.array(
            [sub.read_bit(row, col) for sub in self.subarrays], dtype=np.uint8
        )

    def set_element_bits(self, row: int, col: int, bits: np.ndarray) -> None:
        for sub, bit in zip(self.subarrays, bits):
            sub.write_bit(row, col, int(bit))

    def register_planes(self, row: int) -> np.ndarray:
        return np.stack([sub.bits[row] for sub in self.subarrays])

    def set_register_planes(
        self, row: int, bits: np.ndarray, cols: Optional[slice] = None
    ) -> None:
        for sub, plane in zip(self.subarrays, bits):
            if cols is None:
                sub.bits[row] = plane & 1
            else:
                sub.bits[row, cols] = plane & 1

    def plane(self, sub: int, row: int) -> np.ndarray:
        return self.subarrays[sub].bits[row].copy()

    # -- tag access -----------------------------------------------------

    def tags_of(self, sub: int) -> np.ndarray:
        return self.subarrays[sub].tags.copy()

    def all_tags(self) -> np.ndarray:
        return np.stack([sub.tags for sub in self.subarrays])

    def set_tags(self, sub: int, tags: np.ndarray) -> None:
        self.subarrays[sub].set_tags(tags)

    def or_tags(self, sub: int, tags: np.ndarray) -> None:
        self.subarrays[sub].tags |= np.asarray(tags, dtype=np.uint8) & 1

    def clear_tags(self) -> None:
        for sub in self.subarrays:
            sub.tags[:] = 0

    # -- kernels --------------------------------------------------------

    def match(self, sub: int, key: Mapping[int, int]) -> np.ndarray:
        # Compute the matchlines without disturbing the latched tags.
        target = self.subarrays[sub]
        saved = target.tags
        target.tags = saved.copy()
        outcome = target.search(key, accumulate=False).copy()
        target.tags = saved
        return outcome

    def search(
        self, sub: int, key: Mapping[int, int], accumulate: bool = False
    ) -> np.ndarray:
        return self.subarrays[sub].search(key, accumulate=accumulate)

    def search_all(
        self, keys: Sequence[Mapping[int, int]], accumulate: bool = False
    ) -> np.ndarray:
        return np.stack(
            [
                sub.search(key, accumulate=accumulate)
                for sub, key in zip(self.subarrays, keys)
            ]
        )

    def update(self, sub: int, row: int, value: int, select: np.ndarray) -> None:
        self.subarrays[sub].update(row, value, column_select=select)

    def update_all(self, row: int, value: int, select: np.ndarray) -> None:
        for sub, sel in zip(self.subarrays, select):
            sub.update(row, value, column_select=sel)

    def update_all_values(
        self, row: int, values: Sequence[int], select: np.ndarray
    ) -> None:
        for sub, value, sel in zip(self.subarrays, values, select):
            sub.update(row, value, column_select=sel)

    def move_planes(
        self,
        dst_row: int,
        src_row: int,
        sources: Sequence[Optional[int]],
        active: np.ndarray,
    ) -> None:
        # The controller rewrites the active columns' elements (2
        # microops per column, charged by the chain facade); the source
        # planes are copied out before any destination plane is written.
        select = np.asarray(active).astype(bool)
        planes = self.register_planes(src_row)[:, select]
        for sub, src in zip(self.subarrays, sources):
            sub.bits[dst_row, select] = 0 if src is None else planes[src]

    # -- fault-injection hooks ------------------------------------------

    def force_bit(self, sub: int, row: int, col: int, value: int) -> None:
        self.subarrays[sub].write_bit(row, col, int(value))

    def zero_columns(self, cols: np.ndarray) -> None:
        for sub in self.subarrays:
            sub.bits[:, cols] = 0
            sub.tags[cols] = 0


def make_backend(
    backend: BackendLike, num_subarrays: int, num_rows: int, num_cols: int
) -> "ExecutionBackend":
    """Resolve a backend selector into an instance with the given shape.

    Accepts a name from :data:`BACKEND_NAMES` or a ready instance (used
    by the CSB to hand chains column-windows of one fused backend); an
    instance must already have matching dimensions.
    """
    if isinstance(backend, str):
        if backend == "reference":
            return ReferenceBackend(num_subarrays, num_rows, num_cols)
        if backend == "bitplane":
            from repro.csb.bitplane import BitplaneBackend

            return BitplaneBackend(num_subarrays, num_rows, num_cols)
        raise ConfigError(
            f"unknown execution backend {backend!r}; expected one of "
            f"{BACKEND_NAMES}"
        )
    shape = (backend.num_subarrays, backend.num_rows, backend.num_cols)
    if shape != (num_subarrays, num_rows, num_cols):
        raise ConfigError(
            f"backend shape {shape} does not match chain shape "
            f"{(num_subarrays, num_rows, num_cols)}"
        )
    return backend
