"""The Compute-Storage Block: a collection of chains plus reduction tree.

At the published design points the CSB holds 1,024 chains (CAPE32k:
1,024 x 32 = 32,768 lanes) or 4,096 chains (CAPE131k: 131,072 lanes). The
bit-level CSB here is used for functional validation, the memory-only modes
of Section VII, and instruction-model derivation; the system-level
simulator charges timing from the instruction model instead of stepping
every chain (mirroring the paper's gem5 methodology).

Adjacent vector elements are interleaved across chains by the VMU (element
``e`` lives in chain ``e % num_chains``, column ``e // num_chains``), so a
memory sub-request can stream one element into every chain in one cycle.

Whichever backend stores the bits, the whole block is one fused backend
over ``num_chains * num_cols`` columns. The interleave makes the fused
layout trivial: chain ``c``'s column ``j`` holds element
``c + j * num_chains``, so laying chain ``c`` at fused columns
``c::num_chains`` puts element ``e`` exactly at fused column ``e``. The
:attr:`CSB.ganged` chain then drives every column of every chain in one
microoperation (the paper's lockstep execution, literally), and every
access — vector IO, host peeks, reductions, the active window — goes
through it. Chain ``c``'s window is the ganged window's columns
``c::num_chains``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits.microops import Microop
from repro.common.bitutils import bits_to_ints, ints_to_bits
from repro.common.errors import CapacityError, ConfigError
from repro.csb.backend import BackendLike, make_backend
from repro.csb.bitplane import NUM_ROWS, BitplaneBackend, pack_bits
from repro.csb.chain import NUM_VREGS, Chain
from repro.csb.counter import MicroopStats
from repro.csb.reduction import ReductionTree


class CSB:
    """A bit-level compute-storage block of ``num_chains`` chains.

    Args:
        num_chains: chains in the block (1,024 / 4,096 at the paper's
            design points; tests use small counts).
        num_subarrays: subarrays (bit-slices) per chain.
        num_cols: columns (elements) per chain.
        backend: execution backend of the fused block behind
            :attr:`ganged` — ``"reference"`` (default, one
            :class:`~repro.csb.subarray.Subarray` per bit-slice) or
            ``"bitplane"`` (packed planes).
        observer: optional :class:`repro.obs.Observer`; microop counts
            are mirrored into its ``csb.microops`` family, labelled with
            the backend name.
        fault_injector: optional :class:`repro.faults.FaultInjector`;
            when its plan carries CSB-site faults the fused backend is
            wrapped in a :class:`repro.faults.FaultyBackend` that
            asserts those faults into the live storage. With no CSB
            faults (or no injector) the backend is used untouched — the
            null path stays fault-free code.
    """

    def __init__(
        self,
        num_chains: int = 4,
        num_subarrays: int = 32,
        num_cols: int = 32,
        backend: BackendLike = "reference",
        observer=None,
        fault_injector=None,
    ) -> None:
        if num_chains <= 0:
            raise ConfigError(f"num_chains must be positive, got {num_chains}")
        self.stats = MicroopStats()
        self.num_chains = num_chains
        self.num_subarrays = num_subarrays
        self.num_cols = num_cols
        self.backend_name = backend if isinstance(backend, str) else backend.name
        if observer is not None:
            self.stats.attach_observer(observer, backend=self.backend_name)
        base = make_backend(
            backend, num_subarrays, NUM_ROWS, num_chains * num_cols
        )
        if fault_injector is not None and fault_injector.has_csb_faults:
            fault_injector.bind_csb(
                num_chains, num_subarrays, NUM_ROWS, num_chains * num_cols
            )
            base = fault_injector.wrap_fused(base, num_chains)
        # The ganged chain spans every column of every chain; because
        # fused column k holds element k, its active window is simply
        # [vstart, vl) and one microoperation covers the whole block.
        self.ganged = Chain(
            num_subarrays, num_chains * num_cols, stats=self.stats, backend=base
        )
        self.reduction_tree = ReductionTree(num_chains)

    @property
    def max_vl(self) -> int:
        """MAX_VL: total lanes available (chains x columns)."""
        return self.num_chains * self.num_cols

    # ------------------------------------------------------------------
    # Element placement (VMU interleaving)
    # ------------------------------------------------------------------

    def locate(self, element: int) -> tuple:
        """Map an element index to its (chain, column) home."""
        if not 0 <= element < self.max_vl:
            raise CapacityError(
                f"element {element} outside CSB capacity {self.max_vl}"
            )
        return element % self.num_chains, element // self.num_chains

    def set_vector_length(self, vl: int, vstart: int = 0) -> None:
        """Program the active window on every chain (Section V-F).

        Chains whose columns are entirely outside [vstart, vl) compute an
        all-zero mask and may power-gate their peripherals.
        """
        if not 0 <= vl <= self.max_vl:
            raise CapacityError(f"vl {vl} outside [0, {self.max_vl}]")
        if not 0 <= vstart <= vl:
            raise ConfigError(f"vstart {vstart} outside [0, vl={vl}]")
        self.ganged.set_active_window(vstart, vl - vstart)

    # ------------------------------------------------------------------
    # Whole-vector host access (used by tests and the VMU model)
    # ------------------------------------------------------------------

    def write_vector(self, vreg: int, values: Sequence[int]) -> None:
        """Scatter ``values`` into register ``vreg`` with chain interleave:
        one prefix store at fused columns ``[0, n)``, charged one WRITE
        per element."""
        self._check_vreg(vreg)
        values = np.asarray(values)
        if len(values):
            self.poke_vector(vreg, values)
            self.stats.record(Microop.WRITE, bit_parallel=True, n=len(values))

    def read_vector(self, vreg: int, vl: Optional[int] = None) -> np.ndarray:
        """Gather register ``vreg`` back into element order, charged one
        READ per element."""
        vl = self.max_vl if vl is None else vl
        out = self.peek_vector(vreg, vl)
        if vl:
            self.stats.record(Microop.READ, bit_parallel=True, n=vl)
        return out

    def register_planes(self, vreg: int) -> np.ndarray:
        """Copy of register ``vreg``'s bit-planes in element order.

        Host-side and free of microop cost: ``(num_subarrays, max_vl)``,
        column ``e`` holding element ``e``.
        """
        self._check_vreg(vreg)
        return self.ganged.backend.register_planes(vreg)

    def set_register_planes(self, vreg: int, bits: np.ndarray) -> None:
        """Write elements ``[0, n)`` of ``vreg`` from ``(num_subarrays, n)``
        bit-planes in element order (host-side, free of microop cost).

        Goes through the backend's ``set_register_planes``, so a
        :class:`repro.faults.FaultyBackend` re-asserts its faults.
        """
        self._check_vreg(vreg)
        n = bits.shape[1]
        if n > self.max_vl:
            raise CapacityError(
                f"vector of {n} elements exceeds MAX_VL {self.max_vl}"
            )
        self.ganged.backend.set_register_planes(vreg, bits)

    def peek_vector(self, vreg: int, vl: Optional[int] = None, signed: bool = False) -> np.ndarray:
        """Host-side gather without microop cost (validation fixture)."""
        vl = self.max_vl if vl is None else vl
        if vl > self.max_vl:
            raise CapacityError(
                f"element {self.max_vl} outside CSB capacity {self.max_vl}"
            )
        out = bits_to_ints(self.register_planes(vreg)[:, :vl])
        if signed:
            sign = np.int64(1) << (self.num_subarrays - 1)
            out = (out ^ sign) - sign
        return out

    def poke_vector(self, vreg: int, values: Sequence[int]) -> None:
        """Host-side scatter without microop cost (validation fixture)."""
        self.set_register_planes(
            vreg, ints_to_bits(np.asarray(values), self.num_subarrays)
        )

    # ------------------------------------------------------------------
    # Global reduction
    # ------------------------------------------------------------------

    def redsum(self, vreg: int, width: Optional[int] = None) -> int:
        """Reduction sum of ``vreg`` across every chain and the global tree.

        Each bit-step searches one bit-slice of every chain in lockstep
        (one SEARCH + one REDUCE microop, the bit-parallel flavour of
        Figure 6) and pop-counts each chain's columns, so the partials
        feed the global reduction tree.
        """
        self._check_vreg(vreg)
        width = self.num_subarrays if width is None else width
        partials = self.echo_partials(vreg, width)
        for _ in range(width):
            self.stats.record(Microop.SEARCH, bit_parallel=True)
            self.stats.record(Microop.REDUCE, bit_parallel=True)
        return self.reduction_tree.reduce(partials)

    def echo_partials(self, vreg: int, width: int) -> np.ndarray:
        """Per-chain partials of ``width`` echo searches of ``vreg``.

        Bit-step ``b`` latches plane ``b`` into the tags and pop-counts
        each chain's active columns, weighted by ``2**b``; nothing is
        charged (:meth:`redsum` charges its walk; a mask pop-count is
        the width-1 case). On a plain bit-plane backend the searches
        touch only the tags, so the walk is one pass over the planes
        (:meth:`~repro.csb.bitplane.BitplaneBackend.echo_partials`) in
        the packed window; a fault-wrapped or reference backend searches
        bit by bit, so scheduled tag flips land where they would.
        """
        ganged = self.ganged
        if type(ganged.backend) is BitplaneBackend:
            return ganged.backend.echo_partials(
                vreg, width, pack_bits(ganged.active_columns), self.num_chains
            )[0]
        partials = np.zeros(self.num_chains, dtype=np.int64)
        for bit in reversed(range(width)):
            tags = ganged.backend.search(bit, {vreg: 1})
            hits = (tags & ganged.active_columns).reshape(
                self.num_cols, self.num_chains
            ).sum(axis=0, dtype=np.int64)
            partials = (partials << 1) + hits
        return partials

    def _check_vreg(self, vreg: int) -> None:
        if not 0 <= vreg < NUM_VREGS:
            raise ConfigError(f"vector register {vreg} out of range [0, {NUM_VREGS})")
