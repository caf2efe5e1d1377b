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

Under ``backend="bitplane"`` the whole block is stored as one fused
bit-plane matrix of ``num_chains * num_cols`` columns. The interleave
makes the fused layout trivial: chain ``c``'s column ``j`` holds element
``c + j * num_chains``, so laying chain ``c`` at fused columns
``c::num_chains`` puts element ``e`` exactly at fused column ``e``. The
:attr:`CSB.ganged` chain then drives every column of every chain in one
vectorized microoperation (the paper's lockstep execution, literally),
while ``csb.chains[c]`` remain live column windows of the same storage
and of the ganged chain's active window.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.microops import Microop
from repro.common.bitutils import bits_to_ints, ints_to_bits
from repro.common.errors import CapacityError, ConfigError
from repro.csb.backend import BackendLike
from repro.csb.bitplane import BitplaneBackend
from repro.csb.chain import NUM_VREGS, Chain, MetaRow
from repro.csb.counter import MicroopStats
from repro.csb.reduction import ReductionTree


class CSB:
    """A bit-level compute-storage block of ``num_chains`` chains.

    Args:
        num_chains: chains in the block (1,024 / 4,096 at the paper's
            design points; tests use small counts).
        num_subarrays: subarrays (bit-slices) per chain.
        num_cols: columns (elements) per chain.
        backend: execution backend for every chain — ``"reference"``
            (default, per-subarray objects) or ``"bitplane"`` (one fused
            bit-plane matrix; enables :attr:`ganged` and the vectorized
            vector-IO fast paths).
        observer: optional :class:`repro.obs.Observer`; microop counts
            are mirrored into its ``csb.microops`` family, labelled with
            the backend name.
        fault_injector: optional :class:`repro.faults.FaultInjector`;
            when its plan carries CSB-site faults the execution backends
            are wrapped in a :class:`repro.faults.FaultyBackend` that
            asserts those faults into the live storage. With no CSB
            faults (or no injector) the backends are used untouched —
            the null path stays fault-free code.
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
        num_rows = NUM_VREGS + len(MetaRow)
        inject = fault_injector is not None and fault_injector.has_csb_faults
        if inject:
            fault_injector.bind_csb(
                num_chains, num_subarrays, num_rows, num_chains * num_cols
            )
        self.ganged: Optional[Chain] = None
        if self.backend_name == "bitplane":
            base = BitplaneBackend(
                num_subarrays, num_rows, num_chains * num_cols
            )
            self.chains: List[Chain] = [
                Chain(
                    num_subarrays,
                    num_cols,
                    stats=self.stats,
                    backend=base.column_view(slice(c, None, num_chains)),
                )
                for c in range(num_chains)
            ]
            # Faults are asserted through the fused backend, which owns
            # the storage every per-chain window aliases.
            fused = (
                fault_injector.wrap_fused(base, num_chains) if inject else base
            )
            # The ganged chain spans every column of every chain; because
            # fused column k holds element k, its active window is simply
            # [vstart, vl) and one microoperation covers the whole block.
            self.ganged = Chain(
                num_subarrays,
                num_chains * num_cols,
                stats=self.stats,
                backend=fused,
            )
            # Each chain's window is a view of the ganged one, as its
            # bits and tags are: programming the ganged window programs
            # them all.
            for c, chain in enumerate(self.chains):
                chain.active_columns = self.ganged.active_columns[c::num_chains]
            self.base = fused
        else:
            if inject and isinstance(backend, str):
                from repro.csb.backend import make_backend

                self.chains = [
                    Chain(
                        num_subarrays,
                        num_cols,
                        stats=self.stats,
                        backend=fault_injector.wrap_chain(
                            make_backend(
                                backend, num_subarrays, num_rows, num_cols
                            ),
                            c,
                            num_chains,
                        ),
                    )
                    for c in range(num_chains)
                ]
            else:
                self.chains = [
                    Chain(num_subarrays, num_cols, stats=self.stats, backend=backend)
                    for _ in range(num_chains)
                ]
            self.base = None
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
        if self.ganged is not None:
            # The per-chain windows are views of this one.
            self.ganged.set_active_window(vstart, vl - vstart)
            return
        for chain_id, chain in enumerate(self.chains):
            # Elements chain_id, chain_id + C, chain_id + 2C, ... live here.
            element_ids = chain_id + self.num_chains * np.arange(chain.num_cols)
            active = (element_ids >= vstart) & (element_ids < vl)
            chain.active_columns = active.astype(np.uint8)

    # ------------------------------------------------------------------
    # Whole-vector host access (used by tests and the VMU model)
    # ------------------------------------------------------------------

    def write_vector(self, vreg: int, values: Sequence[int]) -> None:
        """Scatter ``values`` into register ``vreg`` with chain interleave."""
        self._check_vreg(vreg)
        values = np.asarray(values)
        if len(values) > self.max_vl:
            raise CapacityError(
                f"vector of {len(values)} elements exceeds MAX_VL {self.max_vl}"
            )
        if self.base is not None and len(values):
            # Fused column e = element e: one strided store, same microop
            # tally as the per-element loop (one WRITE per element).
            bits = ints_to_bits(values, self.num_subarrays)
            self.base.set_register_planes(vreg, bits, cols=slice(0, len(values)))
            self.stats.record(Microop.WRITE, bit_parallel=True, n=len(values))
            return
        for element, value in enumerate(values):
            chain, col = self.locate(element)
            self.chains[chain].write_element(vreg, col, int(value))

    def read_vector(self, vreg: int, vl: Optional[int] = None) -> np.ndarray:
        """Gather register ``vreg`` back into element order."""
        self._check_vreg(vreg)
        vl = self.max_vl if vl is None else vl
        if vl > self.max_vl:
            raise CapacityError(
                f"element {self.max_vl} outside CSB capacity {self.max_vl}"
            )
        if self.base is not None and vl:
            out = bits_to_ints(self.base.bits[:, vreg, :vl])
            self.stats.record(Microop.READ, bit_parallel=True, n=vl)
            return out
        out = np.zeros(vl, dtype=np.int64)
        for element in range(vl):
            chain, col = self.locate(element)
            out[element] = self.chains[chain].read_element(vreg, col)
        return out

    def register_planes(self, vreg: int) -> np.ndarray:
        """Copy of register ``vreg``'s bit-planes in element order.

        Host-side and free of microop cost: ``(num_subarrays, max_vl)``,
        column ``e`` holding element ``e`` whichever backend stores it.
        """
        self._check_vreg(vreg)
        if self.base is not None:
            return self.base.register_planes(vreg)
        planes = np.empty((self.num_subarrays, self.max_vl), dtype=np.uint8)
        for c, chain in enumerate(self.chains):
            planes[:, c::self.num_chains] = chain.backend.register_planes(vreg)
        return planes

    def set_register_planes(self, vreg: int, bits: np.ndarray) -> None:
        """Write elements ``[0, n)`` of ``vreg`` from ``(num_subarrays, n)``
        bit-planes in element order (host-side, free of microop cost).

        Goes through each backend's ``set_register_planes``, so a
        :class:`repro.faults.FaultyBackend` re-asserts its faults.
        """
        self._check_vreg(vreg)
        n = bits.shape[1]
        if n > self.max_vl:
            raise CapacityError(
                f"vector of {n} elements exceeds MAX_VL {self.max_vl}"
            )
        if self.base is not None:
            self.base.set_register_planes(vreg, bits, cols=slice(0, n))
            return
        for c, chain in enumerate(self.chains):
            mine = bits[:, c::self.num_chains]
            chain.backend.set_register_planes(
                vreg, mine, cols=slice(0, mine.shape[1])
            )

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
        if self.ganged is not None:
            width = self.num_subarrays if width is None else width
            partials = [int(p) for p in self.echo_partials(vreg, width)]
            for _ in range(width):
                self.stats.record(Microop.SEARCH, bit_parallel=True)
                self.stats.record(Microop.REDUCE, bit_parallel=True)
        else:
            # Every chain runs the bit-serial reduction walk in lockstep
            # off one VCU broadcast: charge the first chain's walk only.
            partials = []
            try:
                for i, chain in enumerate(self.chains):
                    self.stats.muted = i > 0
                    partials.append(chain.redsum(vreg, width))
            finally:
                self.stats.muted = False
        return self.reduction_tree.reduce(partials)

    def echo_partials(self, vreg: int, width: int) -> np.ndarray:
        """Per-chain partials of ``width`` echo searches of ``vreg``.

        Bit-step ``b`` latches plane ``b`` into the tags and pop-counts
        each chain's active columns, weighted by ``2**b``; nothing is
        charged (:meth:`redsum` charges its walk; a mask pop-count is
        the width-1 case). On a plain bit-plane backend the searches
        touch only the tags, so the walk is one pass over the planes
        (:meth:`~repro.csb.bitplane.BitplaneBackend.echo_partials`); a
        fault-wrapped or reference backend searches bit by bit and chain
        by chain, so scheduled tag flips land where they would.
        """
        ganged = self.ganged
        if ganged is not None and type(ganged.backend) is BitplaneBackend:
            return ganged.backend.echo_partials(
                vreg, width, ganged.active_columns, self.num_chains
            )[0]
        partials = np.zeros(self.num_chains, dtype=np.int64)
        for bit in reversed(range(width)):
            if ganged is not None:
                tags = ganged.backend.search(bit, {vreg: 1})
                hits = (tags & ganged.active_columns).reshape(
                    self.num_cols, self.num_chains
                ).sum(axis=0, dtype=np.int64)
            else:
                hits = [
                    int((c.backend.search(bit, {vreg: 1}) & c.active_columns).sum())
                    for c in self.chains
                ]
            partials = (partials << 1) + hits
        return partials

    def _check_vreg(self, vreg: int) -> None:
        if not 0 <= vreg < NUM_VREGS:
            raise ConfigError(f"vector register {vreg} out of range [0, {NUM_VREGS})")
