"""The CAPE system model: CP + VCU + VMU + CSB (Sections III, VI-C).

This is the reproduction's analogue of the paper's gem5 integration: a
cycle-approximate system simulator where vector instructions execute
*functionally* on packed numpy vectors and are *charged* latency/energy
from the instruction model (Table I), the VCU command-distribution model,
the VMU/HBM transfer model, and the control processor's issue rules. The
bit-level CSB of :mod:`repro.csb` validates the functional semantics in
the test suite; stepping every subarray for whole applications is what
the instruction-level model exists to avoid — exactly the paper's
methodology split (Section VI).

Presets: ``CAPE32K`` (1,024 chains = 32,768 lanes, area-equivalent to one
out-of-order tile) and ``CAPE131K`` (4,096 chains = 131,072 lanes, two
tiles).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.assoc.instruction_model import InstructionModel
from repro.baseline.trace import TraceBlock
from repro.circuits.area import AreaModel
from repro.circuits.microops import CircuitModel
from repro.common.bitutils import to_signed, to_unsigned
from repro.common.errors import ConfigError, CSBCapacityError, ProtocolError
from repro.engine.bitexec import (
    MASK_RESULTS,
    BitEngine,
    UnsupportedMicrocode,
    microcode_unsupported_reason,
    op_key,
    op_plan,
    sync_destination,
)
from repro.csb.bitplane import BitplaneBackend
from repro.plan import resolve_plan_cache
from repro.plan.plan import replay_lowered
from repro.plan.superplan import fuse_plans, superplan_key
from repro.engine.cp import ControlProcessor
from repro.engine.vcu import VCU, VCUStats
from repro.engine.vmu import VMU, PageFault, VMUConfig, VMUStats
from repro.memory.hbm import HBM
from repro.memory.mainmem import WordMemory
from repro.obs.observer import NULL_OBSERVER
from repro.obs.stats import CAPERunStats as _CAPERunStats

#: CP cycles charged per page-fault service (trap + OS page-in bookkeeping;
#: the HBM fill itself is charged through the VMU on the retried transfer).
PAGE_FAULT_HANDLER_CYCLES = 5000

#: Energy per transferred byte on the HBM interface (~3.9 pJ/bit).
HBM_ENERGY_PER_BYTE_J = 31.2e-12

#: Cycles charged for re-syncing the mirror CSB and retrying one
#: intrinsic's microcode after a detected bit-level divergence.
FAULT_RETRY_CYCLES = 64

#: Cycles charged per chain remapped onto a spare (copy the chain's
#: register columns through the VMU path and reprogram the steering).
CHAIN_REMAP_CYCLES = 256


@dataclass(frozen=True)
class CAPEConfig:
    """A CAPE design point.

    Attributes:
        name: label (CAPE32k / CAPE131k).
        num_chains: chains in the CSB.
        cols_per_chain: elements per chain (32).
        element_bits: element width / subarrays per chain (32).
    """

    name: str
    num_chains: int
    cols_per_chain: int = 32
    element_bits: int = 32

    def __post_init__(self) -> None:
        if self.num_chains <= 0:
            raise ConfigError("num_chains must be positive")

    @property
    def max_vl(self) -> int:
        """MAX_VL: the lane count (chains x columns)."""
        return self.num_chains * self.cols_per_chain

    def area_mm2(self, area_model: Optional[AreaModel] = None) -> float:
        model = area_model if area_model is not None else AreaModel()
        return model.cape_tile_area_mm2(self.num_chains)


CAPE32K = CAPEConfig(name="CAPE32k", num_chains=1024)
CAPE131K = CAPEConfig(name="CAPE131k", num_chains=4096)


class CAPESystem:
    """Executable CAPE system with an intrinsics-level API.

    Vector state is held functionally (one numpy row per architectural
    vector register, unsigned modulo 2^32); every intrinsic updates the
    state and charges cycles/energy. Typical use::

        cape = CAPESystem(CAPE32K)
        cape.memory.write_words(0x1000, data)
        vl = cape.vsetvl(len(data))
        cape.vle(1, 0x1000)
        cape.vadd_vx(2, 1, 5)
        cape.vse(2, 0x8000)
        stats = cape.stats

    Args:
        config: design point (CAPE32K / CAPE131K).
        memory: functional main memory (fresh 64 MiB store by default).
        backend: optional bit-accurate execution backend. ``None``
            (default) runs purely functionally; ``"bitplane"`` or
            ``"reference"`` additionally executes every supported compute
            intrinsic as microcode on a bit-level CSB and raises
            :class:`~repro.common.errors.ProtocolError` if the two ever
            diverge (see :mod:`repro.engine.bitexec`). Charged cycles and
            energy are identical in all modes — charging always comes
            from the instruction model, which charges every instruction
            its Table I closed-form cycles (the cycles our microcode
            measures are an :class:`InstructionModel` report,
            ``InstructionModel.measure``).
        observer: optional :class:`repro.obs.Observer`; counters and
            trace events flow from every layer (VCU, VMU, CSB backend,
            paging, spill path) into it. Defaults to the shared null
            observer, which costs one attribute check per charge.
        fault_injector: optional :class:`repro.faults.FaultInjector`,
            bound to every injection site: the VMU transfer paths, the
            cycle charging path (whole-device death) and every mirror
            CSB the backend builds. Its state persists across
            :meth:`reset`, so faults carry over between jobs on the
            same device. With none, every injection hook is a single
            ``None`` check.
        plan_cache: where the bit-accurate backend keeps the compiled
            microcode plans every dispatch replays — ``True`` (default)
            shares the process-wide
            :data:`~repro.plan.cache.GLOBAL_PLAN_CACHE`, ``False`` keeps
            nothing (each dispatch compiles its plan afresh), or pass an
            explicit :class:`~repro.plan.PlanCache`. Plans are pure
            (identical results, cycles, and ``csb.microops``), so this
            is purely a host-speed knob.
        superplan: inside a :meth:`superplan_scope`, defer eligible
            mirror microcode into one fused cached trace (``True``) or
            replay per instruction (``False``, the default). Also purely
            a host-speed knob (docs/PERFORMANCE.md).
    """

    NUM_VREGS = 32

    def __init__(
        self,
        config: CAPEConfig = CAPE32K,
        memory: Optional[WordMemory] = None,
        backend: Optional[str] = None,
        observer=None,
        fault_injector=None,
        plan_cache=True,
        superplan=False,
    ) -> None:
        self.config = config
        self.circuit = CircuitModel()
        self.model = InstructionModel(self.circuit, width=config.element_bits)
        self.memory = memory if memory is not None else WordMemory()
        self.hbm = HBM()
        self.cp = ControlProcessor()
        self.vcu = VCU(config.num_chains, self.model)
        # Sub-requests must not cover more elements than there are
        # chains (Section V-E); small test configurations shrink them.
        vmu_config = VMUConfig(
            sub_request_bytes=min(512, config.num_chains * 4)
        )
        self.vmu = VMU(
            config.num_chains,
            self.hbm,
            self.memory,
            vmu_config,
            frequency_hz=self.circuit.frequency_hz,
        )
        self.vregs = np.zeros((self.NUM_VREGS, config.max_vl), dtype=np.int64)
        self.vl = config.max_vl
        self.vstart = 0
        self.stats = _CAPERunStats(frequency_hz=self.circuit.frequency_hz)
        self._memory_energy_j = 0.0
        #: Selected element width (SEW). Narrower elements keep one lane
        #: per chain column but walk fewer bit-slices, so bit-serial
        #: instructions speed up proportionally (Section V-A: "element
        #: types smaller than 32 bits ... handled by the microcode").
        self.sew = config.element_bits
        self._models = {config.element_bits: self.model}
        #: ``2**SEW - 1``: ``x & _mask`` is ``x mod 2**SEW`` for every
        #: int64, negative differences and wrapped products included.
        self._mask = (1 << self.sew) - 1
        #: Architectural registers written since construction/reset —
        #: the register-file occupancy the runtime schedules against.
        self._written_vregs: set = set()
        self._plan_cache = resolve_plan_cache(plan_cache)
        #: Whole-kernel superplans: inside a :meth:`superplan_scope`,
        #: eligible intrinsics defer their mirror microcode into one
        #: fused cached trace (docs/PERFORMANCE.md).
        self.superplan = bool(superplan)
        self._sp_session: Optional[list] = None
        self._sp_window: Optional[tuple] = None
        #: vd -> functional row snapshot at its last deferred write.
        self._sp_expected: dict = {}
        self._bitengine: Optional[BitEngine] = None
        self.fault_injector = None
        self.observer = NULL_OBSERVER
        self.attach_observer(observer)
        self.fault_injector = fault_injector
        self.vmu.fault_injector = fault_injector
        if fault_injector is not None and fault_injector.observer is None:
            fault_injector.observer = self.observer if self.observer.enabled else None
        if backend is not None:
            self.set_backend(backend)

    @property
    def backend(self) -> Optional[str]:
        """Name of the active bit-accurate backend (None = functional)."""
        return self._bitengine.backend if self._bitengine is not None else None

    def attach_observer(self, observer) -> None:
        """Thread one observer through every instrumented layer.

        ``None`` (re)binds the shared null observer. The VCU gets a
        ``cycle_source`` so its microcode trace events are stamped with
        the run's simulated-cycle timeline.
        """
        self.observer = observer if observer is not None else NULL_OBSERVER
        live = self.observer if self.observer.enabled else None
        self.vcu.observer = live
        self.vcu.cycle_source = lambda: self.stats.cycles
        self.vmu.observer = live
        if self.fault_injector is not None:
            self.fault_injector.observer = live
        if self._bitengine is not None:
            self._bitengine.attach_observer(self.observer)

    def set_backend(self, backend: Optional[str]) -> None:
        """Select the bit-accurate execution backend at runtime.

        Switching to a backend builds a bit-level CSB and mirrors every
        live register into it, so cross-validation can start mid-program;
        ``None`` drops back to purely functional execution.
        """
        if backend is None:
            self._superplan_flush()
            self._bitengine = None
            return
        if self._bitengine is not None and self._bitengine.backend == backend:
            return
        self._superplan_flush()
        self._bitengine = BitEngine(
            self.config.num_chains,
            self.config.element_bits,
            self.config.cols_per_chain,
            backend=backend,
            observer=self.observer,
            fault_injector=self.fault_injector,
            plan_cache=self._plan_cache,
        )
        for vreg in self._written_vregs:
            self._bitengine.sync_register(vreg, self.vregs[vreg])

    def reset(self, clear_memory: bool = False) -> None:
        """Restore architectural and stats state without reconstruction.

        Re-arms the system for a fresh run — vector registers, vl/vstart,
        SEW, cycle/energy stats, the CP (shadow, counters, and cold
        caches), VCU/VMU counters, and the paging model all return to
        their initial state, so a job costs the same whatever ran on the
        device before it. Main-memory
        *contents* are preserved unless ``clear_memory`` is set, so a
        device pool can reuse one system (and its preloaded data) across
        jobs instead of rebuilding it per run.
        """
        self._superplan_flush()
        self.vregs.fill(0)
        self.vl = self.config.max_vl
        self.vstart = 0
        self.set_sew(self.config.element_bits)
        self.stats = _CAPERunStats(frequency_hz=self.circuit.frequency_hz)
        self._memory_energy_j = 0.0
        self._written_vregs.clear()
        self.cp = ControlProcessor(self.cp.core.config)
        self.vcu.stats = VCUStats()
        self.vmu.stats = VMUStats()
        self.vmu._mapped_pages = None
        if self._bitengine is not None:
            self._bitengine.reset()
        if clear_memory:
            self.memory._words.fill(0)

    def set_sew(self, bits: int) -> None:
        """Select the element width (8, 16, or the full hardware width).

        Reconfigures the microcode sequences: the truth-table walks cover
        ``bits`` slices instead of 32, so e.g. ``vadd`` drops from 8x32+2
        to 8x8+2 cycles at SEW=8. Selecting the current width does
        nothing.
        """
        if bits == self.sew:
            return
        if bits not in (8, 16, self.config.element_bits):
            raise ConfigError(
                f"SEW {bits} unsupported (8, 16, or "
                f"{self.config.element_bits})"
            )
        # A width change invalidates the deferred window: replay what is
        # pending under the SEW it was issued at.
        self._superplan_flush()
        if bits not in self._models:
            self._models[bits] = InstructionModel(self.circuit, width=bits)
        self.sew = bits
        self.model = self._models[bits]
        self.vcu.model = self.model
        self._mask = (1 << bits) - 1

    # ------------------------------------------------------------------
    # Configuration intrinsics
    # ------------------------------------------------------------------

    def vsetvl(
        self, requested: int, sew: Optional[int] = None, strict: bool = False
    ) -> int:
        """``vsetvli``: request a vector length; returns the granted vl.

        Grants ``min(requested, MAX_VL)`` per the RISC-V VLA contract.
        Chains whose columns fall wholly outside the active window
        power-gate their peripherals (Section V-F). ``sew`` optionally
        reprograms the element width (vtype's e8/e16/e32). With
        ``strict`` the VLA clamp becomes a :class:`CSBCapacityError`
        instead — the allocation mode runtimes use to learn the exact
        shortfall rather than silently strip-mine.
        """
        if requested < 0:
            raise CSBCapacityError(
                "requested vl must be non-negative",
                requested_lanes=requested,
                available_lanes=self.config.max_vl,
                cols_per_chain=self.config.cols_per_chain,
            )
        if strict and requested > self.config.max_vl:
            raise CSBCapacityError(
                f"requested vl {requested} exceeds MAX_VL "
                f"{self.config.max_vl} ({self.config.num_chains} chains x "
                f"{self.config.cols_per_chain} columns)",
                requested_lanes=requested,
                available_lanes=self.config.max_vl,
                cols_per_chain=self.config.cols_per_chain,
            )
        self._superplan_flush()
        if sew is not None:
            self.set_sew(sew)
        self.vl = min(requested, self.config.max_vl)
        self._charge_compute_cycles(1)
        return self.vl

    def set_vstart(self, vstart: int) -> None:
        """Program the ``vstart`` CSR (index of the first active element)."""
        if not 0 <= vstart <= self.vl:
            raise ConfigError(f"vstart {vstart} outside [0, vl={self.vl}]")
        if vstart != self.vstart:
            self._superplan_flush()
        self.vstart = vstart

    @property
    def active_slice(self) -> slice:
        return slice(self.vstart, self.vl)

    # ------------------------------------------------------------------
    # Memory intrinsics (through the VMU)
    # ------------------------------------------------------------------

    def vle(self, vd: int, addr: int) -> None:
        """``vle32.v vd, (addr)`` — unit-stride vector load.

        Page faults restart the instruction at the faulting element via
        ``vstart`` (Section V-C): the completed prefix is architecturally
        committed, the CP services the fault, and the transfer resumes.
        """
        original_vstart = self.vstart
        offset = 0
        while True:
            remaining = self.vl - self.vstart
            try:
                values, cycles = self.vmu.load(
                    addr + 4 * offset, remaining, element_bytes=self.sew // 8
                )
            except PageFault as fault:
                self._commit_load_prefix(vd, addr, offset, fault.element_index)
                offset += fault.element_index
                self._service_fault(fault)
                continue
            self._write_active(vd, values)
            self._charge_memory(cycles, len(values) * 4)
            break
        self.vstart = original_vstart

    def vse(self, vs: int, addr: int) -> None:
        """``vse32.v vs, (addr)`` — unit-stride vector store.

        Restartable at the faulting index, like :meth:`vle`.
        """
        original_vstart = self.vstart
        offset = 0
        while True:
            values = self._read_active(vs)
            try:
                cycles = self.vmu.store(
                    addr + 4 * offset, values, element_bytes=self.sew // 8
                )
            except PageFault as fault:
                k = fault.element_index
                if k > 0:
                    prefix_cycles = self.vmu.store(
                        addr + 4 * offset, values[:k], element_bytes=self.sew // 8
                    )
                    self._charge_memory(prefix_cycles, 4 * k)
                    self.set_vstart(self.vstart + k)
                    offset += k
                self._service_fault(fault)
                continue
            self._charge_memory(cycles, len(values) * 4)
            break
        self.vstart = original_vstart

    def _commit_load_prefix(self, vd: int, addr: int, offset: int, count: int) -> None:
        """Commit the elements transferred before a load fault."""
        if count <= 0:
            return
        self._superplan_flush()
        values, cycles = self.vmu.load(
            addr + 4 * offset, count, element_bytes=self.sew // 8
        )
        sl = slice(self.vstart, self.vstart + count)
        self.vregs[vd, sl] = to_unsigned(values, self.sew)
        self._written_vregs.add(vd)
        self._bitsync(vd)
        self._charge_memory(cycles, 4 * count)
        self.set_vstart(self.vstart + count)

    def _service_fault(self, fault: PageFault) -> None:
        """Trap to the CP, page the faulting address in, account the cost."""
        self.vmu.map_range(fault.addr, 4)
        self.stats.page_faults += 1
        self.stats.cycles += PAGE_FAULT_HANDLER_CYCLES
        self.stats.scalar_exposed_cycles += PAGE_FAULT_HANDLER_CYCLES
        obs = self.observer
        if obs.enabled:
            obs.counter("engine.page_faults").inc()
            obs.counter("engine.cycles", kind="scalar").inc(PAGE_FAULT_HANDLER_CYCLES)
            obs.complete(
                "page_fault.service",
                "engine",
                ts=self.stats.cycles - PAGE_FAULT_HANDLER_CYCLES,
                dur=PAGE_FAULT_HANDLER_CYCLES,
                tid="cp",
                addr=fault.addr,
            )

    def vlse(self, vd: int, addr: int, stride_bytes: int) -> None:
        """``vlse32.v`` — strided load (one packet per element)."""
        values, cycles = self.vmu.load_strided(
            addr, self.vl - self.vstart, stride_bytes
        )
        self._write_active(vd, values)
        self._charge_memory(cycles, len(values) * 4)

    def vsse(self, vs: int, addr: int, stride_bytes: int) -> None:
        """``vsse32.v`` — strided store (one packet per element)."""
        values = self._read_active(vs)
        cycles = self.vmu.store_strided(addr, values, stride_bytes)
        self._charge_memory(cycles, len(values) * 4)

    def vlrw(self, vd: int, addr: int, chunk: int) -> None:
        """``vlrw.v vd, r1, r2`` — replica vector load (Section V-G)."""
        values, cycles = self.vmu.load_replica(addr, chunk, self.vl - self.vstart)
        self._write_active(vd, values)
        self._charge_memory(cycles, chunk * 4)

    # ------------------------------------------------------------------
    # Arithmetic / logic intrinsics (through the VCU)
    # ------------------------------------------------------------------

    def vadd(self, vd: int, vs1: int, vs2: int, mask: Optional[int] = None) -> None:
        """``vadd.vv`` (optionally masked by register ``mask``)."""
        self._binary("vadd.vv", vd, vs1, vs2, lambda a, b: a + b, mask)

    def vsub(self, vd: int, vs1: int, vs2: int, mask: Optional[int] = None) -> None:
        """``vsub.vv``."""
        self._binary("vsub.vv", vd, vs1, vs2, lambda a, b: a - b, mask)

    def vmul(self, vd: int, vs1: int, vs2: int, mask: Optional[int] = None) -> None:
        """``vmul.vv`` — low half of the product."""
        self._binary("vmul.vv", vd, vs1, vs2, lambda a, b: a * b, mask)

    def vand(self, vd: int, vs1: int, vs2: int, mask: Optional[int] = None) -> None:
        """``vand.vv``."""
        self._binary("vand.vv", vd, vs1, vs2, lambda a, b: a & b, mask)

    def vor(self, vd: int, vs1: int, vs2: int, mask: Optional[int] = None) -> None:
        """``vor.vv``."""
        self._binary("vor.vv", vd, vs1, vs2, lambda a, b: a | b, mask)

    def vxor(self, vd: int, vs1: int, vs2: int, mask: Optional[int] = None) -> None:
        """``vxor.vv``."""
        self._binary("vxor.vv", vd, vs1, vs2, lambda a, b: a ^ b, mask)

    def vadd_vx(self, vd: int, vs1: int, scalar: int, mask: Optional[int] = None) -> None:
        """``vadd.vx`` — add a scalar to every element."""
        s = int(scalar)
        self._binary("vadd.vx", vd, vs1, None, lambda a, _: a + s, mask, scalar=s)

    def vrsub_vx(self, vd: int, vs1: int, scalar: int, mask: Optional[int] = None) -> None:
        """``vrsub.vx`` — reverse subtract: vd = scalar - vs1."""
        s = int(scalar)
        self._binary("vrsub.vx", vd, vs1, None, lambda a, _: s - a, mask, scalar=s)

    def vsll_vi(self, vd: int, vs1: int, shamt: int) -> None:
        """``vsll.vi`` — logical shift left by an immediate."""
        self._shift("vsll.vi", vd, vs1, shamt, lambda a, k: a << k)

    def vsrl_vi(self, vd: int, vs1: int, shamt: int) -> None:
        """``vsrl.vi`` — logical shift right by an immediate."""
        self._shift("vsrl.vi", vd, vs1, shamt, lambda a, k: a >> k)

    def vsra_vi(self, vd: int, vs1: int, shamt: int) -> None:
        """``vsra.vi`` — arithmetic shift right by an immediate."""
        bits = self.sew
        self._shift(
            "vsra.vi", vd, vs1, shamt, lambda a, k: to_signed(a, bits) >> k
        )

    def _shift(self, mnemonic, vd, vs1, shamt, op) -> None:
        if not 0 <= shamt < self.sew:
            raise ConfigError(
                f"shift amount {shamt} outside [0, {self.sew})"
            )
        sl = self.active_slice
        result = op(self._source(vs1, sl), int(shamt))
        result &= self._mask
        self.vregs[vd, sl] = result
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch(mnemonic, self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec(mnemonic, vd=vd, vs1=vs1, scalar=int(shamt))

    def vmin(self, vd: int, vs1: int, vs2: int) -> None:
        """``vmin.vv`` — signed element-wise minimum."""
        self._minmax("vmin.vv", vd, vs1, vs2, signed=True, smaller=True)

    def vmax(self, vd: int, vs1: int, vs2: int) -> None:
        """``vmax.vv`` — signed element-wise maximum."""
        self._minmax("vmax.vv", vd, vs1, vs2, signed=True, smaller=False)

    def vminu(self, vd: int, vs1: int, vs2: int) -> None:
        """``vminu.vv`` — unsigned element-wise minimum."""
        self._minmax("vminu.vv", vd, vs1, vs2, signed=False, smaller=True)

    def vmaxu(self, vd: int, vs1: int, vs2: int) -> None:
        """``vmaxu.vv`` — unsigned element-wise maximum."""
        self._minmax("vmaxu.vv", vd, vs1, vs2, signed=False, smaller=False)

    def _minmax(self, mnemonic, vd, vs1, vs2, signed, smaller) -> None:
        sl = self.active_slice
        bits = self.sew
        a, b = self._source(vs1, sl), self._source(vs2, sl)
        if signed:
            a, b = to_signed(a, bits), to_signed(b, bits)
        out = np.minimum(a, b) if smaller else np.maximum(a, b)
        self.vregs[vd, sl] = to_unsigned(out, bits)
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch(mnemonic, self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec(mnemonic, vd=vd, vs1=vs1, vs2=vs2)

    def vmsne(self, vd: int, vs1: int, vs2: int) -> None:
        """``vmsne.vv`` — inequality mask."""
        sl = self.active_slice
        self.vregs[vd, sl] = self._source(vs1, sl) != self._source(vs2, sl)
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmsne.vv", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmsne.vv", vd=vd, vs1=vs1, vs2=vs2)

    def vmv_vx(self, vd: int, scalar: int) -> None:
        """``vmv.v.x`` — broadcast a scalar."""
        sl = self.active_slice
        self.vregs[vd, sl] = to_unsigned(np.int64(scalar), self.sew)
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmv.v.x", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmv.v.x", vd=vd, scalar=int(scalar))

    def vmv(self, vd: int, vs1: int) -> None:
        """``vmv.v.v`` — register copy."""
        sl = self.active_slice
        self.vregs[vd, sl] = self.vregs[vs1, sl]
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmv.v.v", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmv.v.v", vd=vd, vs1=vs1)

    # ------------------------------------------------------------------
    # Comparisons and select
    # ------------------------------------------------------------------

    def vmseq_vx(self, vd: int, vs1: int, scalar: int) -> None:
        """``vmseq.vx`` — mask of elements equal to a scalar."""
        sl = self.active_slice
        s = to_unsigned(np.int64(scalar), self.sew)
        self.vregs[vd, sl] = self._source(vs1, sl) == s
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmseq.vx", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmseq.vx", vd=vd, vs1=vs1, scalar=int(scalar))

    def vmseq(self, vd: int, vs1: int, vs2: int) -> None:
        """``vmseq.vv``."""
        sl = self.active_slice
        self.vregs[vd, sl] = self._source(vs1, sl) == self._source(vs2, sl)
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmseq.vv", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmseq.vv", vd=vd, vs1=vs1, vs2=vs2)

    def vmslt(self, vd: int, vs1: int, vs2: int) -> None:
        """``vmslt.vv`` — signed less-than mask."""
        sl = self.active_slice
        # Flipping the sign bit orders the rows as to_signed does, without
        # the two signed copies: to_signed(x) is just (x ^ sign) - sign.
        sign = 1 << (self.sew - 1)
        self.vregs[vd, sl] = (
            (self._source(vs1, sl) ^ sign) < (self._source(vs2, sl) ^ sign)
        )
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmslt.vv", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmslt.vv", vd=vd, vs1=vs1, vs2=vs2)

    def vmsltu(self, vd: int, vs1: int, vs2: int) -> None:
        """``vmsltu.vv`` — unsigned less-than mask."""
        sl = self.active_slice
        self.vregs[vd, sl] = self._source(vs1, sl) < self._source(vs2, sl)
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmsltu.vv", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmsltu.vv", vd=vd, vs1=vs1, vs2=vs2)

    def vmerge(self, vd: int, vs1: int, vs2: int, vm: int = 0) -> None:
        """``vmerge.vvm`` — vd = mask ? vs1 : vs2."""
        sl = self.active_slice
        m = (self.vregs[vm, sl] & 1) == 1
        self.vregs[vd, sl] = np.where(
            m, self.vregs[vs1, sl], self.vregs[vs2, sl]
        )
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch("vmerge.vv", self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec("vmerge.vv", vd=vd, vs1=vs1, vs2=vs2, mask_reg=vm)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------

    def vredsum(self, vs1: int, signed: bool = True) -> int:
        """``vredsum.vs`` — sum all active elements to a scalar.

        Bit-serially echoes each bit through the tags, pop-counts per
        chain, and combines partials through the pipelined global tree —
        roughly 8x faster than an element-wise add (Section V-G).
        """
        sl = self.active_slice
        vals = self._source(vs1, sl)
        if signed:
            # sum(to_signed(v)) without the signed copy (see vmslt).
            sign = 1 << (self.sew - 1)
            total = int((vals ^ sign).sum()) - len(vals) * sign
        else:
            total = int(vals.sum())
        cycles = self.vcu.dispatch(
            "vredsum.vs", self.vl - self.vstart, reduction=True
        )
        self._charge_compute(cycles)
        if self._bitengine is not None:
            bit_total = self._bitexec("vredsum.vs", vs1=vs1)
            if bit_total is not None and bit_total != int(vals.sum()):
                if not self._tolerate_fault("redsum"):
                    raise ProtocolError(
                        f"bit-level {self._bitengine.backend!r} backend redsum "
                        f"{bit_total} != functional {int(vals.sum())} "
                        f"(vs1=v{vs1}, vl={self.vl}, vstart={self.vstart})"
                    )
        return total

    def vmask_popcount(self, vm: int) -> int:
        """``vcpop.m``-style count of set mask bits.

        A mask is a single bit per element, so the reduction is one
        echo-search plus one pass through the pipelined tree — the 1-bit
        special case of the redsum (Figure 6).
        """
        sl = self.active_slice
        count = int((self.vregs[vm, sl] & 1).sum())
        cycles = self.vcu.dispatch_raw(
            1 + self.vcu.reduction_tree.num_stages,
            self.vl - self.vstart,
            energy_per_lane_j=0.4e-12 / 32,
        )
        self._charge_compute(cycles)
        if self._bitengine is not None:
            self._superplan_flush()
            bit_count = self._bitengine.popcount(vm, self.vl, self.vstart)
            # A deferred (gang phase 1) engine returns None: the count
            # is cross-checked at stacked replay instead.
            if bit_count is not None and bit_count != count:
                if not self._tolerate_fault("popcount"):
                    raise ProtocolError(
                        f"bit-level {self._bitengine.backend!r} backend popcount "
                        f"{bit_count} != functional {count} (vm=v{vm})"
                    )
        return count

    def fence(self) -> None:
        """Memory fence between scalar and vector accesses.

        CAPE does not disambiguate store-load or store-store ordering
        between vector and scalar instructions (footnote 1): the compiler
        or programmer inserts fences. A fence waits for the outstanding
        vector instruction's shadow to drain, serialising the CP against
        the CSB.
        """
        drained = self.cp._shadow_budget
        self.cp._shadow_budget = 0.0
        self.stats.cycles += drained
        self.stats.scalar_exposed_cycles += drained
        obs = self.observer
        if obs.enabled and drained:
            obs.counter("engine.cycles", kind="scalar").inc(drained)

    def vfirst(self, vm: int) -> int:
        """``vfirst.m``-style find-first-set mask bit (or -1).

        CAPE's updates deliberately avoid a priority encoder (Section
        VI-A), so find-first is microcoded as a binary search over the
        active window: each probe masks half the remaining columns and
        pop-counts the tags through the tree — log2(vl) popcount passes.
        """
        sl = self.active_slice
        bits = self.vregs[vm, sl] & 1
        hits = np.flatnonzero(bits)
        result = int(hits[0]) + self.vstart if len(hits) else -1
        active = max(1, self.vl - self.vstart)
        probes = max(1, math.ceil(math.log2(active)))
        per_probe = 1 + self.vcu.reduction_tree.num_stages
        cycles = self.vcu.dispatch_raw(
            probes * per_probe, active, energy_per_lane_j=0.4e-12 / 32
        )
        self._charge_compute(cycles)
        return result

    # ------------------------------------------------------------------
    # Scalar work (control processor)
    # ------------------------------------------------------------------

    def scalar_block(self, block: TraceBlock) -> None:
        """Run scalar work on the CP; hides under vector shadows."""
        exposed = self.cp.scalar_block(block)
        self.stats.cycles += exposed
        self.stats.scalar_exposed_cycles += exposed
        obs = self.observer
        if obs.enabled and exposed:
            obs.counter("engine.cycles", kind="scalar").inc(exposed)

    def scalar_ops(self, **kwargs) -> None:
        """Scalar work from raw counts (see ``ControlProcessor.scalar_ops``)."""
        exposed = self.cp.scalar_ops(**kwargs)
        self.stats.cycles += exposed
        self.stats.scalar_exposed_cycles += exposed
        obs = self.observer
        if obs.enabled and exposed:
            obs.counter("engine.cycles", kind="scalar").inc(exposed)

    # ------------------------------------------------------------------
    # Host-side accessors
    # ------------------------------------------------------------------

    def read_vreg(self, vreg: int, signed: bool = False) -> np.ndarray:
        """Inspect a vector register's active elements (no cost)."""
        vals = self.vregs[vreg, self.active_slice].copy()
        if signed:
            return to_signed(vals, self.sew)
        return vals

    # ------------------------------------------------------------------
    # Context save/restore hooks (runtime spill path)
    # ------------------------------------------------------------------

    def spill_vregs(self, regs, addr: int, protect: bool = False) -> float:
        """Save registers' ``[0, vl)`` windows to memory; returns cycles.

        The bulk VMU path stores the block contiguously at ``addr`` and
        the transfer is charged like any vector store (HBM cycles and
        energy land in :attr:`stats`), so scheduling decisions that
        force spills are visible in the run's totals. ``protect`` appends
        one XOR parity word per register (verified on restore).
        """
        regs = list(regs)
        if not regs:
            return 0.0
        start = self.stats.cycles
        block = self.vregs[regs, : self.vl]
        cycles = self.vmu.spill(addr, block, protect=protect)
        words = block.size + (len(regs) if protect else 0)
        self._charge_memory(cycles, words * 4)
        obs = self.observer
        if obs.enabled:
            obs.counter("runtime.spills").inc()
            obs.counter("runtime.spill_bytes").inc(block.size * 4)
            obs.complete(
                "context.spill", "runtime",
                ts=start, dur=self.stats.cycles - start,
                tid="context", regs=len(regs),
            )
        return cycles

    def fill_vregs(self, regs, addr: int, protect: bool = False) -> float:
        """Restore registers spilled by :meth:`spill_vregs`; returns cycles.

        With ``protect=True`` the slab's parity words are verified first;
        a corrupted slab raises
        :class:`~repro.common.errors.SpillCorruptionError` before any row
        reaches the register file.
        """
        regs = list(regs)
        if not regs:
            return 0.0
        start = self.stats.cycles
        self._superplan_flush()
        block, cycles = self.vmu.fill(addr, len(regs), self.vl, protect=protect)
        for row, reg in zip(block, regs):
            self.vregs[reg, : self.vl] = row
            self._written_vregs.add(reg)
            self._bitsync(reg)
        words = block.size + (len(regs) if protect else 0)
        self._charge_memory(cycles, words * 4)
        obs = self.observer
        if obs.enabled:
            obs.counter("runtime.restores").inc()
            obs.complete(
                "context.restore", "runtime",
                ts=start, dur=self.stats.cycles - start,
                tid="context", regs=len(regs),
            )
        return cycles

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _binary(self, mnemonic, vd, vs1, vs2, op, mask, scalar=None) -> None:
        sl = self.active_slice
        a = self.vregs[vs1, sl]
        b = self.vregs[vs2, sl] if vs2 is not None else None
        result = op(a, b)  # a fresh array: reduce it in place
        result &= self._mask
        if mask is not None:
            m = (self.vregs[mask, sl] & 1) == 1
            result = np.where(m, result, self.vregs[vd, sl])
            # Mask broadcast into the MASK metadata rows (3 microops).
            self._charge_compute_cycles(3)
        self.vregs[vd, sl] = result
        self._written_vregs.add(vd)
        cycles = self.vcu.dispatch(mnemonic, self.vl - self.vstart)
        self._charge_compute(cycles)
        self._bitexec(mnemonic, vd=vd, vs1=vs1, vs2=vs2, scalar=scalar, mask_reg=mask)

    def _bitexec(
        self,
        mnemonic,
        vd=None,
        vs1=None,
        vs2=None,
        scalar=None,
        mask_reg=None,
    ):
        """Execute + cross-validate one intrinsic on the bit-level backend.

        Runs the microcode on the mirror CSB, then checks and re-syncs
        the destination against the functional register file with
        :func:`~repro.engine.bitexec.sync_destination` over the active
        window: the low SEW planes inside it (plane 0 for mask-producing
        ops, whose upper planes are architecturally undefined), every
        plane outside it, which catches microcode leaking past
        vstart/vl. Forms without microcode (masked vmul/vrsub, aliased
        destinations the algorithms refuse) fall back to mirroring the
        functional result.

        Returns the bit-level scalar for ``vredsum.vs``, else ``None``.
        """
        engine = self._bitengine
        if engine is None:
            return None
        sp = self._sp_session
        if sp is not None:
            if self._sp_deferrable(engine, mnemonic, vd, vs1, vs2, mask_reg):
                if not sp:
                    self._sp_window = (self.vl, self.vstart, self.sew)
                sp.append(op_key(
                    mnemonic, self.sew, self.config.element_bits,
                    vd, vs1, vs2, scalar, mask_reg,
                ))
                # Snapshot the functional destination *now* (the
                # functional op already ran): a later instruction in the
                # same kernel may overwrite this row before the flush —
                # e.g. a non-deferrable form targeting the same vd — and
                # validation must compare against the value this write
                # produced, not the live register file.
                self._sp_expected[vd] = self.vregs[vd].copy()
                return None
            # An op the superplan path can't absorb: replay what is
            # pending, then take the per-instruction path below.
            self._superplan_flush()
        try:
            result = engine.execute(
                mnemonic,
                vd=vd,
                vs1=vs1,
                vs2=vs2,
                scalar=scalar,
                mask_reg=mask_reg,
                width=self.sew,
                vl=self.vl,
                vstart=self.vstart,
            )
        except (UnsupportedMicrocode, ConfigError):
            if vd is not None:
                engine.sync_register(vd, self.vregs[vd])
            return None
        if mnemonic == "vredsum.vs":
            return result
        if engine.deferred:
            # Gang phase 1: the mirror doesn't exist yet. The trace
            # carries this sync; the stacked replay checks the
            # destination with the same routine before applying it.
            engine.sync_register(vd, self.vregs[vd])
            return None
        if sync_destination(
            engine.csb, vd, self.vregs[vd], ((self.vl, self.vstart),),
            1 if mnemonic in MASK_RESULTS else self.sew,
        )[0]:
            if self.fault_injector is None:
                raise ProtocolError(
                    f"bit-level {engine.backend!r} backend diverged from the "
                    f"functional model on {mnemonic} (vd=v{vd}, vl={self.vl}, "
                    f"vstart={self.vstart}, sew={self.sew})"
                )
            self._recover_bitexec(mnemonic, vd, vs1, vs2, scalar, mask_reg)
        return None

    # ------------------------------------------------------------------
    # Whole-kernel superplans (docs/PERFORMANCE.md)
    # ------------------------------------------------------------------

    @contextmanager
    def superplan_scope(self):
        """Defer eligible mirror microcode into one fused superplan.

        Inside the scope, compute intrinsics still execute functionally
        and charge cycles/energy per instruction; only the bit-level
        mirror's microcode is deferred, as the per-instruction plan keys.
        Any non-deferrable event — reductions, loads/spills touching the
        mirror, window or SEW changes, backend/injector swaps — replays
        the pending sequence first, so observable state at every flush
        point is identical to per-instruction execution. Eligibility is
        re-checked per instruction (plain bit-plane backend, no fault
        injector, no microop trace, microcode exists for the form), so
        the reference and faulty paths are untouched.

        A no-op unless ``superplan`` was enabled at construction (or via
        :class:`~repro.runtime.execconfig.ExecConfig`); nesting re-enters
        the outer session. On an exception the pending tail is discarded
        un-replayed — the runtime resets the device before its next job.
        """
        if not self.superplan or self._sp_session is not None:
            yield
            return
        self._sp_session = []
        self._sp_expected = {}
        try:
            yield
            self._superplan_flush()
        finally:
            self._sp_session = None
            self._sp_expected = {}

    def _sp_deferrable(self, engine, mnemonic, vd, vs1, vs2, mask_reg) -> bool:
        """Can this intrinsic's mirror microcode join the open session?"""
        return (
            vd is not None
            and mnemonic != "vredsum.vs"
            and type(engine) is BitEngine
            and type(engine.csb.ganged.backend) is BitplaneBackend
            and self.fault_injector is None
            and not engine.csb.stats.keep_trace
            and microcode_unsupported_reason(mnemonic, vd, vs1, vs2, mask_reg)
            is None
        )

    def _superplan_flush(self) -> None:
        """Replay the pending deferred sequence as one fused superplan.

        Fetches (or fuses and caches) the superplan keyed by the pending
        per-instruction plan-key sequence, replays it once on the ganged
        bit-plane chain, then checks and re-syncs every register the
        sequence wrote with the per-instruction routine,
        :func:`~repro.engine.bitexec.sync_destination`, so the mirror is
        left bit-identical to what per-instruction execution leaves.
        ``expected`` maps vd -> the functional row snapshotted when its
        last deferred write was recorded: the live register file may
        already hold a *later* value for the same vd (written by the
        non-deferrable op that triggered this flush).
        """
        sp = self._sp_session
        if not sp:
            return
        pending, self._sp_session = sp, []
        expected, self._sp_expected = self._sp_expected, {}
        engine = self._bitengine
        vl, vstart, sew = self._sp_window
        cache = engine._plan_cache
        nsub = self.config.element_bits
        skey = superplan_key(nsub, sew, pending)

        def build():
            entries = [
                (key.mnemonic, key.vd, key.mnemonic in MASK_RESULTS,
                 op_plan(key, cache, self.observer))
                for key in pending
            ]
            return fuse_plans(skey, nsub, entries)

        plan = cache.get_or_compile(skey, build, observer=self.observer)
        engine.set_window(vl, vstart)
        replay_lowered(plan.program, engine.csb.ganged)
        for vd, is_mask in plan.writes:
            if sync_destination(
                engine.csb, vd, expected[vd], ((vl, vstart),),
                1 if is_mask else sew,
            )[0]:
                raise ProtocolError(
                    f"bit-level {engine.backend!r} backend diverged from "
                    f"the functional model replaying a superplan of "
                    f"{plan.num_instructions} instructions (vd=v{vd}, "
                    f"vl={vl}, vstart={vstart}, sew={sew})"
                )
        obs = self.observer
        if obs.enabled:
            obs.counter("plan.superplan.flush").inc()
            obs.counter("plan.superplan.instructions").inc(
                plan.num_instructions
            )
            # A fused stream is exactly its members' kernels, so the two
            # series read the same; both stay because the benchmark
            # harness reads both.
            kernels = len(plan.program.kernels)
            obs.counter("plan.superplan.kernels_in").inc(kernels)
            obs.counter("plan.superplan.kernels_out").inc(kernels)

    def _tolerate_fault(self, kind: str) -> bool:
        """Count a detected bit-level divergence under fault injection.

        Returns True when an injector is attached — the caller keeps the
        functional result (reduction fallback) instead of treating the
        divergence as a protocol violation and crashing the device.
        """
        fi = self.fault_injector
        if fi is None:
            return False
        obs = self.observer
        if obs.enabled:
            obs.counter("faults.detected", kind=kind).inc()
            obs.counter("faults.repaired", kind="fallback").inc()
            obs.instant(f"fault-detected:{kind}", "faults")
        return True

    def _recover_bitexec(self, mnemonic, vd, vs1, vs2, scalar, mask_reg) -> None:
        """Repair ladder for a detected bit-level divergence.

        Detect → remap permanently-faulty chains onto spares (when the
        budget allows) → re-sync the mirror's live registers → retry the
        microcode once and check it again → fall back to the functional
        result if it still diverges. Each rung is charged in simulated
        cycles, so recovery has a visible cost; the destination is
        re-synced either way, so the mirror never keeps faulty state.
        """
        engine = self._bitengine
        fi = self.fault_injector
        obs = self.observer
        if obs.enabled:
            obs.counter("faults.detected", kind="divergence").inc()
            obs.instant("fault-detected:divergence", "faults", op=mnemonic)
        remapped = engine.repair(fi)
        if remapped:
            self._charge_compute_cycles(CHAIN_REMAP_CYCLES * len(remapped))
            if obs.enabled:
                obs.counter("faults.repaired", kind="remap").inc(len(remapped))
                obs.instant("fault-remap", "faults", chains=len(remapped))
        # The divergence may have corrupted operand rows too (a stuck
        # bit lands wherever it lands): restore the whole mirror from
        # the functional state before retrying.
        for reg in sorted(self._written_vregs):
            if reg != vd:
                engine.sync_register(reg, self.vregs[reg])
        self._charge_compute_cycles(FAULT_RETRY_CYCLES)
        try:
            engine.execute(
                mnemonic, vd=vd, vs1=vs1, vs2=vs2, scalar=scalar,
                mask_reg=mask_reg, width=self.sew, vl=self.vl,
                vstart=self.vstart,
            )
            healed = not sync_destination(
                engine.csb, vd, self.vregs[vd], ((self.vl, self.vstart),),
                1 if mnemonic in MASK_RESULTS else self.sew,
            )[0]
        except (UnsupportedMicrocode, ConfigError):  # pragma: no cover
            healed = False
        if not healed:
            engine.sync_register(vd, self.vregs[vd])
        if obs.enabled:
            obs.counter(
                "faults.repaired", kind="retry" if healed else "fallback"
            ).inc()

    def _bitsync(self, vd: int) -> None:
        """Mirror one functional register into the bit-level backend.

        Callers that overwrite the functional row first must
        ``_superplan_flush()`` *before* the overwrite — a pending
        deferred write to ``vd`` validates against the pre-overwrite
        functional value, exactly as per-instruction execution would
        have at issue time.
        """
        if self._bitengine is not None:
            self._bitengine.sync_register(vd, self.vregs[vd])

    def _write_active(self, vd: int, values: np.ndarray) -> None:
        self._superplan_flush()
        sl = self.active_slice
        expected = sl.stop - sl.start
        if len(values) != expected:
            raise CSBCapacityError(
                f"vector of {len(values)} values does not match active "
                f"window of {expected}",
                requested_lanes=len(values),
                available_lanes=expected,
                cols_per_chain=self.config.cols_per_chain,
            )
        self.vregs[vd, sl] = to_unsigned(values, self.sew)
        self._written_vregs.add(vd)
        self._bitsync(vd)

    def _read_active(self, vs: int) -> np.ndarray:
        return self.vregs[vs, self.active_slice].copy()

    def _source(self, vs: int, sl: slice) -> np.ndarray:
        """Source row ``vs`` over ``sl`` as a SEW-bit element.

        A row written at a wider SEW keeps its upper bits, which the
        microcode (walking only the low SEW bit-slices) never reads; an
        intrinsic whose result depends on them reads the low SEW bits
        only. Rows written at full width hold no higher bits, so the
        full-width path returns the row untouched.
        """
        row = self.vregs[vs, sl]
        if self.sew < self.config.element_bits:
            return row & self._mask
        return row

    def _charge_compute(self, cycles: float) -> None:
        added = self.cp.vector_issue(cycles)
        self.stats.cycles += added
        self.stats.compute_cycles += added
        self.stats.vector_instructions += 1
        self.stats.energy_j = self.vcu.stats.energy_j + self._memory_energy_j
        obs = self.observer
        if obs.enabled:
            obs.counter("engine.cycles", kind="compute").inc(added)
            obs.counter("engine.instructions", kind="vector").inc()
        if self.fault_injector is not None:
            self.fault_injector.charge(added)

    def _charge_compute_cycles(self, cycles: float) -> None:
        self.stats.cycles += cycles
        self.stats.compute_cycles += cycles
        obs = self.observer
        if obs.enabled:
            obs.counter("engine.cycles", kind="compute").inc(cycles)
        if self.fault_injector is not None:
            self.fault_injector.charge(cycles)

    def _charge_memory(self, cycles: float, num_bytes: int) -> None:
        added = self.cp.vector_issue(cycles)
        self.stats.cycles += added
        self.stats.memory_cycles += added
        self.stats.memory_instructions += 1
        self._memory_energy_j += num_bytes * HBM_ENERGY_PER_BYTE_J
        self.stats.energy_j = self.vcu.stats.energy_j + self._memory_energy_j
        obs = self.observer
        if obs.enabled:
            obs.counter("engine.cycles", kind="memory").inc(added)
            obs.counter("engine.instructions", kind="memory").inc()
            obs.counter("engine.hbm_bytes").inc(num_bytes)
            obs.counter("engine.hbm_energy_j").inc(
                num_bytes * HBM_ENERGY_PER_BYTE_J
            )
        if self.fault_injector is not None:
            self.fault_injector.charge(added)
