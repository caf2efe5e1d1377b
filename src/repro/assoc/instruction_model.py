"""Instruction-level timing and energy model (paper Table I, Section VI-B).

Combines the associative emulator's measured microoperation mix with the
circuit layer's per-microop energies to estimate each vector instruction's
latency (cycles) and per-lane energy. Two cycle accountings coexist:

* ``paper`` (the default, and what every
  :class:`~repro.engine.system.CAPESystem` charges): Table I's closed
  forms — the published calibration, e.g. 8n + 2 for ``vadd.vv``.
* ``measured``: cycles counted by running our reconstructed microcode on
  the bit-level chain. For most instructions this matches the closed form
  exactly; for the few whose published microcode is not fully specified
  (``vmul``, ``vmerge``, ``vmslt``) our reconstruction spends more cycles
  with the same asymptotic shape — the deltas are recorded in
  EXPERIMENTS.md.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.assoc.algorithms import ALGORITHMS, AlgorithmInfo
from repro.assoc.emulator import AssociativeEmulator
from repro.circuits.microops import CircuitModel
from repro.common.errors import ConfigError
from repro.common.units import PJ

#: The Table I subset, in the paper's row order.
TABLE_I_ROWS = (
    "vadd.vv",
    "vsub.vv",
    "vmul.vv",
    "vredsum.vs",
    "vand.vv",
    "vor.vv",
    "vxor.vv",
    "vmseq.vx",
    "vmseq.vv",
    "vmslt.vv",
    "vmerge.vv",
)


@dataclass(frozen=True)
class InstructionMetrics:
    """Per-instruction metrics in the shape of a Table I row.

    Attributes:
        mnemonic: instruction name.
        category: Table I grouping.
        tt_entries: truth-table entry count.
        search_rows: maximum active rows per subarray during a search.
        update_rows: maximum rows written per subarray during an update.
        reduction_cycles: reduction cycle count at the given width.
        paper_cycles: Table I closed-form total cycles.
        measured_cycles: cycles measured by the bit-level emulator.
        energy_per_lane_pj: measured per-lane energy in pJ.
        paper_energy_pj: Table I per-lane energy in pJ (n=32).
    """

    mnemonic: str
    category: str
    tt_entries: int
    search_rows: int
    update_rows: int
    reduction_cycles: int
    paper_cycles: int
    measured_cycles: int
    energy_per_lane_pj: float
    paper_energy_pj: float


#: Process-wide measurement memo: (mnemonic, width, circuit fingerprint)
#: -> InstructionMetrics. Measuring runs the reference emulator with a
#: fixed seed, so the result is a pure function of that key — every
#: fresh CAPESystem used to re-measure its instruction mix from scratch,
#: which dominated short bit-level runs.
_SHARED_MEASUREMENTS: Dict[tuple, "InstructionMetrics"] = {}
_SHARED_LOCK = threading.Lock()


class InstructionModel:
    """Latency/energy oracle for CAPE vector instructions.

    Args:
        circuit: circuit-level model supplying microop energies.
        width: element width in bits (32 at the published design point).
        accounting: ``"paper"`` to charge Table I closed forms (default),
            ``"measured"`` to charge emulator-measured counts.
    """

    def __init__(
        self,
        circuit: Optional[CircuitModel] = None,
        width: int = 32,
        accounting: str = "paper",
    ) -> None:
        if accounting not in ("paper", "measured"):
            raise ConfigError(f"unknown accounting {accounting!r}")
        self.circuit = circuit if circuit is not None else CircuitModel()
        self.width = width
        self.accounting = accounting
        self._measured_cache: Dict[Tuple[str, int], InstructionMetrics] = {}
        # CircuitModel is frozen but holds a dict of timings, so it is
        # not hashable itself; fingerprint the values that feed the
        # measurement instead.
        self._circuit_fingerprint = (
            self.circuit.frequency_derate,
            tuple(sorted(
                (op.value, t.delay_s, t.bs_energy_j, t.bp_energy_j)
                for op, t in self.circuit.timings.items()
            )),
        )

    def info(self, mnemonic: str) -> AlgorithmInfo:
        try:
            return ALGORITHMS[mnemonic]
        except KeyError:
            raise ConfigError(f"unknown instruction {mnemonic!r}") from None

    def cycles(self, mnemonic: str) -> int:
        """CSB-busy cycles charged to one execution of ``mnemonic``."""
        if self.accounting == "paper":
            return int(self.info(mnemonic).paper_cycles(self.width))
        return self.measure(mnemonic).measured_cycles

    def energy_per_lane_j(self, mnemonic: str) -> float:
        """Energy per vector lane in joules (measured mix x Table II)."""
        return self.measure(mnemonic).energy_per_lane_pj * PJ

    # ------------------------------------------------------------------

    def measure(self, mnemonic: str, width: Optional[int] = None) -> InstructionMetrics:
        """Emulate one instruction and derive its Table I row.

        Results are cached per ``(mnemonic, width)`` — the cache used to
        key on the bare mnemonic, so a model whose width changed (or a
        ``width=`` override) could be served a stale row measured at a
        different SEW. Measurements are also shared process-wide per
        circuit fingerprint (the emulation is seeded and pure), so fresh
        systems stop paying the reference-emulator walk per instance.
        """
        width = self.width if width is None else width
        key = (mnemonic, width)
        metrics = self._measured_cache.get(key)
        if metrics is not None:
            return metrics
        shared_key = (mnemonic, width, self._circuit_fingerprint)
        with _SHARED_LOCK:
            metrics = _SHARED_MEASUREMENTS.get(shared_key)
        if metrics is None:
            metrics = self._measure_uncached(mnemonic, width)
            with _SHARED_LOCK:
                metrics = _SHARED_MEASUREMENTS.setdefault(shared_key, metrics)
        self._measured_cache[key] = metrics
        return metrics

    def table_i(self) -> List[InstructionMetrics]:
        """All Table I rows, in the paper's order."""
        return [self.measure(m) for m in TABLE_I_ROWS]

    # ------------------------------------------------------------------

    def _measure_uncached(self, mnemonic: str, width: int) -> InstructionMetrics:
        info = self.info(mnemonic)
        emulator = AssociativeEmulator(num_subarrays=width, num_cols=32)
        rng = np.random.default_rng(seed=0xCA9E)
        lanes = emulator.chain.num_cols
        a = rng.integers(0, 1 << min(width, 31), size=lanes)
        b = rng.integers(0, 1 << min(width, 31), size=lanes)
        mask = rng.integers(0, 2, size=lanes)
        scalar = int(a[0])

        kwargs: Dict[str, object] = {"a": a, "width": width}
        if mnemonic.endswith(".vi"):
            kwargs["scalar"] = width // 2  # a representative shift amount
        elif mnemonic.endswith(".vx") or mnemonic == "vmv.v.x":
            kwargs["scalar"] = scalar
        elif mnemonic == "vmerge.vv":
            kwargs["b"] = b
            kwargs["mask"] = mask
        elif mnemonic not in ("vredsum.vs", "vmv.v.v"):
            kwargs["b"] = b
        run = emulator.run(mnemonic, **kwargs)

        chain_energy_j = run.stats.energy_per_chain(self.circuit)
        energy_per_lane_pj = chain_energy_j / lanes / PJ
        measured_cycles = run.stats.cycles()
        if mnemonic == "vredsum.vs":
            # The per-bit search and the pop-count/accumulate overlap in
            # the pipelined reduction logic (Figure 6), so the redsum
            # occupies the CSB for one cycle per bit ("~n" in Table I),
            # and its energy is the quoted echo-search + reduction-logic
            # totals (3.0 pJ + 8.9 pJ per chain at 32 bits), scaled by the
            # element width.
            from repro.circuits.microops import (
                Microop,
                REDSUM_LOGIC_ENERGY_J,
                REDSUM_SEARCH_ENERGY_J,
            )

            measured_cycles = run.stats.count(Microop.SEARCH)
            scale = width / 32
            chain_energy_j = scale * (
                REDSUM_SEARCH_ENERGY_J + REDSUM_LOGIC_ENERGY_J
            )
            energy_per_lane_pj = chain_energy_j / lanes / PJ
        return InstructionMetrics(
            mnemonic=mnemonic,
            category=info.category,
            tt_entries=info.tt_entries,
            search_rows=info.search_rows,
            update_rows=info.update_rows,
            reduction_cycles=int(info.reduction_cycles(width)),
            paper_cycles=int(info.paper_cycles(width)),
            measured_cycles=measured_cycles,
            energy_per_lane_pj=energy_per_lane_pj,
            paper_energy_pj=info.paper_energy_pj,
        )
