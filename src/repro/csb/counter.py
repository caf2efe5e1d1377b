"""Microoperation statistics recorder.

Every CSB microoperation performed by the bit-level simulator is recorded
here. The instruction model (paper Section VI-B) combines these counts with
the circuit-level delay/energy tables to derive per-instruction cycle and
energy figures — this is how the reproduction *measures* Table I rather
than hard-coding it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.circuits.microops import CircuitModel, Microop


@dataclass
class MicroopStats:
    """Counts of executed microoperations, split by flavour.

    Keys are ``(microop, bit_parallel)`` pairs; a bit-serial search on one
    subarray and a bit-parallel search across all subarrays of a chain are
    tallied separately because their energies differ (Table II).

    A CSB's one ganged chain records each microoperation once for every
    chain that executes it, so the tally is the VCU's broadcast count.

    With ``keep_trace=True`` the full microop sequence is also recorded —
    the microcode listing used for documentation and debugging.
    """

    counts: Counter = field(default_factory=Counter)
    keep_trace: bool = False
    trace: List[Tuple[Microop, bool]] = field(default_factory=list)
    observer: Optional[object] = field(default=None, repr=False, compare=False)
    _obs_labels: Dict[str, object] = field(
        default_factory=dict, repr=False, compare=False
    )
    _obs_counters: Dict[Tuple[Microop, bool], object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def attach_observer(self, observer, **labels: object) -> None:
        """Mirror future records into ``observer``'s ``csb.microops`` family.

        Disabled (null) observers are dropped so :meth:`record` stays a
        single ``is None`` check on the hot path. Labels (``backend``,
        ``device``, ...) are stamped onto every published series.
        """
        live = observer is not None and observer.enabled
        self.observer = observer if live else None
        self._obs_labels = dict(labels)
        self._obs_counters.clear()

    def record(self, op: Microop, bit_parallel: bool = False, n: int = 1) -> None:
        """Record ``n`` executions of ``op`` in the given flavour."""
        self.counts[(op, bit_parallel)] += n
        obs = self.observer
        if obs is not None:
            handle = self._obs_counters.get((op, bit_parallel))
            if handle is None:
                handle = obs.counter(
                    "csb.microops",
                    op=op.value,
                    flavor="bp" if bit_parallel else "bs",
                    **self._obs_labels,
                )
                self._obs_counters[(op, bit_parallel)] = handle
            handle.inc(n)
        if self.keep_trace:
            self.trace.extend([(op, bit_parallel)] * n)

    def count(self, op: Microop, bit_parallel: bool = None) -> int:
        """Total executions of ``op``; filter by flavour if given."""
        if bit_parallel is None:
            return sum(v for (o, _), v in self.counts.items() if o is op)
        return self.counts[(op, bit_parallel)]

    @property
    def total_microops(self) -> int:
        """Total microoperations of any kind."""
        return sum(self.counts.values())

    def cycles(self) -> int:
        """Cycle count: one microoperation per CSB cycle.

        The CSB clock is set by the slowest microoperation, so each microop
        occupies exactly one cycle regardless of kind (Section VI-B).
        """
        return self.total_microops

    def energy_per_chain(self, circuit: CircuitModel) -> float:
        """Dynamic energy in joules consumed by one chain, per Table II."""
        total = 0.0
        for (op, bit_parallel), n in self.counts.items():
            total += n * circuit.energy(op, bit_parallel=bit_parallel)
        return total

    def snapshot(self) -> Mapping[Tuple[Microop, bool], int]:
        """An immutable copy of the raw counters, for reporting."""
        return dict(self.counts)

    def clear(self) -> None:
        """Reset all counters to zero."""
        self.counts.clear()
        self.trace.clear()


def trace_microcode(mnemonic: str, width: int = 8, lanes: int = 8) -> List[str]:
    """Return the human-readable microoperation listing of an instruction.

    Runs the instruction's microcode on a traced chain and renders one
    line per microoperation (the debugging/teaching view of the Table I
    walks; cf. docs/MICROCODE.md).
    """
    import numpy as np

    from repro.assoc.emulator import AssociativeEmulator

    emulator = AssociativeEmulator(num_subarrays=width, num_cols=lanes)
    emulator.chain.stats.keep_trace = True
    rng = np.random.default_rng(1)
    a = rng.integers(0, 1 << width, size=lanes)
    b = rng.integers(0, 1 << width, size=lanes)
    kwargs: Dict[str, object] = {"a": a, "width": width}
    if mnemonic.endswith(".vx"):
        kwargs["scalar"] = int(a[0])
    elif mnemonic.endswith(".vi"):
        kwargs["scalar"] = width // 2
    elif mnemonic == "vmv.v.x":
        kwargs["scalar"] = 7
    elif mnemonic == "vmerge.vv":
        kwargs["b"] = b
        kwargs["mask"] = rng.integers(0, 2, size=lanes)
    elif mnemonic not in ("vredsum.vs", "vmv.v.v"):
        kwargs["b"] = b
    emulator.run(mnemonic, **kwargs)
    return [
        f"{i:4d}: {'BP' if bp else 'BS'} {op.value}"
        for i, (op, bp) in enumerate(emulator.chain.stats.trace)
    ]
