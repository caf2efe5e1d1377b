"""Microoperation-level delay and energy model (paper Table II).

CAPE's compute-storage block executes exactly four microoperations — read,
write, search, update — plus the reduction step. The paper characterises
each on a single chain (32 subarrays of 32x36 push-rule 6T bitcells, split
wordlines, ASAP 7 nm): delay in picoseconds and dynamic energy in picojoules
for the bit-serial (BS) and bit-parallel (BP) flavours.

The system clock derives from the slowest microoperation (read, 237 ps →
4.22 GHz) conservatively derated to 65% → 2.7 GHz (Section VI-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.common.errors import ConfigError
from repro.common.units import PJ, PS


class Microop(enum.Enum):
    """The CSB microoperations characterised in Table II."""

    READ = "read"
    WRITE = "write"
    SEARCH = "search"
    UPDATE = "update"          # update without carry propagation
    UPDATE_PROP = "update_prop"  # update with propagation to the next subarray
    REDUCE = "reduce"


@dataclass(frozen=True)
class MicroopTiming:
    """Delay and per-chain dynamic energy of one microoperation.

    Attributes:
        delay_s: latency of the microoperation in seconds.
        bs_energy_j: dynamic energy of the bit-serial flavour (one bit of
            every element in a chain), or ``None`` if the microop has no
            bit-serial form (read/write/reduce).
        bp_energy_j: dynamic energy of the bit-parallel flavour, or ``None``
            if it has no bit-parallel form (update with propagation).
    """

    delay_s: float
    bs_energy_j: Optional[float]
    bp_energy_j: Optional[float]

    def __post_init__(self) -> None:
        if self.delay_s <= 0:
            raise ConfigError(f"microop delay must be positive, got {self.delay_s}")


#: Published Table II values: delay (ps), bit-serial energy (pJ),
#: bit-parallel energy (pJ), for one chain.
TABLE_II_TIMINGS: Dict[Microop, MicroopTiming] = {
    Microop.READ: MicroopTiming(237 * PS, None, 2.8 * PJ),
    Microop.WRITE: MicroopTiming(181 * PS, None, 2.4 * PJ),
    Microop.SEARCH: MicroopTiming(227 * PS, 1.0 * PJ, 5.7 * PJ),
    Microop.UPDATE: MicroopTiming(209 * PS, 1.2 * PJ, 3.8 * PJ),
    Microop.UPDATE_PROP: MicroopTiming(209 * PS, 1.2 * PJ, None),
    # Bit-parallel: the full per-chain reduction logic (pop count, shift,
    # accumulate) — 8.9 pJ per Table II / Section VI-B. Bit-serial: the
    # per-slice tag combine used by equality compares (an AND latch per
    # column), estimated at 0.2 pJ so that the measured vmseq energies
    # land on Table I's 0.4-0.5 pJ/lane.
    Microop.REDUCE: MicroopTiming(217 * PS, 0.2 * PJ, 8.9 * PJ),
}

#: Energy of the whole redsum echo-search sequence on one chain (the
#: single-row, all-subarray search of Figure 6), quoted in Section VI-B as
#: 3.0 pJ for a 32-bit reduction.
REDSUM_SEARCH_ENERGY_J = 3.0 * PJ

#: Energy of the whole per-chain reduction-logic sequence for a 32-bit
#: redsum (Section VI-B).
REDSUM_LOGIC_ENERGY_J = 8.9 * PJ

#: Fraction of the raw circuit frequency retained after clock skew and
#: uncertainty margins (Section VI-B: 4.22 GHz -> 2.7 GHz).
DEFAULT_FREQUENCY_DERATE = 0.65

#: SRAM array access time quoted in Section VI-A.
ARRAY_ACCESS_DELAY_S = 90 * PS

#: Local command distribution delay of control signals within one chain.
LOCAL_COMMAND_DELAY_S = 55 * PS

#: Command-bus width distributed by a chain controller to its subarrays,
#: for a 32-bit configuration (Section V-D).
CHAIN_COMMAND_BITS = 143

#: Bits of local command distribution included in the chain energy numbers
#: (Section VI-A quotes 184 bits including handshake/select lines).
LOCAL_COMMAND_DISTRIBUTION_BITS = 184


@dataclass(frozen=True)
class CircuitModel:
    """Circuit-level parameters of one CAPE chain and the derived clock.

    The defaults reproduce the published design point. All quantities are
    SI (seconds, joules, hertz).
    """

    timings: Mapping[Microop, MicroopTiming] = field(
        default_factory=lambda: dict(TABLE_II_TIMINGS)
    )
    frequency_derate: float = DEFAULT_FREQUENCY_DERATE

    def __post_init__(self) -> None:
        missing = [op for op in Microop if op not in self.timings]
        if missing:
            raise ConfigError(f"timings missing for microops: {missing}")
        if not 0 < self.frequency_derate <= 1:
            raise ConfigError(
                f"frequency derate must be in (0, 1], got {self.frequency_derate}"
            )

    @property
    def critical_path_s(self) -> float:
        """The slowest microoperation delay — sets the raw cycle time."""
        return max(t.delay_s for t in self.timings.values())

    @property
    def max_frequency_hz(self) -> float:
        """Raw frequency before derating (4.22 GHz at the default point)."""
        return 1.0 / self.critical_path_s

    @property
    def frequency_hz(self) -> float:
        """Operating frequency after the conservative derate (2.7 GHz)."""
        return self.max_frequency_hz * self.frequency_derate

    def delay(self, op: Microop) -> float:
        """Delay of ``op`` in seconds."""
        return self.timings[op].delay_s

    def energy(self, op: Microop, bit_parallel: bool = False) -> float:
        """Per-chain dynamic energy of ``op`` in joules.

        Args:
            op: the microoperation.
            bit_parallel: select the bit-parallel flavour; default is the
                bit-serial flavour where one exists, else bit-parallel.

        Raises:
            ConfigError: if the requested flavour does not exist for ``op``.
        """
        timing = self.timings[op]
        if bit_parallel:
            if timing.bp_energy_j is None:
                raise ConfigError(f"{op.value} has no bit-parallel flavour")
            return timing.bp_energy_j
        if timing.bs_energy_j is not None:
            return timing.bs_energy_j
        if timing.bp_energy_j is None:
            raise ConfigError(f"{op.value} has no energy model")
        return timing.bp_energy_j
