"""Out-of-order core interval timing model (Table III baseline).

An interval (bounds-based) model in the spirit of Karkhanis & Smith: for
each trace block the cycle count is the maximum of

* the front-end/issue bound (total uops / issue width),
* per-class functional-unit bounds (IntAdd/IntMul/FP/Mem units),
* the memory bound: every address is simulated through the cache
  hierarchy; latency beyond the (pipelined) L1 hit overlaps up to the
  core's memory-level parallelism, except for ``dependent_loads`` whose
  latency serialises,

plus branch-misprediction stalls. The defaults reproduce the paper's
baseline: 8-issue, 224-entry ROB, 72 LQ / 56 SQ, 4/4/4/3/1 units,
tournament predictor, 3.6 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baseline.trace import Trace, TraceBlock
from repro.common.errors import ConfigError
from repro.memory.hierarchy import AccessType, CacheHierarchy


@dataclass(frozen=True)
class OoOConfig:
    """Out-of-order core parameters (defaults: Table III baseline)."""

    issue_width: int = 8
    rob_entries: int = 224
    load_queue: int = 72
    store_queue: int = 56
    int_units: int = 4
    mul_units: int = 4
    fp_units: int = 4
    mem_units: int = 3
    branch_units: int = 1
    mul_latency: int = 3
    fp_latency: int = 4
    branch_penalty: int = 14
    frequency_hz: float = 3.6e9
    #: Sustainable overlapped misses (MSHR-bound MLP); bounded by LQ but
    #: in practice limited by the miss-handling resources.
    max_mlp: float = 10.0

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ConfigError("issue width must be positive")


@dataclass
class RunResult:
    """Timing outcome of running a trace on a core model."""

    name: str
    cycles: float
    seconds: float
    instructions: int
    frequency_hz: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OoOCore:
    """Interval-analysis OoO core bound to a cache hierarchy."""

    def __init__(
        self,
        config: OoOConfig = OoOConfig(),
        hierarchy: Optional[CacheHierarchy] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy if hierarchy is not None else CacheHierarchy()

    def run(self, trace: Trace) -> RunResult:
        """Execute a whole trace; returns cycles/seconds/IPC."""
        total = 0.0
        for block in trace.blocks:
            total += self.block_cycles(block)
        total *= trace.repeat
        return RunResult(
            name=trace.name,
            cycles=total,
            seconds=total / self.config.frequency_hz,
            instructions=trace.total_ops * trace.repeat,
            frequency_hz=self.config.frequency_hz,
        )

    # ------------------------------------------------------------------

    def block_cycles(self, block: TraceBlock) -> float:
        """Interval-model cycles for one block."""
        cfg = self.config
        issue_bound = block.total_ops / cfg.issue_width
        unit_bounds = (
            block.int_ops / cfg.int_units,
            block.mul_ops * cfg.mul_latency / cfg.mul_units,
            block.fp_ops * cfg.fp_latency / cfg.fp_units,
            (len(block.loads) + len(block.stores)) / cfg.mem_units,
            block.branches / cfg.branch_units,
        )
        mem_bound = self._memory_cycles(block)
        branch_stall = block.branches * block.branch_miss_rate * cfg.branch_penalty
        return max(issue_bound, *unit_bounds, mem_bound) + branch_stall

    def _memory_cycles(self, block: TraceBlock) -> float:
        """Memory-bound cycles: simulate addresses, overlap miss latency.

        L1-hit latency is hidden by the pipeline. The portion of each
        access's latency beyond the L1 overlaps with other misses up to
        ``max_mlp``, except the block's ``dependent_loads`` whose full
        latency is serial (pointer chasing, serialized post-processing).
        """
        hierarchy = self.hierarchy
        l1_hit = hierarchy.config.l1_latency
        beyond_l1 = 0.0
        dep_budget = block.dependent_loads
        serial = 0.0
        for addr in block.loads.tolist():
            lat = hierarchy.access(addr, AccessType.LOAD)
            extra = max(0, lat - l1_hit)
            if dep_budget > 0 and extra > 0:
                serial += lat
                dep_budget -= 1
            else:
                beyond_l1 += extra
        for addr in block.stores.tolist():
            lat = hierarchy.access(addr, AccessType.STORE)
            # Stores retire through the store queue; only their
            # beyond-L1 latency consumes miss bandwidth.
            beyond_l1 += max(0, lat - l1_hit)
        return beyond_l1 / self.config.max_mlp + serial
