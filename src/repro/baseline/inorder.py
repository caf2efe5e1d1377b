"""In-order core timing model (CAPE's control processor, Table III).

A dual-issue five-stage pipeline (gem5 MinorCPU-like): no memory-level
parallelism to speak of — every load miss stalls the pipe — and a small
load/store queue. Used both for CAPE's scalar code and as the scalar
reference of the SIMD study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baseline.ooo import RunResult
from repro.baseline.trace import Trace, TraceBlock
from repro.common.errors import ConfigError
from repro.memory.hierarchy import AccessType, CacheHierarchy, HierarchyConfig


@dataclass(frozen=True)
class InOrderConfig:
    """In-order core parameters (defaults: CAPE's control processor)."""

    issue_width: int = 2
    lsq_entries: int = 5
    int_units: int = 4
    mul_units: int = 1
    fp_units: int = 1
    mem_units: int = 1
    branch_units: int = 1
    mul_latency: int = 3
    fp_latency: int = 4
    branch_penalty: int = 8
    frequency_hz: float = 2.7e9
    #: Small overlap from the LSQ's few entries.
    max_mlp: float = 2.0

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ConfigError("issue width must be positive")


def control_processor_hierarchy() -> CacheHierarchy:
    """The CP's cache stack: L1s + 1 MB L2 with 512 B lines, no L3."""
    return CacheHierarchy(
        HierarchyConfig(l3_size=0, l2_line=512, frequency_hz=2.7e9)
    )


class InOrderCore:
    """Dual-issue in-order core bound to a cache hierarchy."""

    def __init__(
        self,
        config: InOrderConfig = InOrderConfig(),
        hierarchy: Optional[CacheHierarchy] = None,
    ) -> None:
        self.config = config
        self.hierarchy = (
            hierarchy if hierarchy is not None else control_processor_hierarchy()
        )

    def run(self, trace: Trace) -> RunResult:
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

    def block_cycles(self, block: TraceBlock) -> float:
        cfg = self.config
        issue_bound = block.total_ops / cfg.issue_width
        unit_bounds = (
            block.int_ops / cfg.int_units,
            block.mul_ops * cfg.mul_latency / cfg.mul_units,
            block.fp_ops * cfg.fp_latency / cfg.fp_units,
            (len(block.loads) + len(block.stores)) / cfg.mem_units,
            block.branches / cfg.branch_units,
        )
        mem_stall = self._memory_cycles(block)
        branch_stall = block.branches * block.branch_miss_rate * cfg.branch_penalty
        # In-order: memory stalls add to (rather than hide behind) the
        # compute bound, because the pipeline blocks at the first use.
        return max(issue_bound, *unit_bounds) + mem_stall + branch_stall

    def _memory_cycles(self, block: TraceBlock) -> float:
        hierarchy = self.hierarchy
        l1_hit = hierarchy.config.l1_latency
        stall = 0.0
        for addr in block.loads.tolist():
            lat = hierarchy.access(addr, AccessType.LOAD)
            stall += max(0, lat - l1_hit)
        for addr in block.stores.tolist():
            lat = hierarchy.access(addr, AccessType.STORE)
            stall += max(0, lat - l1_hit) / self.config.max_mlp
        return stall / self.config.max_mlp
