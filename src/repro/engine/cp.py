"""Control Processor issue model (Sections III, V-B).

The CP is a small dual-issue in-order RISC-V core. Vector instructions
are offloaded at commit to the VCU/VMU and the CP tracks one outstanding
vector instruction: in its shadow, independent scalar instructions may
issue and execute (but not commit), while a subsequent *vector*
instruction stalls at issue until the outstanding one commits.

This module accounts that overlap: scalar work submitted while a vector
instruction is outstanding hides under it (up to its duration); vector
instructions serialise against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baseline.inorder import InOrderConfig, InOrderCore, control_processor_hierarchy
from repro.baseline.trace import TraceBlock
from repro.common.errors import ConfigError


@dataclass
class CPStats:
    """Cycle breakdown of the control processor."""

    scalar_cycles: float = 0.0
    hidden_scalar_cycles: float = 0.0
    vector_cycles: float = 0.0


class ControlProcessor:
    """The in-order scalar core with vector-shadow accounting."""

    def __init__(self, config: Optional[InOrderConfig] = None) -> None:
        self.core = InOrderCore(
            config if config is not None else InOrderConfig(),
            control_processor_hierarchy(),
        )
        self.stats = CPStats()
        self._shadow_budget = 0.0  # cycles of the outstanding vector op

    @property
    def frequency_hz(self) -> float:
        return self.core.config.frequency_hz

    def vector_issue(self, cycles: float) -> float:
        """Account one vector instruction of ``cycles`` duration.

        Returns the cycles actually added to the timeline. A subsequent
        vector instruction stalls until this one commits, so vector time
        accumulates fully; the instruction's duration then becomes shadow
        budget for later scalar work.
        """
        if cycles < 0:
            raise ConfigError("vector cycles must be non-negative")
        self.stats.vector_cycles += cycles
        self._shadow_budget = cycles
        return cycles

    def scalar_block(self, block: TraceBlock) -> float:
        """Account a block of scalar work on the CP.

        Returns the *exposed* cycles added to the timeline after hiding
        what fits in the current vector shadow.
        """
        cycles = self.core.block_cycles(block)
        self.stats.scalar_cycles += cycles
        hidden = min(cycles, self._shadow_budget)
        self._shadow_budget -= hidden
        self.stats.hidden_scalar_cycles += hidden
        return cycles - hidden

    def scalar_ops(
        self,
        int_ops: int = 0,
        branches: int = 0,
        loads=None,
        stores=None,
        branch_miss_rate: float = 0.0,
        dependent_loads: int = 0,
        name: str = "scalar",
    ) -> float:
        """Convenience wrapper building a block from raw counts."""
        import numpy as np

        block = TraceBlock(
            name=name,
            int_ops=int_ops,
            branches=branches,
            branch_miss_rate=branch_miss_rate,
            loads=np.asarray(loads if loads is not None else [], dtype=np.int64),
            stores=np.asarray(stores if stores is not None else [], dtype=np.int64),
            dependent_loads=dependent_loads,
        )
        return self.scalar_block(block)
