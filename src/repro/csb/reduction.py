"""Global reduction tree across chains (Sections IV-E and VI-C).

Each chain reduces its own 32 tag bits with a local pop-count; the global
tree then sums the per-chain partial counts. The synthesized design for
1,024 chains is pipelined into 5 stages with a 217 ps critical path; the
paper models other CSB capacities by replicating or removing pipeline
stages. Each stage merges four inputs (a radix-4 adder level), which is
what makes ceil(log4(1024)) = 5 stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigError

#: Fan-in of one pipeline stage of the synthesized tree.
STAGE_RADIX = 4


@dataclass(frozen=True)
class ReductionTree:
    """Timing/behaviour model of the pipelined global reduction tree.

    Attributes:
        num_chains: number of chain partial sums feeding the tree.
    """

    num_chains: int = 1024

    def __post_init__(self) -> None:
        if self.num_chains <= 0:
            raise ConfigError(f"num_chains must be positive, got {self.num_chains}")

    @cached_property
    def num_stages(self) -> int:
        """Pipeline depth: one radix-4 level per stage (5 at 1,024 chains)."""
        if self.num_chains == 1:
            return 1
        return max(1, math.ceil(math.log(self.num_chains, STAGE_RADIX)))

    def latency_cycles(self, bits: int) -> int:
        """Cycles to reduce a ``bits``-wide vector across all chains.

        The per-bit pop-count/shift/accumulate steps stream through the
        pipelined tree: ``bits`` issue cycles plus the pipeline fill.
        """
        if bits <= 0:
            raise ConfigError(f"bits must be positive, got {bits}")
        return bits + self.num_stages

    def reduce(self, partials: Sequence[int]) -> int:
        """Functionally sum the per-chain partial values.

        Walks the tree stage by stage (radix-4 groups) so tests can check
        that the staged structure computes the same result as a flat sum.
        ``partials`` may be any int sequence or array; they are converted
        to Python ints once, in C.
        """
        values = np.asarray(partials, dtype=np.int64).tolist()
        if len(values) != self.num_chains:
            raise ConfigError(
                f"expected {self.num_chains} partials, got {len(values)}"
            )
        while len(values) > 1:
            values = [
                sum(values[i : i + STAGE_RADIX])
                for i in range(0, len(values), STAGE_RADIX)
            ]
        return values[0] if values else 0
