"""repro.plan — compiled microcode plans and the cross-device plan cache.

The VCU is a vertical-microcode machine: a given (mnemonic, SEW,
operand-roles, mask-form) always decodes to the same search/update
command stream. This package records that stream once
(:class:`RecordingChain`), freezes it into an immutable
:class:`CompiledPlan` with steps pre-lowered to fused bit-plane kernels,
and shares plans process-wide through :class:`PlanCache`. A plan is the
only way microcode reaches a chain; the cache lets repeat dispatches
skip recording, while charging identical cycles and publishing
identical ``csb.microops``.

See ``docs/PERFORMANCE.md`` for the design, keying rules, and the
equivalence contract.
"""

from repro.plan.cache import (
    GLOBAL_PLAN_CACHE,
    PlanCache,
    resolve_plan_cache,
)
from repro.plan.plan import CompiledPlan, compile_chain_program
from repro.plan.recorder import RecordingChain, Token
from repro.plan.superplan import Superplan, fuse_plans, superplan_key

__all__ = [
    "GLOBAL_PLAN_CACHE",
    "CompiledPlan",
    "PlanCache",
    "RecordingChain",
    "Superplan",
    "Token",
    "compile_chain_program",
    "fuse_plans",
    "resolve_plan_cache",
    "superplan_key",
]
