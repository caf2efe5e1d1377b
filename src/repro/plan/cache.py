"""Process-wide LRU cache of compiled microcode plans.

Plans are pure functions of their key — (mnemonic, SEW, operand roles,
mask form, subarray count) for intrinsics, (table, decoder binding,
width, walk order) for raw FSM walks — and capture no chain or device
state, so the cache never needs invalidation. One :data:`GLOBAL_PLAN_CACHE`
is shared across every ``BitEngine``/``CAPESystem``/``DevicePool`` in the
process: the second device to dispatch ``vadd.vv`` at SEW=32 reuses the
plan the first one compiled.

The cache is thread-safe, so systems driven from different threads may
share it. Compilation happens *outside* the lock — recording a microcode
walk can take microseconds and must not serialise unrelated lookups —
with a first-wins re-check on insert so concurrent compilers of the same
key converge on one plan object.

A cache of capacity 0 keeps nothing: every lookup compiles. That is what
``plan_cache=False`` means everywhere — plans are still what reaches a
chain, they are just not kept.

Plans are no longer per-instruction-dispatch only: because a lowered
plan is width-agnostic (its kernels read the column count from the
backend they run over), gang execution (:mod:`repro.gang`) replays the
*same* cached plan once across the stacked column blocks of N devices —
the plan-key stream is what the gang runner groups jobs by, and the
eligibility rules (bit-plane backend, no live CSB faults, no microop
trace) are documented in ``docs/GANG.md``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

from repro.common.errors import ConfigError
from repro.plan.plan import CompiledPlan

#: Default maximum number of cached plans. A plan is a few KiB of step
#: tuples and lookup tables; 1024 of them is megabytes, far beyond any
#: realistic (mnemonic × SEW × roles) working set.
DEFAULT_CAPACITY = 1024


class PlanCache:
    """A bounded, thread-safe, never-invalidated LRU of compiled plans
    (``capacity=0`` keeps nothing)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ConfigError("plan cache capacity must be >= 0")
        self.capacity = capacity
        self._plans: "OrderedDict[object, CompiledPlan]" = OrderedDict()
        self._lock = threading.RLock()
        #: Per thread: wall time of the compiles nested in the running
        #: builder (a superplan's builder compiles its members here).
        self._nested = threading.local()
        self.hits = 0
        self.misses = 0
        self.compile_ns = 0

    def get_or_compile(
        self,
        key,
        builder: Callable[[], CompiledPlan],
        observer=None,
    ) -> CompiledPlan:
        """Return the plan for ``key``, compiling via ``builder`` on miss.

        ``builder`` runs outside the lock; if two threads race on the
        same key the first insert wins and the loser's plan is dropped
        (plans for one key are interchangeable by construction). A miss
        adds the builder's own time to ``compile_ns``: compiles nested
        in it count on their own miss, not twice.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                if observer is not None and observer.enabled:
                    observer.counter("plan.cache.hit").inc()
                return plan
        plan, elapsed_ns = self._timed_build(builder)
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                if observer is not None and observer.enabled:
                    observer.counter("plan.cache.hit").inc()
                return existing
            self.misses += 1
            self.compile_ns += elapsed_ns
            self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
        if observer is not None and observer.enabled:
            observer.counter("plan.cache.miss").inc()
            observer.histogram("plan.cache.compile_ns").observe(elapsed_ns)
        return plan

    def _timed_build(self, builder):
        """Run ``builder``; return its plan and its own time in ns (its
        wall time minus that of the compiles nested inside it)."""
        nested = self._nested
        outer = getattr(nested, "ns", None)
        nested.ns = 0
        start = time.perf_counter_ns()
        try:
            plan = builder()
        finally:
            elapsed_ns = time.perf_counter_ns() - start
            inner_ns = nested.ns
            nested.ns = None if outer is None else outer + elapsed_ns
        return plan, elapsed_ns - inner_ns

    def snapshot(self) -> dict:
        """The one plan-cache stats surface (picklable, cheap).

        Keys: ``entries`` / ``superplans`` (cached whole-kernel fusions
        among them), ``hits`` / ``misses`` (lookups), ``compiles`` and
        ``compile_ns`` (actual builds and their wall time, each build's
        own time counted once).
        Serving workers ship this with every reply so the gateway can
        aggregate per-process cache behaviour without sharing memory;
        benchmarks and ``repro.api`` re-export it instead of reading
        cache internals.
        """
        from repro.plan.superplan import Superplan

        with self._lock:
            return {
                "entries": len(self._plans),
                "superplans": sum(
                    1 for p in self._plans.values()
                    if isinstance(p, Superplan)
                ),
                "hits": self.hits,
                "misses": self.misses,
                "compiles": self.misses,
                "compile_ns": self.compile_ns,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._plans

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.compile_ns = 0

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self)}/{self.capacity} plans, "
            f"{self.hits} hits, {self.misses} misses)"
        )


#: The shared process-wide cache (``plan_cache=True`` everywhere).
GLOBAL_PLAN_CACHE = PlanCache()


def resolve_plan_cache(plan_cache) -> PlanCache:
    """Normalise the ``plan_cache=`` knob every layer accepts.

    ``True`` → the process-wide :data:`GLOBAL_PLAN_CACHE`; ``False`` or
    ``None`` → a fresh cache that keeps nothing (every dispatch compiles
    its plan afresh); a :class:`PlanCache` instance → that instance.
    """
    if plan_cache is True:
        return GLOBAL_PLAN_CACHE
    if plan_cache is None or plan_cache is False:
        return PlanCache(capacity=0)
    if isinstance(plan_cache, PlanCache):
        return plan_cache
    raise ConfigError(
        f"plan_cache must be True, False, None, or a PlanCache, "
        f"got {plan_cache!r}"
    )
