"""Differential tests, cache axis: a kept plan vs one compiled afresh.

With the plan cache keeping nothing, every dispatch records the
microcode FSM walk again and replays it. A kept plan must replay
bit-identically on both backends, with superplans on or off, under an
active fault plan (faulty backends replay plans step by step, so the
divergence ladder is preserved) and for truth-table execution. The
harness is ``tests/plan/differential.py``; the oracle a single plan is
held to — the same microcode driven live on a chain — is
``tests/plan/test_chain_oracle.py``.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.csb.chain import Chain, MetaRow
from repro.engine.bitexec import op_key
from repro.engine.system import CAPEConfig, CAPESystem
from repro.engine.vcu import (
    TRUTH_TABLES,
    TTDecoder,
    _apply_table,
    _fold_reduce,
    execute_table,
)
from repro.obs import Observer
from repro.plan import (
    GLOBAL_PLAN_CACHE,
    PlanCache,
    resolve_plan_cache,
    superplan_key,
)
from repro.plan import cache as cache_module

from .differential import (
    BACKENDS,
    PROGRAMS,
    WORDS,
    fault_program,
    operands,
    run_modes,
)


@settings(max_examples=10, deadline=None)
@given(
    WORDS, WORDS, PROGRAMS,
    st.sampled_from(BACKENDS), st.booleans(),
)
def test_plan_replay_is_bit_identical_to_fsm_walk(a, b, ops, backend,
                                                  superplan):
    a, b, mask = operands(a, b)
    run_modes(
        backend, (("nothing", superplan), ("kept", superplan)),
        a, b, mask, ops,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_plan_replay_identical_under_active_faults(backend):
    """Faulty backends replay plans step by step: the injected
    divergence (stuck bits, tag flips) lands identically whether the
    plan is kept or compiled afresh at each dispatch."""
    run_modes(
        backend, (("nothing", False), ("kept", False)), *fault_program(),
        faults=True,
    )


# ---------------------------------------------------------------------
# Truth-table (execute_table) plans
# ---------------------------------------------------------------------

VD, VS1, VS2 = 3, 1, 2
CARRY = int(MetaRow.CARRY)


def _table_chain(rng, width=8, cols=16):
    chain = Chain(num_subarrays=width, num_cols=cols)
    chain.poke_register(VS1, rng.integers(0, 1 << width, size=cols))
    chain.poke_register(VS2, rng.integers(0, 1 << width, size=cols))
    return chain


@pytest.mark.parametrize("name,preamble,msb_first", [
    ("vadd.vv", ((VD, 0), (CARRY, 0)), False),
    ("vredsum.vs", (), True),
])
def test_execute_table_plan_matches_walk(rng, name, preamble, msb_first):
    """The FSM walked live on the chain, a plan compiled and kept
    nowhere, and a cached plan (missed, then hit) all agree."""
    decoder = TTDecoder(vd=VD, vs1=VS1, vs2=VS2)
    cache = PlanCache()
    results = {}
    for mode in ("walk", "uncached", "plan", "plan-again"):
        chain = _table_chain(np.random.default_rng(17))
        before = chain.stats.counts.copy()
        if mode == "walk":
            used_reduce, values = _apply_table(
                chain, TRUTH_TABLES[name], decoder, 8, msb_first, preamble
            )
            out = _fold_reduce(values) if used_reduce else None
        else:
            out = execute_table(
                chain, TRUTH_TABLES[name], decoder, width=8,
                msb_first=msb_first, preamble=preamble,
                plan_cache=False if mode == "uncached" else cache,
            )
        results[mode] = (
            out,
            chain.peek_register(VD).tolist(),
            {k: v - before.get(k, 0) for k, v in chain.stats.counts.items()},
        )
    assert (
        results["walk"] == results["uncached"] == results["plan"]
        == results["plan-again"]
    )
    assert cache.hits == 1 and cache.misses == 1


# ---------------------------------------------------------------------
# PlanCache unit behaviour
# ---------------------------------------------------------------------


def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    built = []

    def builder(tag):
        def build():
            built.append(tag)
            return tag
        return build

    assert cache.get_or_compile("a", builder("A")) == "A"
    assert cache.get_or_compile("b", builder("B")) == "B"
    assert cache.get_or_compile("a", builder("A2")) == "A"  # hit; refreshes a
    assert cache.get_or_compile("c", builder("C")) == "C"  # evicts b
    assert "b" not in cache and "a" in cache and "c" in cache
    assert len(cache) == 2
    assert cache.get_or_compile("b", builder("B2")) == "B2"  # rebuilt
    assert built == ["A", "B", "C", "B2"]
    assert cache.hits == 1 and cache.misses == 4


def test_plan_cache_publishes_hit_miss_metrics():
    cache = PlanCache()
    obs = Observer()
    cache.get_or_compile("k", lambda: "v", observer=obs)
    cache.get_or_compile("k", lambda: "v", observer=obs)
    assert obs.metrics.total("plan.cache.miss") == 1
    assert obs.metrics.total("plan.cache.hit") == 1
    series = obs.metrics.series("plan.cache.compile_ns")
    assert series and series[0][1].count == 1


def test_nested_compiles_are_timed_once(monkeypatch):
    """A superplan's builder compiles its member plans through the
    cache: each compile's own time is counted once, in ``compile_ns``
    and in the ``plan.cache.compile_ns`` histogram alike."""
    clock = itertools.count(0, 1000)  # every clock read advances 1 µs
    monkeypatch.setattr(
        cache_module, "time",
        SimpleNamespace(perf_counter_ns=lambda: next(clock)),
    )
    cache = PlanCache()
    obs = Observer()

    def fuse():
        # Two member misses (2 clock reads, 1 µs each), then a hit.
        for key in ("op-a", "op-b", "op-a"):
            cache.get_or_compile(key, lambda: key, observer=obs)
        return "superplan"

    assert cache.get_or_compile("sp", fuse, observer=obs) == "superplan"
    # The outer build spans 5 µs: 2 of them are its members' compiles.
    assert cache.snapshot()["compile_ns"] == 1000 + 1000 + 3000
    series = obs.metrics.series("plan.cache.compile_ns")
    histogram = series[0][1]
    assert histogram.count == 3 and histogram.total == 5000
    assert cache.misses == 3 and cache.hits == 1


def test_op_key_hashes_and_compares_as_its_tuple():
    """Plan-cache contents, trace signatures and superplan keys hold op
    keys: an :class:`OpKey` must be the plain tuple it always was."""
    key = op_key("vadd.vx", 16, 32, 3, 1, None, np.int64(7), 6)
    plain = ("op", "vadd.vx", 16, 32, 3, 1, None, 7, 6, True)
    assert key == plain and hash(key) == hash(plain)
    assert type(key.scalar) is int
    assert superplan_key(32, 16, [key]) == superplan_key(32, 16, [plain])


def test_plans_shared_across_device_widths():
    """The plan key excludes the column count: devices with different
    chain counts (hence different fused widths) share compiled plans."""
    cache = PlanCache()

    def drive(num_chains):
        system = CAPESystem(
            CAPEConfig(name=f"w{num_chains}", num_chains=num_chains),
            backend="bitplane", plan_cache=cache,
        )
        n = system.config.max_vl
        system.vsetvl(n)
        system.vregs[1, :n] = np.arange(n) % 251
        system.vregs[2, :n] = np.arange(n) % 97
        system._written_vregs.update({1, 2})
        system._bitengine.sync_register(1, system.vregs[1])
        system._bitengine.sync_register(2, system.vregs[2])
        system.vadd(3, 1, 2)
        return system.read_vreg(3)

    small = drive(2)
    misses_after_first = cache.misses
    large = drive(8)
    assert cache.misses == misses_after_first  # second device: all hits
    assert cache.hits >= 1
    assert np.array_equal(small, large[: len(small)])


def test_resolve_plan_cache():
    assert resolve_plan_cache(True) is GLOBAL_PLAN_CACHE
    private = PlanCache()
    assert resolve_plan_cache(private) is private
    with pytest.raises(ConfigError):
        resolve_plan_cache("bogus")
    with pytest.raises(ConfigError):
        PlanCache(capacity=-1)
    # False and None still give a cache: one that keeps nothing, so
    # every lookup compiles.
    for knob in (False, None):
        nothing = resolve_plan_cache(knob)
        assert isinstance(nothing, PlanCache)
        assert nothing is not GLOBAL_PLAN_CACHE
        assert nothing is not resolve_plan_cache(knob)
        built = []
        for _ in range(2):
            nothing.get_or_compile("k", lambda: built.append(1) or "plan")
        assert built == [1, 1] and len(nothing) == 0
        assert nothing.misses == 2 and nothing.hits == 0
