"""Differential tests, superplan axis: a fused kernel vs its plans.

With ``superplan`` enabled, a :meth:`CAPESystem.superplan_scope` defers
every eligible mirror dispatch and replays the whole kernel as one fused
:class:`~repro.plan.Superplan`. It must equal the per-instruction run,
whether or not the cache keeps plans, on both backends, across masked
forms (including the masked-vmul re-sync fallback that forces a
mid-scope flush), non-deferrable ops (reductions, popcounts), partial
``vl``/``vstart`` windows, and an active fault plan (where superplans go
inactive and the divergence ladder applies per instruction). The
harness is ``tests/plan/differential.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.system import CAPESystem
from repro.obs import Observer
from repro.plan import PlanCache

from .differential import (
    BACKENDS,
    CACHES,
    MODES,
    NANO,
    PROGRAMS,
    WORDS,
    assert_fused,
    assert_not_fused,
    fault_program,
    operands,
    run_modes,
    run_program,
)


@settings(max_examples=10, deadline=None)
@given(
    WORDS, WORDS, PROGRAMS,
    st.sampled_from(BACKENDS), st.sampled_from(CACHES),
)
def test_superplan_replay_is_bit_identical(a, b, ops, backend, cache):
    a, b, mask = operands(a, b)
    run_modes(backend, ((cache, False), (cache, True)), a, b, mask, ops)


def test_superplan_actually_fuses_on_the_bitplane_backend():
    """The equality above must not be vacuous: on the plain bit-plane
    backend the scope really builds fused superplans, whether or not the
    cache keeps them (reference stays per-instruction — its engine type
    is not eligible)."""
    a = list(range(16))
    b = list(range(16, 0, -1))
    mask = [i & 1 for i in range(16)]
    ops = [("vadd", False), ("vxor", True), ("vmin", False)]
    for cache in CACHES:
        _, fused = run_program("bitplane", (cache, True), a, b, mask, ops)
        assert_fused(fused)
        _, ref = run_program("reference", (cache, True), a, b, mask, ops)
        assert_not_fused(ref)


@pytest.mark.parametrize("vstart,vl", [(0, 11), (3, 13), (5, 16)])
def test_superplan_respects_partial_windows(vstart, vl):
    """Elements outside ``[vstart, vl)`` are untouched by the fused
    replay, exactly as per-instruction."""
    rng = np.random.default_rng(0x5A)
    a = rng.integers(0, 1 << 16, vl).tolist()
    b = rng.integers(0, 1 << 16, vl).tolist()
    mask = rng.integers(0, 2, vl).tolist()
    ops = [("vadd", True), ("vmul", False), ("vmax", False),
           ("vsra_vi", False)]
    records = run_modes("bitplane", MODES, a, b, mask, ops, vstart=vstart)
    for (_cache, superplan), record in records.items():
        (assert_fused if superplan else assert_not_fused)(record)


def test_masked_vmul_fallback_flushes_mid_scope():
    """Masked vmul has no microcode: it re-syncs the mirror, which must
    flush the open superplan segment first — and stay bit-identical."""
    rng = np.random.default_rng(0x71)
    a = rng.integers(0, 1 << 16, 16).tolist()
    b = rng.integers(0, 1 << 16, 16).tolist()
    mask = rng.integers(0, 2, 16).tolist()
    ops = [("vadd", True), ("vmul", True), ("vxor", False), ("vsub", True)]
    records = run_modes("bitplane", MODES, a, b, mask, ops)
    # The fallback split the scope but deferrable ops still fused.
    for (_cache, superplan), record in records.items():
        if superplan:
            assert_fused(record)


@pytest.mark.parametrize("backend", BACKENDS)
def test_superplan_inactive_under_active_faults(backend):
    """A fault injector makes every dispatch ineligible: the scope
    stays per-instruction, the divergence ladder applies, and the
    outcome matches the superplan-off run exactly, whether or not the
    cache keeps plans."""
    for cache in CACHES:
        records = run_modes(
            backend, ((cache, False), (cache, True)), *fault_program(),
            faults=True,
        )
        for record in records.values():
            assert_not_fused(record)


def test_second_identical_kernel_replays_from_the_warm_cache():
    """Same system, same kernel twice: the second scope compiles
    nothing new and the results repeat exactly."""
    obs = Observer()
    cache = PlanCache()
    system = CAPESystem(
        NANO, backend="bitplane", observer=obs, plan_cache=cache,
        superplan=True,
    )
    n = 16

    def kernel():
        system.reset()
        system.vsetvl(n)
        system.vregs[1, :n] = np.arange(n)
        system.vregs[2, :n] = np.arange(n)[::-1].copy()
        system._written_vregs.update({1, 2})
        for reg in (1, 2):
            system._bitengine.sync_register(reg, system.vregs[reg])
        with system.superplan_scope():
            system.vadd(3, 1, 2)
            system.vmul(4, 1, 2)
            system.vxor(5, 3, 4)
        return [system.read_vreg(r).tolist() for r in (3, 4, 5)]

    outs = [kernel(), kernel()]
    assert outs[0] == outs[1]
    snap = cache.snapshot()
    compiles_after_two = snap["compiles"]
    assert snap["superplans"] >= 1
    # Third round: pure cache hits, zero new compiles.
    assert kernel() == outs[0]
    assert cache.snapshot()["compiles"] == compiles_after_two
