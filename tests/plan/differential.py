"""The harness both plan differential suites run on.

A system runs in one of four modes: the plan cache keeps plans
(``"kept"``: a private :class:`PlanCache`) or keeps nothing
(``"nothing"``: ``plan_cache=False``, every dispatch records the FSM
walk afresh and replays it), and ``superplan`` fuses a kernel's
eligible plans into one trace or not. :func:`run_program` runs one op
sequence in one mode and returns every observable — destination
values, the full register file, cycle and energy totals, and every
``csb.microops`` series — so two modes compare with ``==``. Each op may
carry its own SEW (8, 16 or 32) over 32-bit operands, so narrow ops
read rows holding bits above SEW, on every backend and in every mode.
``test_plan_equiv.py`` holds the cache axis and
``test_superplan_diff.py`` the superplan axis; each draws or iterates
the other axis.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from repro.engine.system import CAPEConfig, CAPESystem
from repro.faults import FaultInjector, FaultPlan, StuckBit, TagFlip
from repro.obs import Observer
from repro.plan import PlanCache

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes

CACHES = ("nothing", "kept")
BACKENDS = ("reference", "bitplane")

#: Every mode a system can take, as ``(cache, superplan)``.
MODES = tuple(itertools.product(CACHES, (False, True)))

#: (system method, supports mask kwarg). Masked vmul has no microcode:
#: it falls back to a re-sync (non-deferrable) — kept deliberately so
#: the differential covers a mid-scope flush. The harness calls each op
#: as ``op(vd, 1, 2)``, so the shifts shift ``v1`` by 2.
OPS = (
    ("vadd", True),
    ("vsub", True),
    ("vmul", True),
    ("vand", True),
    ("vor", True),
    ("vxor", True),
    ("vmin", False),
    ("vmax", False),
    ("vsll_vi", False),
    ("vsrl_vi", False),
    ("vsra_vi", False),
)

#: Strategies for the hypothesis differentials: operand lists (trimmed
#: to a common length by :func:`operands`) and op sequences of
#: ``(op, use_mask, sew)``.
WORDS = st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=32)
PROGRAMS = st.lists(
    st.tuples(
        st.sampled_from([op for op, _ in OPS]), st.booleans(),
        st.sampled_from((8, 16, 32)),
    ),
    min_size=1, max_size=6,
)


def operands(a, b):
    """Trim two drawn operand lists to one length and derive a mask."""
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    return a, b, [(x ^ y) & 1 for x, y in zip(a, b)]


def fault_injector():
    """A fresh injector (it counts searches) with a stuck bit and a tag
    flip that land inside :func:`fault_program`."""
    return FaultInjector(FaultPlan([
        StuckBit(row=3, element=2, bit=1, value=1),
        TagFlip(element=0, bit=0, at_search=3),
    ]))


def fault_program():
    """Fixed operands, mask and ops for the fault-plan differentials."""
    rng = np.random.default_rng(0xCA9E)
    a = rng.integers(0, 1 << 16, 16).tolist()
    b = rng.integers(0, 1 << 16, 16).tolist()
    mask = rng.integers(0, 2, 16).tolist()
    ops = [("vadd", True), ("vmul", False), ("vxor", True), ("vmin", False),
           ("vsrl_vi", False)]
    return a, b, mask, ops


def run_program(backend, mode, a, b, mask, ops, faults=False, vstart=0):
    """Run an op sequence inside one superplan scope.

    Each op is ``(op, use_mask)`` or ``(op, use_mask, sew)``; the SEW
    (32 when absent) is selected before the op whenever it changes, and
    the closing vmerge, vmseq, vredsum and popcount run at SEW 32.
    Returns every observable, and how much fusing happened: the fused
    flushes the observer saw, and (cache ``"kept"`` only) the cache's
    counter snapshot.
    """
    cache, superplan = mode
    obs = Observer()
    kept = PlanCache() if cache == "kept" else None
    system = CAPESystem(
        NANO, backend=backend, observer=obs,
        plan_cache=kept if kept is not None else False,
        superplan=superplan,
        fault_injector=fault_injector() if faults else None,
    )
    n = len(a)
    system.vsetvl(n)
    system.vregs[1, :n] = a
    system.vregs[2, :n] = b
    system.vregs[6, :n] = mask
    system._written_vregs.update({1, 2, 6})
    if system._bitengine is not None:
        for reg in (1, 2, 6):
            system._bitengine.sync_register(reg, system.vregs[reg])
    if vstart:
        system.set_vstart(vstart)
    with system.superplan_scope():
        for i, step in enumerate(ops):
            op, use_mask, sew = (*step, 32)[:3]
            if sew != system.sew:
                system.set_sew(sew)
            _, maskable = next(entry for entry in OPS if entry[0] == op)
            kwargs = {"mask": 6} if (use_mask and maskable) else {}
            getattr(system, op)(3 + (i % 3), 1, 2, **kwargs)
        if system.sew != 32:
            system.set_sew(32)
        system.vmerge(5, 1, 2, vm=6)
        system.vmseq(7, 1, 2)
        total = int(system.vredsum(3, signed=False))
        hits = system.vmask_popcount(7)
    state = {
        "total": total,
        "hits": hits,
        "registers": [system.read_vreg(r).tolist() for r in range(8)],
        "cycles": system.stats.cycles,
        "energy": system.stats.energy_j,
        "microops": {
            key: value
            for key, value in obs.metrics.snapshot().items()
            if key[0] == "csb.microops"
        },
    }
    fused = {
        "flushes": obs.metrics.total("plan.superplan.flush"),
        "snapshot": kept.snapshot() if kept is not None else None,
    }
    return state, fused


def run_modes(backend, modes, a, b, mask, ops, **kwargs):
    """``run_program`` in each of *modes*; asserts every mode equals the
    first and returns each mode's fusing record."""
    runs = {
        mode: run_program(backend, mode, a, b, mask, ops, **kwargs)
        for mode in modes
    }
    reference, _ = runs[modes[0]]
    for mode, (state, _) in runs.items():
        assert state == reference, mode
    return {mode: fused for mode, (_, fused) in runs.items()}


def assert_fused(record):
    assert record["flushes"] >= 1
    if record["snapshot"] is not None:
        assert record["snapshot"]["superplans"] >= 1


def assert_not_fused(record):
    assert record["flushes"] == 0
    if record["snapshot"] is not None:
        assert record["snapshot"]["superplans"] == 0
