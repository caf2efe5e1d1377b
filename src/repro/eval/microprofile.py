"""Observer-driven profiling of the Fig. 9 kernel set.

The canonical per-kernel measurement used by the paper-figure benches:
one function runs the microbenchmark kernels (vvadd, vvmul, saxpy,
memcpy, dotprod, idxsrch) as real associative microcode on a bit-level
CSB, and :func:`profile_fig9_kernels` wraps each kernel in a
:class:`~repro.obs.ProfileReport` scope so its microop mix, cycle
breakdown, and energy come straight from the observer's counters — the
accounting ``benchmarks/bench_fig9_microbenchmarks.py`` and
``bench_table2_microops.py`` previously assembled by hand.

Because both backends charge microops through the same shared
:class:`~repro.csb.counter.MicroopStats`, the per-kernel totals here are
equal by construction across ``reference`` and ``bitplane`` — asserted
in ``tests/csb/test_backend_equiv.py`` and ``bench_table2_microops.py``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Optional, Tuple

from repro.obs import Observer, ProfileReport

#: Kernel scope names, in execution order (setup covers vsetvl + loads).
FIG9_KERNELS = (
    "setup", "vvadd", "vvmul", "saxpy", "memcpy", "dotprod", "idxsrch",
    "store",
)


def run_fig9_kernels(
    backend: Optional[str],
    num_chains: int = 64,
    sew: int = 8,
    seed: int = 7,
    observer: Optional[Observer] = None,
    profile: Optional[ProfileReport] = None,
    plan_cache=True,
    superplan=False,
) -> Tuple[float, int]:
    """Run the Fig. 9 kernel set; returns ``(elapsed_seconds, checksum)``.

    With ``backend=`` set every supported intrinsic also executes as
    associative microcode on the CSB mirror and is cross-validated, so
    the wall time is dominated by microcode execution on the selected
    backend. The checksum must agree across backends. ``profile`` wraps
    each kernel in a :meth:`ProfileReport.kernel` scope. ``plan_cache``
    is the system's microcode plan-cache knob (``False`` keeps nothing,
    so every dispatch compiles its plan afresh — the "off" side of the
    plan-cache comparison bench). ``superplan`` additionally fuses the
    kernel set's mirror microcode into one cached whole-kernel trace
    (the checksum, cycles, and microop totals are identical either way).
    """
    import numpy as np

    from repro.engine.system import CAPEConfig, CAPESystem

    config = CAPEConfig("fig9-bit", num_chains=num_chains)
    cape = CAPESystem(
        config, backend=backend, observer=observer, plan_cache=plan_cache,
        superplan=superplan,
    )
    n = config.max_vl
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << sew, n, dtype=np.int64)
    b = rng.integers(0, 1 << sew, n, dtype=np.int64)
    base_a, base_b = 0x10000, 0x80000
    cape.vmu.map_range(base_a, 4 * n)
    cape.vmu.map_range(base_b, 4 * n)
    cape.vmu.store(base_a, a)
    cape.vmu.store(base_b, b)

    scope = profile.kernel if profile is not None else (lambda name: nullcontext())

    start = time.perf_counter()
    with cape.superplan_scope():
        with scope("setup"):
            cape.vsetvl(n, sew=sew)
            cape.vle(1, base_a)
            cape.vle(2, base_b)
        with scope("vvadd"):
            cape.vadd(3, 1, 2)
        with scope("vvmul"):
            cape.vmul(4, 1, 2)
        with scope("saxpy"):
            cape.vadd(5, 4, 3)
        with scope("memcpy"):
            cape.vmv(6, 1)
        with scope("dotprod"):
            dot = cape.vredsum(4, signed=False)
        with scope("idxsrch"):
            cape.vmseq_vx(7, 1, int(a[0]))
            hits = cape.vmask_popcount(7)
        with scope("store"):
            cape.vse(5, base_b)
    elapsed = time.perf_counter() - start

    checksum = int(dot) + int(hits) + int(cape.read_vreg(5).sum())
    return elapsed, checksum


def profile_fig9_kernels(
    backend: Optional[str],
    num_chains: int = 64,
    sew: int = 8,
    seed: int = 7,
) -> ProfileReport:
    """Profile the kernel set under a fresh observer; returns the report."""
    observer = Observer()
    profile = ProfileReport(observer)
    run_fig9_kernels(
        backend,
        num_chains=num_chains,
        sew=sew,
        seed=seed,
        observer=observer,
        profile=profile,
    )
    return profile
