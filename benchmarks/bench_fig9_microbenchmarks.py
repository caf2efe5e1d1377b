"""Figure 9 [reconstructed]: microbenchmark speedups across systems.

Section VI-D's text is truncated in our source; the microbenchmark set
here (vvadd, vvmul, saxpy, memcpy, dotprod, idxsrch) reconstructs it from
the kernels the surviving text names (idxsrch and the roofline anchors).
Prints CAPE32k/CAPE131k speedups over the area-equivalent 1/2-core
baselines.

``--backend-compare`` (also ``test_fig9_backend_speedup``) additionally
runs the same kernel set as *real associative microcode* on a bit-level
CSB under each execution backend (see docs/BACKENDS.md), records the
wall times in ``BENCH_2.json``, and asserts the bit-plane backend's
lowered int kernels are at least an order of magnitude faster than the
reference backend's step-by-step numpy replay.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

from repro.eval.harness import run_micro_suite
from repro.eval.tables import format_table

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_2.json"
BENCH5_JSON = Path(__file__).resolve().parent.parent / "BENCH_5.json"
BENCH8_JSON = Path(__file__).resolve().parent.parent / "BENCH_8.json"


def test_fig9_microbenchmarks(once):
    rows = once(run_micro_suite)
    print()
    print("Figure 9 — microbenchmark speedups (area-equivalent comparisons)")
    print(
        format_table(
            ["bench", "intensity", "CAPE32k vs 1-core", "CAPE131k vs 2-core"],
            [
                [r.name, r.intensity, round(r.speedup_32k, 2), round(r.speedup_131k, 2)]
                for r in rows
            ],
        )
    )
    by_name = {r.name: r for r in rows}
    # Streaming kernels win clearly; idxsrch is capped by its serialized
    # post-processing.
    assert by_name["vvadd"].speedup_32k > 2
    assert by_name["memcpy"].speedup_32k > 2
    assert by_name["idxsrch"].speedup_32k < by_name["vvadd"].speedup_32k


def _bit_level_suite(backend, num_chains=64, sew=8, seed=7):
    """Run the Figure 9 kernel set as real microcode on a bit-level CSB.

    Delegates to :func:`repro.eval.microprofile.run_fig9_kernels` (the
    canonical kernel runner, shared with ``bench_table2_microops.py``)
    with observability off, so the timing is the null-observer fast
    path. Returns ``(elapsed_seconds, checksum)``; the checksum must
    agree across backends.
    """
    from repro.eval.microprofile import run_fig9_kernels

    return run_fig9_kernels(backend, num_chains=num_chains, sew=sew, seed=seed)


def run_backend_profile(backend, num_chains=64, sew=8):
    """Time the suite (null observer), then profile it (observer on).

    Prints the per-kernel cycle/energy/microop breakdown derived from
    the observer's counters — the ``obs.report`` replacement for the
    bench's former hand-rolled accounting — and returns the profile.
    """
    from repro.eval.microprofile import profile_fig9_kernels

    elapsed, checksum = _bit_level_suite(backend, num_chains=num_chains, sew=sew)
    print(
        f"{backend}: {elapsed:.4f}s wall (null observer), "
        f"checksum {checksum}"
    )
    if BENCH_JSON.exists():
        baseline = json.loads(BENCH_JSON.read_text())
        key = f"{backend}_seconds"
        if key in baseline and baseline["config"] == {
            "num_chains": num_chains, "sew": sew,
        }:
            delta = elapsed / baseline[key] - 1.0
            print(f"vs BENCH_2.json {baseline[key]}s: {delta:+.1%}")
    profile = profile_fig9_kernels(backend, num_chains=num_chains, sew=sew)
    print(profile.table(title=f"fig9 kernels — {backend} backend"))
    return profile


def run_backend_compare(num_chains=64, sew=8):
    """Time the bit-level kernel suite under both backends.

    Returns the ``BENCH_2.json`` payload. Both backends run every chain
    as one fused block behind the CSB's ganged chain; the reference
    backend replays each microcode step as numpy kernels over the fused
    columns, the bit-plane backend runs the plan's lowered int kernels.
    """
    timings = {}
    checksums = {}
    for backend in ("reference", "bitplane"):
        timings[backend], checksums[backend] = _bit_level_suite(
            backend, num_chains=num_chains, sew=sew
        )
    assert checksums["reference"] == checksums["bitplane"]
    speedup = timings["reference"] / timings["bitplane"]
    return {
        "benchmark": "fig9 kernels as bit-level microcode (vvadd, vvmul, "
        "saxpy, memcpy, dotprod, idxsrch)",
        "config": {"num_chains": num_chains, "sew": sew},
        "reference_seconds": round(timings["reference"], 4),
        "bitplane_seconds": round(timings["bitplane"], 4),
        "speedup": round(speedup, 1),
    }


class _WallClockProfile:
    """Duck-typed stand-in for ``ProfileReport``: wall seconds per kernel."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def kernel(self, name):
        start = time.perf_counter()
        yield
        self.seconds[name] = round(
            self.seconds.get(name, 0.0) + time.perf_counter() - start, 6
        )


def _mode_profile(num_chains, sew, **mode):
    """One wall-clock-profiled pass and one observed pass of a mode.

    Returns ``(checksum, per_kernel_seconds, microops)``. The observed
    pass reads the ``csb.microops`` total, which must be identical with
    the plan cache on and off — and with whole-kernel superplans on and
    off.
    """
    from repro.eval.microprofile import run_fig9_kernels
    from repro.obs import Observer

    wall = _WallClockProfile()
    _, checksum = run_fig9_kernels(
        "bitplane", num_chains=num_chains, sew=sew, profile=wall, **mode
    )
    observer = Observer()
    _, obs_checksum = run_fig9_kernels(
        "bitplane", num_chains=num_chains, sew=sew, observer=observer,
        **mode,
    )
    assert obs_checksum == checksum
    return checksum, wall.seconds, observer.metrics.total("csb.microops")


def _paired_times(num_chains, sew, pairs, slow, fast):
    """Time two modes as alternating ``(slow, fast)`` pairs.

    Host speed drifts over seconds, so both passes of a pair run back to
    back in this one process, under the null observer, and the figure of
    merit is the median of the per-pair ratios — not the ratio of two
    best-of-N minima taken at different times. Returns the per-pass
    seconds of each mode, the per-pair ratios ``slow / fast``, and the
    set of checksums every pass produced.
    """
    from repro.eval.microprofile import run_fig9_kernels

    slow_s, fast_s, checksums = [], [], set()
    for _ in range(pairs):
        for mode, times in ((slow, slow_s), (fast, fast_s)):
            elapsed, checksum = run_fig9_kernels(
                "bitplane", num_chains=num_chains, sew=sew, **mode
            )
            times.append(elapsed)
            checksums.add(checksum)
    ratios = [s / f for s, f in zip(slow_s, fast_s)]
    return slow_s, fast_s, ratios, checksums


def run_plan_cache_compare(num_chains=64, sew=8, pairs=5):
    """Time the bit-plane fig9 suite with the plan cache on vs off.

    Returns the ``BENCH_5.json`` payload: warm plan-cache wall time vs
    a cache that keeps nothing, so every dispatch compiles its plan
    afresh (medians over ``pairs`` alternating off/on pairs, the
    speedup the median per-pair ratio), per-kernel
    seconds for both, and the speedup against ``BENCH_2.json``'s
    recorded bit-plane time. Results and ``csb.microops`` totals must be
    identical in every mode — the plan cache is purely a host-speed
    optimisation.
    """
    from statistics import median

    from repro.api import plan_cache_snapshot
    from repro.plan import GLOBAL_PLAN_CACHE

    # Warm the shared cache so the "on" timing measures replay, not the
    # one-time compile (real workloads hit a warm process-wide cache).
    GLOBAL_PLAN_CACHE.clear()
    _bit_level_suite("bitplane", num_chains=num_chains, sew=sew)

    off_s, on_s, ratios, checksums = _paired_times(
        num_chains, sew, pairs, {"plan_cache": False}, {"plan_cache": True}
    )
    on_ck, on_kernels, on_uops = _mode_profile(
        num_chains, sew, plan_cache=True
    )
    off_ck, off_kernels, off_uops = _mode_profile(
        num_chains, sew, plan_cache=False
    )

    payload = {
        "benchmark": "fig9 kernels as bit-plane microcode — plan cache "
        "on (warm) vs off (compile per dispatch, keep nothing)",
        "config": {"num_chains": num_chains, "sew": sew},
        "pairs": pairs,
        "plan_cache_on_seconds": round(median(on_s), 4),
        "plan_cache_off_seconds": round(median(off_s), 4),
        "speedup_on_vs_off": round(median(ratios), 2),
        "per_kernel_seconds": {"on": on_kernels, "off": off_kernels},
        "checksum_identical": checksums == {on_ck} == {off_ck},
        "microops_identical": on_uops == off_uops,
        "plan_cache": plan_cache_snapshot(),
    }
    if BENCH_JSON.exists():
        baseline = json.loads(BENCH_JSON.read_text())
        if baseline.get("config") == {"num_chains": num_chains, "sew": sew}:
            payload["baseline_bitplane_seconds"] = baseline["bitplane_seconds"]
            payload["speedup_vs_bench2"] = round(
                baseline["bitplane_seconds"] / median(on_s), 2
            )
    return payload


def run_superplan_compare(num_chains=64, sew=8, pairs=5):
    """Time the warm bit-plane fig9 suite per-instruction vs superplan.

    Both modes run against a warm :data:`GLOBAL_PLAN_CACHE`; the only
    difference is whether the kernel set's mirror microcode replays one
    cached :class:`~repro.plan.CompiledPlan` per instruction or as fused
    whole-kernel :class:`~repro.plan.Superplan` traces. Times are
    medians over ``pairs`` alternating per-instruction/superplan pairs,
    the speedup the median per-pair ratio. Returns the ``BENCH_8.json``
    payload — checksum and ``csb.microops`` totals must be identical;
    only the host wall time is allowed to move.
    """
    from statistics import median

    from repro.api import plan_cache_snapshot
    from repro.plan import GLOBAL_PLAN_CACHE

    # Warm both tiers of the shared cache (per-op plans + superplans)
    # so each timing measures warm replay, not the one-time fuse.
    GLOBAL_PLAN_CACHE.clear()
    _bit_level_suite("bitplane", num_chains=num_chains, sew=sew)
    from repro.eval.microprofile import run_fig9_kernels

    run_fig9_kernels(
        "bitplane", num_chains=num_chains, sew=sew, superplan=True
    )

    per_s, sp_s, ratios, checksums = _paired_times(
        num_chains, sew, pairs, {"superplan": False}, {"superplan": True}
    )
    per_ck, per_kernels, per_uops = _mode_profile(
        num_chains, sew, superplan=False
    )
    sp_ck, sp_kernels, sp_uops = _mode_profile(
        num_chains, sew, superplan=True
    )

    payload = {
        "benchmark": "fig9 kernels as bit-plane microcode — warm "
        "per-instruction plan replay vs whole-kernel superplan replay",
        "config": {"num_chains": num_chains, "sew": sew},
        "pairs": pairs,
        "per_instruction_seconds": round(median(per_s), 4),
        "superplan_seconds": round(median(sp_s), 4),
        "speedup_superplan": round(median(ratios), 2),
        "per_kernel_seconds": {
            "per_instruction": per_kernels, "superplan": sp_kernels,
        },
        "checksum_identical": checksums == {per_ck} == {sp_ck},
        "microops_identical": per_uops == sp_uops,
        "plan_cache": plan_cache_snapshot(),
    }
    if BENCH5_JSON.exists():
        baseline = json.loads(BENCH5_JSON.read_text())
        if baseline.get("config") == {"num_chains": num_chains, "sew": sew}:
            payload["bench5_plan_cache_on_seconds"] = baseline[
                "plan_cache_on_seconds"
            ]
    return payload


def test_fig9_superplan_speedup():
    payload = run_superplan_compare()
    BENCH8_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print("Figure 9 kernels as microcode — superplan comparison")
    print(json.dumps(payload, indent=2))
    assert payload["checksum_identical"] and payload["microops_identical"]
    assert payload["speedup_superplan"] >= 2
    assert payload["plan_cache"]["superplans"] >= 1


def test_fig9_plan_cache_speedup():
    payload = run_plan_cache_compare()
    BENCH5_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print("Figure 9 kernels as microcode — plan-cache comparison")
    print(json.dumps(payload, indent=2))
    assert payload["checksum_identical"] and payload["microops_identical"]
    assert payload["speedup_on_vs_off"] >= 1.5
    if "speedup_vs_bench2" in payload:
        assert payload["speedup_vs_bench2"] >= 2


def test_fig9_backend_speedup():
    payload = run_backend_compare()
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print("Figure 9 kernels as microcode — backend comparison")
    print(json.dumps(payload, indent=2))
    assert payload["speedup"] >= 10


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend-compare",
        action="store_true",
        help="time the kernels as bit-level microcode under both "
        "backends and write BENCH_2.json",
    )
    parser.add_argument(
        "--backend",
        choices=("reference", "bitplane"),
        help="time the kernels on one backend (null observer), then "
        "print the observer-derived per-kernel profile",
    )
    parser.add_argument(
        "--plan-cache",
        choices=("compare", "on", "off"),
        help="'compare' times the bit-plane suite with the plan cache "
        "on vs off and writes BENCH_5.json; 'on'/'off' time one mode",
    )
    parser.add_argument(
        "--superplan",
        action="store_true",
        help="time the warm bit-plane suite per-instruction vs fused "
        "whole-kernel superplans and write BENCH_8.json",
    )
    parser.add_argument("--num-chains", type=int, default=64)
    parser.add_argument("--sew", type=int, default=8)
    args = parser.parse_args()
    if args.superplan:
        result = run_superplan_compare(
            num_chains=args.num_chains, sew=args.sew
        )
        BENCH8_JSON.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"wrote {BENCH8_JSON}")
    elif args.plan_cache:
        if args.plan_cache == "compare":
            result = run_plan_cache_compare(
                num_chains=args.num_chains, sew=args.sew
            )
            BENCH5_JSON.write_text(json.dumps(result, indent=2) + "\n")
            print(json.dumps(result, indent=2))
            print(f"wrote {BENCH5_JSON}")
        else:
            from repro.eval.microprofile import run_fig9_kernels

            enabled = args.plan_cache == "on"
            if enabled:  # warm the shared cache first
                run_fig9_kernels(
                    "bitplane", num_chains=args.num_chains, sew=args.sew
                )
            elapsed, checksum = run_fig9_kernels(
                "bitplane", num_chains=args.num_chains, sew=args.sew,
                plan_cache=enabled,
            )
            print(
                f"plan cache {args.plan_cache}: {elapsed:.4f}s wall, "
                f"checksum {checksum}"
            )
    elif args.backend:
        run_backend_profile(
            args.backend, num_chains=args.num_chains, sew=args.sew
        )
    elif args.backend_compare:
        result = run_backend_compare(num_chains=args.num_chains, sew=args.sew)
        BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"wrote {BENCH_JSON}")
    else:
        parser.error(
            "run under pytest, or pass --backend/--backend-compare/"
            "--plan-cache"
        )
