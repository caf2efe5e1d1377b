"""Figure 11: Phoenix application speedups (the headline result).

CAPE32k vs one out-of-order tile, CAPE131k vs two, with the three-core
system as reference — the area-equivalent comparison of Section VI-E.
Checks the qualitative structure the paper reports: histogram and kmeans
dominate, kmeans jumps across the capacity cliff, pca is the weakest
matrix app, and the variable-intensity text apps scale worst. The same
16 model runs also pass on the bit-level mirror, with cycles and energy
identical to the functional model alone.
"""

import math
import time

import pytest

from repro.engine.system import CAPE131K, CAPE32K, CAPESystem
from repro.eval.harness import run_phoenix_suite
from repro.eval.tables import format_table
from repro.workloads.phoenix import PHOENIX_APPS


@pytest.mark.slow
def test_fig11_phoenix(once):
    rows = once(run_phoenix_suite)
    print()
    print("Figure 11 — Phoenix speedups (area-equivalent comparisons)")
    print(
        format_table(
            [
                "app", "intensity",
                "CAPE32k vs 1-core", "CAPE131k vs 2-core", "CAPE131k vs 3-core",
            ],
            [
                [
                    r.name, r.intensity,
                    round(r.speedup_32k, 2),
                    round(r.speedup_131k, 2),
                    round(r.speedup_131k_vs_3core, 2),
                ]
                for r in rows
            ],
        )
    )
    geo = math.exp(sum(math.log(r.speedup_32k) for r in rows) / len(rows))
    arith = sum(r.speedup_32k for r in rows) / len(rows)
    print(f"CAPE32k vs 1-core: geo-mean {geo:.1f}x, arith-mean {arith:.1f}x")

    by_name = {r.name: r for r in rows}
    # Qualitative structure of the paper's Figure 11:
    assert by_name["hist"].speedup_32k > 8          # the Section II 13x story
    assert by_name["kmeans"].speedup_32k > 10
    assert by_name["kmeans"].speedup_131k > by_name["kmeans"].speedup_32k  # capacity cliff
    assert by_name["pca"].speedup_32k < 3           # weakest matrix app (no vlrw)
    # Text apps scale worse at the bigger design point (Amdahl + command
    # distribution):
    for app in ("wrdcnt", "revidx", "strmatch"):
        assert by_name[app].speedup_131k < by_name[app].speedup_32k


@pytest.mark.slow
def test_fig11_phoenix_on_the_mirror():
    """All 16 Figure 11 model runs (8 apps on CAPE32k and CAPE131k) with
    every supported intrinsic also run as microcode on the bit-plane
    mirror and checked: each output verifies, and cycles and energy are
    identical to the same inputs on the functional model alone."""
    print()
    total = 0.0
    for config in (CAPE32K, CAPE131K):
        for name, app in PHOENIX_APPS.items():
            plain = CAPESystem(config)
            assert app().run_cape(plain).checked
            mirror = CAPESystem(config, backend="bitplane")
            start = time.perf_counter()
            result = app().run_cape(mirror)
            wall = time.perf_counter() - start
            total += wall
            print(f"{config.name} {name}: {wall:.1f} s on the mirror")
            assert result.checked, (config.name, name)
            assert (mirror.stats.cycles, mirror.stats.energy_j) == (
                plain.stats.cycles, plain.stats.energy_j
            ), (config.name, name)
    print(f"16 mirror runs: {total:.1f} s")
