"""Figure 11: Phoenix application speedups (the headline result).

CAPE32k vs one out-of-order tile, CAPE131k vs two, with the three-core
system as reference — the area-equivalent comparison of Section VI-E.
Checks the qualitative structure the paper reports: histogram and kmeans
dominate, kmeans jumps across the capacity cliff, pca is the weakest
matrix app, and the variable-intensity text apps scale worst.
"""

import math

import pytest

from repro.eval.harness import run_phoenix_suite
from repro.eval.tables import format_table


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
