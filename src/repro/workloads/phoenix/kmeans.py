"""Phoenix kmeans: iterative clustering with an L1 (Manhattan) metric.

The paper's capacity story: kmeans' dataset does not fit in CAPE32k's CSB
— every iteration reloads it from HBM — but fits in CAPE131k, which loads
it once and reuses it until convergence, producing kmeans' dramatic jump
between the two design points (426x vs an area-comparable multicore in
the paper). The default sizing reproduces the relationship at our scale:
``points`` lies between CAPE32k's 32,768 and CAPE131k's 131,072 lanes.

Distances use the L1 metric (also common in Phoenix derivatives); it maps
to CAPE's cheap add/sub/compare/merge instructions, avoiding the
quadratic ``vmul`` in the hot loop.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.trace import Trace, TraceBlock
from repro.engine.system import CAPESystem
from repro.workloads.base import (
    Workload,
    WorkloadResult,
    loop_block,
    strided_addresses,
)

_DATA = 0  # dimension-major (SoA): dim d's values at base + d*points*4


def _golden_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """L1-nearest centroid per point (ties to the lower index).

    ``points`` is dimension-major, shape ``(d, n)``. One pass per
    centroid keeps a running best distance in O(n) memory; a strict
    ``<`` leaves ties with the lower index, as ``argmin`` over all k
    distances would.
    """
    n = points.shape[1]
    assign = np.zeros(n, dtype=np.int64)
    best = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.int64)
    term = np.empty(n, dtype=np.int64)
    for c, centroid in enumerate(centroids):
        dist.fill(0)
        for row, value in zip(points, centroid):
            np.subtract(row, value, out=term)
            np.abs(term, out=term)
            dist += term
        if c == 0:
            best[:] = dist
        else:
            closer = dist < best
            assign[closer] = c
            np.minimum(best, dist, out=best)
    return assign


class KMeans(Workload):
    """``kmeans``: k clusters over n points of d dimensions."""

    name = "kmeans"
    intensity = "variable"

    def __init__(
        self,
        points: int = 120_000,
        dims: int = 8,
        k: int = 8,
        iterations: int = 8,
        seed: int = 29,
    ) -> None:
        self.points, self.dims, self.k = points, dims, k
        self.iterations = iterations
        rng = np.random.default_rng(seed)
        centers = rng.integers(0, 1 << 10, size=(k, dims))
        assign = rng.integers(0, k, size=points)
        noise = rng.integers(-64, 64, size=(points, dims))
        self.data = (centers[assign] + noise).clip(0).astype(np.int64)
        self.initial_centroids = self.data[:: points // k][:k].copy()

    # ------------------------------------------------------------------

    def golden(self) -> np.ndarray:
        """Run the reference clustering; returns final assignments."""
        points = np.ascontiguousarray(self.data.T)  # dimension-major
        centroids = self.initial_centroids.astype(np.int64).copy()
        assign = np.zeros(self.points, dtype=np.int64)
        for _ in range(self.iterations):
            assign = _golden_assign(points, centroids)
            for c in range(self.k):
                members = points[:, assign == c]
                if members.shape[1]:
                    centroids[c] = members.sum(axis=1) // members.shape[1]
        return assign

    # ------------------------------------------------------------------

    def run_cape(self, cape: CAPESystem) -> WorkloadResult:
        n, d, k = self.points, self.dims, self.k
        base = self.array_base(_DATA)
        for dim in range(d):
            cape.memory.write_words(base + 4 * dim * n, self.data[:, dim])
        centroids = self.initial_centroids.astype(np.int64).copy()
        resident = n <= cape.config.max_vl  # fits in the CSB?
        assign = np.zeros(n, dtype=np.int64)

        # Register map: v1..v8 point dims (when resident), v9 |p-c| term,
        # v10 distance accum, v11 best distance, v12 best index, v13/v14
        # temps, v0 mask.
        dim_regs = list(range(1, 1 + d))
        loaded = False
        for _ in range(self.iterations):
            done = 0
            while done < n:
                vl = cape.vsetvl(n - done)
                if not (resident and loaded):
                    for dim in range(d):
                        cape.vle(dim_regs[dim], base + 4 * (dim * n + done))
                cape.vmv_vx(11, (1 << 20))  # best distance = +inf
                cape.vmv_vx(12, 0)          # best index
                for c in range(k):
                    cape.vmv_vx(10, 0)
                    for dim in range(d):
                        cv = int(centroids[c, dim])
                        cape.vadd_vx(9, dim_regs[dim], -cv)   # p - c
                        cape.vmv_vx(13, 0)
                        cape.vsub(13, 13, 9)                  # c - p
                        cape.vmslt(0, 9, 13)                  # p-c < c-p ?
                        cape.vmerge(9, 13, 9, vm=0)           # |p - c|
                        cape.vadd(10, 10, 9)
                    cape.vmslt(0, 10, 11)                     # closer?
                    cape.vmerge(11, 10, 11, vm=0)
                    cape.vmv_vx(13, c)
                    cape.vmerge(12, 13, 12, vm=0)
                assign[done : done + vl] = cape.read_vreg(12)
                # Per-cluster sums for the centroid update: select
                # members with a search, zero out the rest, redsum.
                for c in range(k):
                    cape.vmseq_vx(0, 12, c)
                    count = cape.vmask_popcount(0)
                    sums = np.zeros(d, dtype=np.int64)
                    for dim in range(d):
                        cape.vmv_vx(13, 0)
                        cape.vmerge(14, dim_regs[dim], 13, vm=0)
                        sums[dim] = cape.vredsum(14)
                    if done + vl >= n:  # final tile: commit the update
                        members = assign[: done + vl] == c
                        if members.any():
                            centroids[c] = (
                                self.data[: done + vl][members].sum(axis=0)
                                // members.sum()
                            )
                    cape.scalar_ops(int_ops=2 * d + 4, branches=1)
                loaded = True
                done += vl
        self.check(assign, self.golden())
        return self.finish(cape)

    # ------------------------------------------------------------------

    def scalar_trace(self) -> Trace:
        n, d, k = self.points, self.dims, self.k
        base = self.array_base(_DATA)
        # One iteration's point-data traffic (row-major in the C code);
        # centroid values stay register/L1 resident.
        loads = strided_addresses(base, n * d)
        body_ops = n * k * d * 4  # sub, abs, accumulate, compare
        update_ops = n * d * 2
        return Trace(
            self.name,
            [
                loop_block(
                    "assign", n * k * d,
                    int_ops_per_iter=4,
                    loads=loads,
                    branch_miss_rate=0.02,
                ),
                TraceBlock(
                    "update",
                    int_ops=update_ops,
                    branches=n // 4,
                    branch_miss_rate=0.05,
                    stores=strided_addresses(self.array_base(_DATA) + 0x40000000, n),
                ),
            ],
            repeat=self.iterations,
        )

    def simd_trace(self, lanes: int) -> Trace:
        n, d, k = self.points, self.dims, self.k
        base = self.array_base(_DATA)
        iters = (n // lanes) * k * d
        loads = strided_addresses(base, (n // lanes) * d, 4 * lanes)
        return Trace(
            self.name,
            [
                loop_block(
                    "assign", iters,
                    int_ops_per_iter=5,  # sub/abs/acc + predicate mgmt
                    loads=loads,
                    branch_miss_rate=0.02,
                ),
                # Centroid accumulation is a data-dependent scatter: each
                # point adds into its cluster's partial sums, which SVE
                # cannot vectorise (lane conflicts) — it stays scalar.
                TraceBlock(
                    "update",
                    int_ops=n * d,
                    branches=n // 4,
                    branch_miss_rate=0.05,
                    stores=strided_addresses(base + 0x40000000, n // lanes, 4 * lanes),
                    parallel=False,
                ),
            ],
            repeat=self.iterations,
        )
