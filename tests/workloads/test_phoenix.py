"""Phoenix applications at test scale: every CAPE run checks its answer."""

import numpy as np
import pytest

from repro.engine.system import CAPEConfig, CAPESystem
from repro.workloads.phoenix import (
    PHOENIX_APPS,
    Histogram,
    KMeans,
    LinearRegression,
    MatMul,
    PCA,
    ReverseIndex,
    StringMatch,
    WordCount,
)
from repro.workloads.phoenix.kmeans import _golden_assign

SMALL = CAPEConfig(name="test", num_chains=128)  # 4,096 lanes

#: Reduced-size constructor arguments for fast tests.
TEST_ARGS = {
    "matmul": dict(m=8, n=128, p=8),
    "pca": dict(rows=5, cols=256),
    "lreg": dict(n=4096),
    "hist": dict(n=4096),
    "kmeans": dict(points=2000, dims=3, k=3, iterations=2),
    "wrdcnt": dict(n=8192),
    "revidx": dict(n=8192),
    "strmatch": dict(n=8192),
}

#: (cycles, energy_j, vector_instructions, scalar_exposed_cycles) of each
#: app at TEST_ARGS on SMALL. Host-side rewrites of the register file, the
#: CP cache model or the reference must leave every figure bit-identical.
PINNED = {
    "matmul": (37008.5, 3.617510399999998e-06, 72, 56.5),
    "pca": (71197.5, 2.400055999999999e-06, 55, 57.5),
    "lreg": (13361.0, 6.0682880000000005e-06, 8, 0.0),
    "hist": (11760.0, 9.99423999999999e-07, 512, 377.0),
    "kmeans": (17540.0, 1.9234250000000027e-06, 208, 0.0),
    "wrdcnt": (37849.039999999986, 1.1444224e-06, 128, 33899.03999999999),
    "revidx": (28088.0, 1.1139072000000001e-06, 96, 24810.0),
    "strmatch": (13689.199999999997, 1.0528768e-06, 32, 11755.199999999997),
}


@pytest.mark.parametrize("name", list(PHOENIX_APPS))
def test_cape_runs_verify_against_golden(name):
    wl = PHOENIX_APPS[name](**TEST_ARGS[name])
    result = wl.run_cape(CAPESystem(SMALL))
    assert result.checked
    assert result.cycles > 0


#: How a pinned run executes: the functional model alone, or with every
#: supported intrinsic also run as microcode on the bit-plane mirror and
#: checked, per instruction or fused inside a superplan scope.
MODES = {
    "functional": dict(backend=None),
    "bitplane": dict(backend="bitplane"),
    "superplan": dict(backend="bitplane", superplan=True),
}


def _pinned_cases():
    # The functional case keeps its bare app-name id.
    for mode in MODES:
        for name in PHOENIX_APPS:
            case_id = name if mode == "functional" else f"{name}-{mode}"
            yield pytest.param(name, mode, id=case_id)


@pytest.mark.parametrize("name, mode", list(_pinned_cases()))
def test_modeled_costs_are_pinned(name, mode):
    cape = CAPESystem(SMALL, **MODES[mode])
    with cape.superplan_scope():
        result = PHOENIX_APPS[name](**TEST_ARGS[name]).run_cape(cape)
    assert result.checked
    stats = cape.stats
    assert (
        stats.cycles,
        stats.energy_j,
        stats.vector_instructions,
        stats.scalar_exposed_cycles,
    ) == PINNED[name]


@pytest.mark.parametrize("name", list(PHOENIX_APPS))
def test_scalar_and_simd_traces_exist(name):
    wl = PHOENIX_APPS[name](**TEST_ARGS[name])
    scalar = wl.scalar_trace()
    simd = wl.simd_trace(16)
    assert scalar.total_ops > 0
    assert simd.total_ops > 0
    assert simd.total_ops < scalar.total_ops


def test_matmul_matches_numpy():
    wl = MatMul(m=4, n=64, p=4)
    cape = CAPESystem(SMALL)
    wl.run_cape(cape)  # internal check against A @ B


def test_matmul_uses_replica_loads():
    wl = MatMul(m=4, n=64, p=4)
    cape = CAPESystem(SMALL)
    wl.run_cape(cape)
    assert cape.vmu.stats.replica_loads == 4  # one vlrw per output column


def test_pca_covariance_is_symmetric_by_construction():
    wl = PCA(rows=4, cols=128)
    assert np.array_equal(wl.expected_cov, wl.expected_cov.T)
    wl.run_cape(CAPESystem(SMALL))


def test_lreg_sums_are_exact():
    wl = LinearRegression(n=2048)
    result = wl.run_cape(CAPESystem(SMALL))
    assert result.checked


def test_histogram_covers_all_pixels():
    wl = Histogram(n=4096)
    assert wl.expected.sum() == 4096
    wl.run_cape(CAPESystem(SMALL))


def test_kmeans_assignments_match_golden():
    wl = KMeans(points=1500, dims=3, k=3, iterations=2)
    wl.run_cape(CAPESystem(SMALL))  # verifies assignments internally


def test_kmeans_reference_breaks_ties_to_the_lower_index():
    """Equidistant centroids: the reference keeps the lowest index, like
    the (n, k, d) broadcast it replaced."""
    rng = np.random.default_rng(7)
    points = rng.integers(0, 64, size=(500, 3)).astype(np.int64)
    # Mirror pairs around each point's neighbourhood: centroids 0/1 and
    # 2/3 sit at equal L1 distance from every point on the axis between
    # them, and 4 duplicates 1 outright.
    centroids = np.array(
        [[16, 32, 32], [48, 32, 32], [32, 16, 32], [32, 48, 32], [48, 32, 32]],
        dtype=np.int64,
    )
    broadcast = np.abs(points[:, None, :] - centroids[None, :, :]).sum(axis=2)
    expected = broadcast.argmin(axis=1)
    ties = (broadcast == broadcast.min(axis=1, keepdims=True)).sum(axis=1) > 1
    assert ties.sum() > 50  # the case under test actually occurs
    assert np.array_equal(_golden_assign(points.T.copy(), centroids), expected)


def test_kmeans_capacity_distinguishes_designs():
    """The default dataset fits CAPE131k (131,072 lanes) but not CAPE32k."""
    wl = KMeans()
    assert 32_768 < wl.points <= 131_072


def test_text_apps_plant_expected_matches():
    for cls in (WordCount, ReverseIndex, StringMatch):
        wl = cls(n=8192)
        assert wl.total_matches() > 0
        assert wl.intensity == "variable"


def test_text_app_counts_are_checked():
    wl = WordCount(n=8192)
    result = wl.run_cape(CAPESystem(SMALL))
    assert result.checked
