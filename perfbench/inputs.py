"""Seeded inputs for the four workloads.

Everything here is a pure function of the seed: the same seed gives the
same request sets, arrival schedules and Phoenix inputs, and the program
only ever receives the generated specs. Request *composition* (how many
of each kernel and lane count) is fixed per workload and only data and
order come from the seed, so the modeled cycles and energy of a request
set do not drift with the seed.

Each expected output is computed here with numpy, independently of the
model, and rides on the spec as ``golden`` so workers check it as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.api import CAPE131K, CAPE32K, CAPEConfig, JobSpec

#: 256 lanes: 8 chains of 32 columns (serve_mirror, batch_gang devices).
LANES_256 = CAPEConfig(name="CAPE256", num_chains=8)
#: 2048 lanes: 64 chains of 32 columns (serve_light devices).
LANES_2K = CAPEConfig(name="CAPE2k", num_chains=64)

#: Phoenix design points, named as in the per-layer metrics.
PHOENIX_DESIGNS: Tuple[Tuple[str, CAPEConfig], ...] = (
    ("cape32k", CAPE32K),
    ("cape131k", CAPE131K),
)

#: Phoenix inputs for the self-tests: every app shrunk to run in well
#: under a second, keeping each app's code path.
PHOENIX_SMOKE_SIZES: Dict[str, dict] = {
    "matmul": {"m": 8, "n": 64, "p": 8},
    "pca": {"rows": 4, "cols": 256},
    "lreg": {"n": 1024},
    "hist": {"n": 4096},
    "kmeans": {"points": 2048, "iterations": 2},
    "wrdcnt": {"n": 4096},
    "revidx": {"n": 4096},
    "strmatch": {"n": 4096},
}


SAXPY_SCALAR = 3


@dataclass(frozen=True)
class Request:
    """One generated request: the spec and the independently computed
    expected output."""

    spec: JobSpec
    expected: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _request(name: str, kernel: str, lanes: int, rng: np.random.Generator) -> Request:
    if kernel == "dot":
        x = rng.integers(0, 1 << 10, lanes)
        y = rng.integers(0, 1 << 10, lanes)
        payload, expected = {"x": x, "y": y}, int((x * y).sum())
    elif kernel == "saxpy_sum":
        x = rng.integers(0, 1 << 10, lanes)
        y = rng.integers(0, 1 << 10, lanes)
        # The scalar is baked into the compiled plan, so it stays fixed:
        # a warm set of one request per shape then covers every plan.
        a = SAXPY_SCALAR
        payload, expected = {"x": x, "y": y, "a": a}, int((a * x + y).sum())
    elif kernel == "vadd_sum":
        data = rng.integers(0, 1 << 10, lanes)
        payload, expected = {"data": data}, int((data + data).sum())
    elif kernel == "match_count":
        data = rng.integers(0, 16, lanes)
        needle = int(rng.integers(0, 16))
        payload, expected = {"data": data, "needle": needle}, int((data == needle).sum())
    else:
        raise ValueError(f"no generator for kernel {kernel!r}")
    spec = JobSpec(name, kernel, payload, lanes=lanes, golden=expected)
    return Request(spec, expected)


def _mix(kernels, lanes) -> List[Tuple[str, int]]:
    return [(k, n) for k in kernels for n in lanes]


def request_set(seed: int, stream: int, prefix: str, mix, per_shape: int) -> List[Request]:
    """``per_shape`` requests of every (kernel, lanes) shape in ``mix``,
    in seeded order with seeded data."""
    rng = _rng(seed, stream)
    shapes = [shape for shape in mix for _ in range(per_shape)]
    order = rng.permutation(len(shapes))
    return [
        _request(f"{prefix}{i}", *shapes[j], rng) for i, j in enumerate(order)
    ]


def warm_set(seed: int, mix, prefix: str) -> List[Request]:
    """One request per shape: the set-up warm set and device probes."""
    return request_set(seed, 1, prefix, mix, 1)


# -- serve_mirror --------------------------------------------------------

MIRROR_MIX = _mix(("dot", "saxpy_sum"), (128, 192, 256))
#: Offered load in requests per second: about 40% of the closed-loop
#: capacity of the mirror gateway on a 2-CPU host.
MIRROR_RATE = 24.0
#: The p95 latency limit a run is read against (s).
MIRROR_P95_LIMIT_S = 0.15


def mirror_schedule(seed: int, seconds: float) -> Tuple[List[Request], np.ndarray]:
    """The open-loop request set and each request's due offset (s).

    ``rate * seconds`` requests (rounded to whole rounds of the mix)
    arrive as a Poisson process conditioned on that count: sorted
    uniform offsets over the run, so the offered rate is the same on
    every seed.
    """
    per_shape = max(1, round(MIRROR_RATE * seconds / len(MIRROR_MIX)))
    requests = request_set(seed, 2, "m", MIRROR_MIX, per_shape)
    span = len(requests) / MIRROR_RATE
    offsets = np.sort(_rng(seed, 3).uniform(0.0, span, len(requests)))
    return requests, offsets


# -- serve_light ---------------------------------------------------------

LIGHT_MIX = _mix(("match_count", "vadd_sum"), (16, 64, 1024, 2048))
LIGHT_CLIENTS = 8


def light_pool(seed: int, per_shape: int = 64) -> List[Request]:
    """The closed-loop request pool; clients cycle through it in order."""
    return request_set(seed, 4, "l", LIGHT_MIX, per_shape)


# -- batch_gang ----------------------------------------------------------

BATCH_MIX = [("dot", 256)]


def batch_jobs(seed: int, jobs: int = 128) -> List[Request]:
    """One batch: structurally identical ``dot`` jobs over seeded data."""
    return request_set(seed, 5, "b", BATCH_MIX, jobs)


# -- phoenix_model -------------------------------------------------------


def phoenix_inputs(seed: int, smoke: bool = False) -> Dict[str, object]:
    """The eight Phoenix apps with seeded inputs (Figure 11 sizes unless
    ``smoke``). Each app generates its data from its own seed argument."""
    from repro.workloads.phoenix import PHOENIX_APPS

    apps = {}
    for index, (name, cls) in enumerate(PHOENIX_APPS.items()):
        sizes = PHOENIX_SMOKE_SIZES[name] if smoke else {}
        apps[name] = cls(seed=seed * 16 + index, **sizes)
    return apps
