"""Self-tests for the benchmark.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from perfbench.names import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from perfbench.stats import TooFewSamples, min_samples, percentile  # noqa: E402
from perfbench.workloads import RUNNERS  # noqa: E402


def _same_requests(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.spec.name, x.spec.kernel, x.spec.lanes, x.expected) != (
            y.spec.name, y.spec.kernel, y.spec.lanes, y.expected
        ):
            return False
        for key in x.spec.payload:
            if not np.array_equal(x.spec.payload[key], y.spec.payload[key]):
                return False
    return True


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: inputs.mirror_schedule(seed, 5)[0],
        lambda seed: inputs.light_pool(seed, per_shape=4),
        lambda seed: inputs.batch_jobs(seed, 16),
        lambda seed: inputs.warm_set(seed, inputs.MIRROR_MIX, "w"),
    ],
)
def test_request_generators_are_deterministic_per_seed(make):
    assert _same_requests(make(7), make(7))
    assert not _same_requests(make(7), make(8))


def test_arrival_schedule_is_deterministic_per_seed():
    _, first = inputs.mirror_schedule(7, 5)
    _, again = inputs.mirror_schedule(7, 5)
    _, other = inputs.mirror_schedule(8, 5)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert np.all(np.diff(first) >= 0)


def test_request_composition_does_not_depend_on_the_seed():
    def shapes(seed):
        return sorted((r.spec.kernel, r.spec.lanes) for r in inputs.mirror_schedule(seed, 5)[0])

    assert shapes(1) == shapes(2)


def test_phoenix_inputs_are_deterministic_per_seed():
    def arrays(seed):
        apps = inputs.phoenix_inputs(seed, smoke=True)
        return {
            (name, key): value
            for name, app in apps.items()
            for key, value in vars(app).items()
            if isinstance(value, np.ndarray)
        }

    first, again, other = arrays(5), arrays(5), arrays(6)
    assert first.keys() == again.keys()
    assert all(np.array_equal(first[k], again[k]) for k in first)
    assert any(not np.array_equal(first[k], other[k]) for k in first)


@pytest.mark.parametrize("pct, need", [(50, 20), (95, 200), (99, 1000)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(pct, need):
    assert min_samples(pct) == need
    with pytest.raises(TooFewSamples):
        percentile(list(range(need - 1)), pct)
    values = list(range(need))
    assert percentile(values, pct) == values[math.ceil(pct / 100 * need) - 1]


def test_printed_names_equal_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert set(RUNNERS) == set(WORKLOADS)


#: Seconds per smoke pass: enough units for a median on every workload.
SMOKE_SECONDS = {"serve_mirror": 2.0, "serve_light": 1.0, "batch_gang": 0.1, "phoenix_model": 0.1}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_has_no_errors(workload):
    outcome = RUNNERS[workload](3, SMOKE_SECONDS[workload], False, True)
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted > 0
    assert outcome.end_to_end["success_rate"] == 1.0
    assert set(outcome.end_to_end) == set(END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in outcome.end_to_end.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
