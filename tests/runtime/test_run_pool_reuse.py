"""submit(pool=...): a reused pool keeps the shape its construction fixed."""

import numpy as np
import pytest

from repro.api import ConfigError, JobSpec, Observer, submit
from repro.engine.system import CAPEConfig
from repro.runtime import DevicePool

TINY = CAPEConfig(name="tiny", num_chains=64)


def dot_spec(name):
    return JobSpec(name, "dot", {"x": np.arange(8), "y": np.arange(8)}, lanes=8)


def test_construction_kwargs_conflict_with_pool():
    pool = DevicePool([TINY])
    with pytest.raises(ConfigError, match="pool="):
        submit([dot_spec("x")], pool=pool, backend="bitplane")
    with pytest.raises(ConfigError, match="pool="):
        submit([dot_spec("x")], pool=pool, observer=Observer())
    # A refused call submits nothing: the pool still runs a clean batch.
    assert pool.clock.now == 0
    (result,) = submit([dot_spec("y")], pool=pool)
    assert result.output == int((np.arange(8) ** 2).sum())
