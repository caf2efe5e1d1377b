"""Saturation: a 10x-capacity burst must shed load, not buffer it."""

import asyncio

import numpy as np
import pytest

from repro.common.errors import AdmissionError
from repro.engine.system import CAPEConfig
from repro.serve import Gateway, JobSpec, ServeConfig

TINY = CAPEConfig(name="tiny", num_chains=64)


@pytest.mark.slow
def test_burst_beyond_capacity_is_shed_and_recovers():
    """Fire a burst 10x the queue bound at a one-device gateway: the
    overflow must be rejected synchronously with retry hints (bounded
    memory), every admitted request must complete correctly, and the
    gateway must accept traffic again once the burst drains."""
    max_queue = 8
    burst = 10 * max_queue

    async def main():
        cfg = ServeConfig(configs=(TINY,), max_queue=max_queue)
        async with Gateway(cfg) as gw:
            admitted, rejections = [], []
            for i in range(burst):
                spec = JobSpec(
                    f"b{i}", "dot",
                    {"x": np.arange(8) + i, "y": np.arange(8)}, lanes=8,
                )
                try:
                    admitted.append((i, gw.submit_nowait(spec)))
                except AdmissionError as exc:
                    rejections.append(exc)
            results = await asyncio.gather(*(f for _, f in admitted))

            # The gateway recovered: post-burst traffic is admitted.
            late = await gw.submit(
                JobSpec("late", "dot", {"x": np.arange(8), "y": np.arange(8)}, lanes=8)
            )
            return admitted, rejections, results, late, gw.report()

    admitted, rejections, results, late, report = asyncio.run(main())

    # Backpressure engaged: the queue bound held, the rest was shed.
    assert len(admitted) == max_queue
    assert len(rejections) == burst - max_queue
    assert all(r.reason == "queue_full" for r in rejections)
    assert all(
        r.retry_after_s is not None and r.retry_after_s > 0
        for r in rejections
    )
    assert report.rejected_queue_full == burst - max_queue

    # Everything admitted was served correctly under saturation.
    for (i, _), result in zip(admitted, results):
        assert result.output == int(((np.arange(8) + i) * np.arange(8)).sum())
    assert late.ok
    assert report.completed == max_queue + 1
