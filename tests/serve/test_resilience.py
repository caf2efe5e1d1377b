"""Serving-tier resilience: breakers, transport faults, hedging, deadlines.

The contract under test (docs/SERVING.md "Resilience"): any seeded
transport-fault storm — hangs, stragglers, dropped replies, garbled
replies, process kills — that leaves capacity alive completes every
admitted job with results bit-identical to the fault-free run, and the
failure verdicts are *typed*: slow is not hung is not dead.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import (
    ConfigError,
    DeadlineExceededError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from repro.engine.system import CAPEConfig
from repro.faults import (
    FaultPlan,
    ReplyDrop,
    ReplyGarble,
    SlowWorker,
    WorkerHang,
    WorkerKill,
)
from repro.obs import Observer
from repro.runtime import DevicePool, ExecConfig
from repro.serve import (
    Gateway,
    JobSpec,
    ResilienceConfig,
    ServeConfig,
    ServePool,
)
from repro.serve.resilience import BreakerState, CircuitBreaker
from repro.serve.worker import GARBLED_PAYLOAD, WorkerHandle, WorkerOptions

TINY = CAPEConfig(name="tiny", num_chains=64)

#: Fast-reacting policy for tests: hangs detected in ~0.4s.
FAST = ResilienceConfig(heartbeat_interval_s=0.02, hang_timeout_s=0.4)

#: The storm tests run with gang off and on the default path
#: (``ExecConfig().gang == "auto"``) over the bit-level mirror.
GANG_MODES = pytest.mark.parametrize(
    "gang,backend",
    [(False, None), ("auto", "bitplane")],
    ids=["gang-off", "gang-auto"],
)


def dot_specs(n=12, seed=3):
    rng = np.random.default_rng(seed)
    return [
        JobSpec(
            f"r{i}", "dot",
            {"x": rng.integers(0, 64, size=8), "y": rng.integers(0, 64, size=8)},
            lanes=8,
        )
        for i in range(n)
    ]


def outputs(jobs):
    return [j.result.output for j in jobs]


def sequential_outputs(specs):
    pool = DevicePool([TINY, TINY])
    jobs = pool.submit_stream([s.to_job() for s in specs])
    pool.run()
    return outputs(jobs)


# ----------------------------------------------------------------------
# CircuitBreaker unit behaviour
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(trip_threshold=3, cooldown_s=1.0)
        assert not b.record_failure(now=0.0)
        assert not b.record_failure(now=0.0)
        assert b.state is BreakerState.CLOSED
        assert b.record_failure(now=0.0)  # third in a row trips
        assert b.state is BreakerState.OPEN
        assert b.trips == 1
        assert not b.allow(now=0.5)

    def test_success_resets_the_streak(self):
        b = CircuitBreaker(trip_threshold=2)
        b.record_failure(now=0.0)
        b.record_success()
        assert not b.record_failure(now=0.0)  # streak restarted
        assert b.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        b = CircuitBreaker(trip_threshold=1, cooldown_s=1.0)
        b.record_failure(now=0.0)
        assert b.state is BreakerState.OPEN
        assert not b.allow(now=0.5)  # still cooling down
        assert b.allow(now=1.5)  # cooldown lapsed: the probe
        assert b.state is BreakerState.HALF_OPEN
        assert b.probes == 1
        assert not b.allow(now=1.6)  # one probe at a time
        b.record_success()
        assert b.state is BreakerState.CLOSED
        assert b.allow(now=1.7)

    def test_failed_probe_reopens_with_doubled_cooldown(self):
        b = CircuitBreaker(trip_threshold=1, cooldown_s=1.0)
        b.record_failure(now=0.0)
        assert b.open_until == pytest.approx(1.0)
        assert b.allow(now=2.0)  # probe
        assert b.record_failure(now=2.0)  # probe disproved recovery
        assert b.state is BreakerState.OPEN
        assert b.open_until == pytest.approx(4.0)  # 2.0 + doubled cooldown
        assert b.trips == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(trip_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown_s=0.0)


class TestResilienceConfig:
    def test_hedge_threshold_policy(self):
        off = ResilienceConfig(hedge=False)
        assert off.hedge_threshold(0.1) is None
        explicit = ResilienceConfig(hedge=True, hedge_after_s=0.25)
        assert explicit.hedge_threshold(5.0) == 0.25
        derived = ResilienceConfig(hedge=True, hedge_multiplier=4.0)
        assert derived.hedge_threshold(None) is None  # no EWMA yet
        assert derived.hedge_threshold(0.1) == pytest.approx(0.4)
        assert derived.hedge_threshold(1e-6) == 0.01  # the floor

    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(hang_timeout_s=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(hedge_after_s=-1.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(hedge_multiplier=1.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(default_deadline_s=0.0)

    def test_make_breaker_respects_disable(self):
        assert ResilienceConfig(breaker_threshold=0).make_breaker() is None
        b = ResilienceConfig(breaker_threshold=5).make_breaker()
        assert b.trip_threshold == 5


# ----------------------------------------------------------------------
# WorkerHandle: the recv split + worker-side injection
# ----------------------------------------------------------------------


def make_handle(fault_plan=None, heartbeat_interval_s=0.0):
    return WorkerHandle(
        0,
        [(0, TINY)],
        WorkerOptions(
            fault_plan=fault_plan, heartbeat_interval_s=heartbeat_interval_s
        ),
    ).start()


def send_one(handle, seq, spec, deadline_s=None):
    """Ship a one-member ``runs`` frame (a single dispatch)."""
    handle.send_runs(seq, [(0, spec, deadline_s)])


def recv_result(handle, timeout=30.0):
    """Next non-heartbeat frame."""
    while True:
        msg = handle.recv(timeout=timeout)
        if msg[0] != "heartbeat":
            return msg


class TestWorkerTransport:
    def test_recv_timeout_from_live_worker_is_not_death(self):
        handle = make_handle()
        try:
            with pytest.raises(WorkerTimeoutError):
                handle.recv(timeout=0.05)  # nothing owed, just silent
            assert handle.alive
            # And the pipe still works afterwards.
            send_one(handle, 0, dot_specs(1)[0])
            kind, seq, (reply,) = recv_result(handle)
            assert (kind, seq) == ("results", 0)
            assert reply["error"] is None
        finally:
            handle.shutdown()

    def test_dropped_reply_executes_but_never_arrives(self):
        plan = FaultPlan(faults=(ReplyDrop(at_job=1),))
        handle = make_handle(fault_plan=plan)
        try:
            specs = dot_specs(2)
            send_one(handle, 0, specs[0])
            send_one(handle, 1, specs[1])
            kind, seq, (reply,) = recv_result(handle)
            # Job 1's reply vanished; job 2 answers first — and its
            # lifetime counter proves job 1 ran.
            assert (kind, seq) == ("results", 1)
            assert reply["jobs_executed"] == 2
            handle.send_stats(2)
            stats = recv_result(handle)[2]
            assert stats["transport_injected"]["drop"] == 1
        finally:
            handle.shutdown()

    def test_garbled_reply_carries_the_marker_payload(self):
        plan = FaultPlan(faults=(ReplyGarble(at_job=1),))
        handle = make_handle(fault_plan=plan)
        try:
            send_one(handle, 0, dot_specs(1)[0])
            kind, seq, payload = recv_result(handle)
            assert (kind, seq) == ("results", 0)
            assert payload == GARBLED_PAYLOAD
            assert not isinstance(payload, dict)
        finally:
            handle.shutdown()

    def test_expired_deadline_is_cheap_cancelled(self):
        handle = make_handle()
        try:
            send_one(handle, 0, dot_specs(1)[0], deadline_s=-0.5)
            _, _, (reply,) = recv_result(handle)
            assert reply["deadline_cancelled"]
            assert "DeadlineExceededError" in reply["error"]
            # A live deadline executes normally.
            send_one(handle, 1, dot_specs(1)[0], deadline_s=30.0)
            _, _, (reply,) = recv_result(handle)
            assert reply["error"] is None
            assert not reply.get("deadline_cancelled")
        finally:
            handle.shutdown()

    def test_heartbeats_flow_while_a_slow_job_stalls_the_reply(self):
        plan = FaultPlan(faults=(SlowWorker(delay_s=0.3, at_jobs=(1,)),))
        handle = make_handle(fault_plan=plan, heartbeat_interval_s=0.02)
        try:
            send_one(handle, 0, dot_specs(1)[0])
            beats = 0
            while True:
                msg = handle.recv(timeout=10.0)
                if msg[0] == "heartbeat":
                    beats += 1
                    continue
                break
            assert msg[0] == "results"
            assert beats >= 2  # the pipe was never silent during the stall
        finally:
            handle.shutdown()

    def test_hung_worker_goes_fully_silent_but_stays_alive(self):
        plan = FaultPlan(faults=(WorkerHang(at_job=1),))
        handle = make_handle(fault_plan=plan, heartbeat_interval_s=0.02)
        try:
            send_one(handle, 0, dot_specs(1)[0])
            with pytest.raises(WorkerTimeoutError):
                while True:  # drain straggler heartbeats, then silence
                    handle.recv(timeout=0.3)
            assert handle.alive  # hung, not dead — the taxonomy's point
        finally:
            handle.terminate()


# ----------------------------------------------------------------------
# ServePool resilience (deterministic tier)
# ----------------------------------------------------------------------


class TestServePoolResilience:
    def test_slow_worker_is_not_a_death(self):
        specs = dot_specs(6)
        plan = FaultPlan(faults=(SlowWorker(delay_s=0.2, at_jobs=(1,)),))
        pool = ServePool([TINY, TINY], fault_plan=plan, resilience=FAST)
        jobs = pool.submit_specs(specs)
        pool.run()
        assert outputs(jobs) == sequential_outputs(specs)
        assert not pool._dead_worker_ids  # nobody was declared dead
        assert not pool._unresponsive_worker_ids

    @GANG_MODES
    def test_storm_results_bit_identical_to_sequential(self, gang, backend):
        specs = dot_specs(12)
        plan = FaultPlan(
            faults=(
                SlowWorker(delay_s=0.1, at_jobs=(2,), worker=0),
                ReplyDrop(at_job=2, worker=1),
                ReplyGarble(at_job=4, worker=0),
            ),
        )
        obs = Observer()
        pool = ServePool(
            [TINY, TINY], fault_plan=plan,
            resilience=FAST, worker_timeout=5.0,
            backend=backend, observer=obs, exec=ExecConfig(gang=gang),
        )
        jobs = pool.submit_specs(specs)
        pool.run()
        assert outputs(jobs) == sequential_outputs(specs)
        detected = obs.metrics.total
        assert detected("faults.transport.detected", kind="dropped") >= 1
        assert detected("faults.transport.detected", kind="garbled") >= 1

    def test_hang_is_detected_and_counted_separately(self):
        specs = dot_specs(8)
        plan = FaultPlan(faults=(WorkerHang(at_job=2, worker=1),))
        pool = ServePool(
            [TINY, TINY], fault_plan=plan,
            resilience=FAST, worker_timeout=5.0,
        )
        jobs = pool.submit_specs(specs)
        pool.run()
        assert outputs(jobs) == sequential_outputs(specs)
        assert 1 in pool._unresponsive_worker_ids
        assert 1 in pool._dead_worker_ids  # routed around like a death

    def test_hedged_storm_matches_sequential(self):
        specs = dot_specs(10)
        plan = FaultPlan(faults=(ReplyDrop(at_job=2, worker=0),))
        pool = ServePool(
            [TINY, TINY], fault_plan=plan,
            resilience=ResilienceConfig(
                heartbeat_interval_s=0.02, hang_timeout_s=0.4,
                hedge=True, hedge_after_s=0.05,
            ),
            worker_timeout=5.0,
        )
        jobs = pool.submit_specs(specs)
        pool.run()
        assert outputs(jobs) == sequential_outputs(specs)


# ----------------------------------------------------------------------
# Gateway resilience (live tier)
# ----------------------------------------------------------------------


def gateway(
    fault_plan=None, resilience=FAST, workers=4, gang="auto",
    observer=None, **kw,
):
    kw.setdefault("configs", (TINY,) * 4)
    kw.setdefault("worker_timeout", 5.0)
    return Gateway(
        ServeConfig(fault_plan=fault_plan, resilience=resilience, **kw),
        observer=observer,
        exec=ExecConfig(workers=workers, gang=gang),
    )


async def gather_results(gw, specs, attempts=50):
    return await asyncio.gather(
        *[gw.submit_retrying(s, attempts=attempts) for s in specs]
    )


def gw_outputs(results):
    return [r.output for r in sorted(results, key=lambda r: int(r.name[1:]))]


class TestGatewayResilience:
    @GANG_MODES
    def test_storm_completes_all_jobs_bit_identical(self, gang, backend):
        specs = dot_specs(16)
        want = sequential_outputs(specs)
        # Each worker's first job carries its fault: the first dispatch
        # round gives every device one job, while later jobs go to
        # whichever device frees first, so a fault keyed on a later job
        # may never fire on a loaded host.
        plan = FaultPlan(
            faults=(
                SlowWorker(delay_s=0.15, at_jobs=(1,), worker=0),
                ReplyDrop(at_job=1, worker=1),
                ReplyGarble(at_job=1, worker=2),
                WorkerHang(at_job=1, worker=3),
            ),
        )

        async def main():
            async with gateway(
                plan, worker_timeout=1.0, gang=gang, backend=backend
            ) as gw:
                results = await gather_results(gw, specs)
                return results, gw.report()

        results, report = asyncio.run(main())
        assert gw_outputs(results) == want
        assert report.completed == 16
        assert report.worker_unresponsive == 1
        assert report.worker_deaths == 0  # hang ≠ death in the ledger
        assert report.transport_faults.get("dropped", 0) >= 1
        assert report.transport_faults.get("garbled", 0) >= 1

    def test_hedging_wins_races_against_losses(self):
        specs = dot_specs(16)
        want = sequential_outputs(specs)
        plan = FaultPlan(
            faults=(
                ReplyDrop(at_job=2, worker=0),
                WorkerHang(at_job=3, worker=1),
            ),
        )
        # Hang detection runs before hedging in each gateway tick, so a
        # parent-side stall longer than the hang timeout would condemn
        # the hung worker before its frame is hedged. A timeout no
        # scheduler stall reaches leaves the 50 ms hedge as the only way
        # the hung request completes.
        resilience = ResilienceConfig(
            heartbeat_interval_s=0.02, hang_timeout_s=2.0,
            hedge=True, hedge_after_s=0.05,
        )

        async def main():
            async with gateway(plan, resilience) as gw:
                results = await gather_results(gw, specs)
                return results, gw.report()

        results, report = asyncio.run(main())
        assert gw_outputs(results) == want
        assert report.completed == 16
        assert report.hedges_issued >= 1
        assert (
            report.hedges_won + report.hedges_wasted <= report.hedges_issued
        )

    def test_breaker_trips_on_consecutive_garbles_and_recovers(self):
        specs = dot_specs(12)
        want = sequential_outputs(specs)
        plan = FaultPlan(
            faults=tuple(ReplyGarble(at_job=j, worker=0) for j in (1, 2, 3)),
        )
        resilience = ResilienceConfig(
            heartbeat_interval_s=0.02, hang_timeout_s=0.4,
            breaker_threshold=3, breaker_cooldown_s=0.1,
        )

        async def main():
            async with gateway(
                plan, resilience, configs=(TINY, TINY), workers=2
            ) as gw:
                results = await gather_results(gw, specs)
                return results, gw.report()

        results, report = asyncio.run(main())
        assert gw_outputs(results) == want
        assert report.transport_faults.get("garbled", 0) == 3
        assert report.breaker_trips >= 1

    def test_drain_racing_worker_death_loses_nothing(self):
        """ISSUE 9 satellite: orphans re-queue or fail, never vanish."""
        specs = dot_specs(12)
        want = sequential_outputs(specs)
        plan = FaultPlan(faults=(WorkerKill(at_job=2, worker=1),))

        async def main():
            gw = gateway(plan)
            await gw.start()
            futures = [gw.submit_nowait(s) for s in specs]
            drain = asyncio.create_task(gw.drain())
            results = await asyncio.gather(*futures, return_exceptions=True)
            await drain
            report = gw.report()
            await gw.close()
            return results, report

        results, report = asyncio.run(main())
        # Every admitted request resolved: a result or a typed error.
        assert len(results) == len(specs)
        okay = [r for r in results if not isinstance(r, BaseException)]
        errs = [r for r in results if isinstance(r, BaseException)]
        assert all(
            isinstance(e, (WorkerDiedError, WorkerTimeoutError))
            for e in errs
        )
        assert report.completed == len(okay)
        assert report.completed + report.failed == len(specs)
        # With three surviving workers the retries should all land.
        assert not errs
        assert gw_outputs(okay) == want

    @GANG_MODES
    def test_queued_deadline_is_cancelled_not_run(self, gang, backend):
        async def main():
            async with gateway(
                None,
                ResilienceConfig(
                    heartbeat_interval_s=0.02, hang_timeout_s=0.4,
                ),
                configs=(TINY,),
                workers=1,
                max_queue=64,
                gang=gang,
                backend=backend,
            ) as gw:
                blockers = [
                    gw.submit_nowait(s) for s in dot_specs(4, seed=11)
                ]
                doomed = gw.submit_nowait(
                    JobSpec(
                        "doomed", "dot",
                        {"x": np.arange(8), "y": np.arange(8)},
                        lanes=8, deadline_s=1e-4,
                    )
                )
                results = await asyncio.gather(
                    *blockers, doomed, return_exceptions=True
                )
                return results, gw.report()

        results, report = asyncio.run(main())
        assert isinstance(results[-1], DeadlineExceededError)
        assert all(not isinstance(r, BaseException) for r in results[:-1])
        assert report.deadline_cancelled == 1

    def test_generous_deadlines_count_met(self):
        specs = [
            JobSpec(
                f"r{i}", "dot",
                {"x": np.arange(8) + i, "y": np.arange(8)},
                lanes=8, deadline_s=30.0,
            )
            for i in range(6)
        ]

        async def main():
            async with gateway() as gw:
                await gather_results(gw, specs)
                return gw.report()

        report = asyncio.run(main())
        assert report.deadline_met == 6
        assert report.deadline_missed == 0


# ----------------------------------------------------------------------
# Property: any storm with hedging on is bit-identical to fault-free
# ----------------------------------------------------------------------


class TestStormProperty:
    @GANG_MODES
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_seeded_storm_with_hedging_matches_fault_free(
        self, seed, gang, backend
    ):
        specs = dot_specs(10, seed=5)
        want = sequential_outputs(specs)
        plan = FaultPlan.transport_storm(
            seed,
            workers=3,
            hangs=1,
            slows=1,
            drops=1,
            garbles=1,
            max_job=6,
            slow_delay_s=(0.02, 0.1),
        )
        resilience = ResilienceConfig(
            heartbeat_interval_s=0.02, hang_timeout_s=0.4,
            hedge=True, hedge_after_s=0.05,
        )

        obs = Observer()

        async def main():
            async with gateway(
                plan, resilience, configs=(TINY,) * 3, workers=3,
                worker_timeout=2.0, gang=gang, backend=backend, observer=obs,
            ) as gw:
                return await gather_results(gw, specs)

        results = asyncio.run(main())
        assert gw_outputs(results) == want
        # Every drop and garble a worker reports injecting (the tally
        # rides the same heartbeat as the drop detector's progress mark)
        # was detected by the parent.
        metrics = obs.metrics
        for injected, detected in (("drop", "dropped"), ("garble", "garbled")):
            assert metrics.total(
                "faults.transport.detected", kind=detected
            ) >= metrics.total("faults.transport.injected", kind=injected)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_storm_replays_bit_for_bit_under_same_seed(self, seed):
        a = FaultPlan.transport_storm(seed, workers=3, kills=1)
        b = FaultPlan.transport_storm(seed, workers=3, kills=1)
        assert a == b
        assert a.transport_for_worker(1) == b.transport_for_worker(1)


# ----------------------------------------------------------------------
# The long soak (slow marker; check.sh runs it in the slow stage)
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestChaosSoak:
    @GANG_MODES
    def test_long_storm_with_kills_completes_everything(self, gang, backend):
        specs = dot_specs(48, seed=13)
        want = sequential_outputs(specs)
        plan = FaultPlan.transport_storm(
            99, workers=4, hangs=1, slows=3, drops=3, garbles=3, kills=1,
            max_job=16, slow_delay_s=(0.05, 0.2),
        )
        resilience = ResilienceConfig(
            heartbeat_interval_s=0.02, hang_timeout_s=0.5,
            hedge=True, hedge_after_s=0.1,
        )

        async def main():
            async with gateway(
                plan, resilience, configs=(TINY,) * 4, workers=4,
                worker_timeout=2.0, max_queue=128, gang=gang, backend=backend,
            ) as gw:
                results = await gather_results(gw, specs)
                return results, gw.report()

        results, report = asyncio.run(main())
        assert gw_outputs(results) == want
        assert report.completed == 48
