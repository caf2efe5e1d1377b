"""Worker processes: the pipe protocol, shard state, and crash paths."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, WorkerDiedError
from repro.engine.system import CAPEConfig
from repro.faults import FaultPlan, StuckBit, WorkerKill
from repro.serve import (
    KILLED_EXIT_CODE,
    JobSpec,
    WorkerHandle,
    WorkerOptions,
)

TINY = CAPEConfig(name="tiny", num_chains=64)


def make_handle(fault_plan=None, warmup=(), devices=((0, TINY), (1, TINY))):
    options = WorkerOptions(warmup=tuple(warmup), fault_plan=fault_plan)
    return WorkerHandle(0, devices, options).start()


def send_one(handle, seq, device_id, spec):
    """Ship a one-member ``runs`` frame (a single dispatch)."""
    handle.send_runs(seq, [(device_id, spec, None)])


def dot_spec(name="d", i=0):
    return JobSpec(
        name, "dot", {"x": np.arange(8) + i, "y": np.arange(8)}, lanes=8
    )


class TestProtocol:
    def test_run_reply_matches_in_process_execution(self):
        handle = make_handle()
        try:
            send_one(handle, 7, 0, dot_spec())
            kind, seq, (reply,) = handle.recv(timeout=30)
            assert (kind, seq) == ("results", 7)
            assert reply["output"] == int((np.arange(8) ** 2).sum())
            assert reply["error"] is None
            assert reply["device_dead"] is False
            assert reply["worker_id"] == 0 and reply["device_id"] == 0
            assert reply["jobs_executed"] == 1
        finally:
            handle.shutdown()

    def test_replies_arrive_in_request_order(self):
        handle = make_handle()
        try:
            for seq in range(3):
                send_one(handle, seq, seq % 2, dot_spec(f"j{seq}", i=seq))
            seqs = [handle.recv(timeout=30)[1] for _ in range(3)]
            assert seqs == [0, 1, 2]
        finally:
            handle.shutdown()

    def test_stats_reply_covers_all_devices(self):
        plan = FaultPlan(
            seed=1,
            faults=(StuckBit(row=1, element=0, bit=0, value=1, device=0),),
        )
        handle = make_handle(fault_plan=plan)
        try:
            send_one(handle, 0, 0, dot_spec())
            handle.recv(timeout=30)
            handle.send_stats(1)
            kind, seq, stats = handle.recv(timeout=30)
            assert (kind, seq) == ("stats", 1)
            assert stats["jobs_executed"] == 1
            assert set(stats["devices"]) == {0, 1}
            assert stats["devices"][0] is not None  # injector report
        finally:
            handle.shutdown()

    def test_malformed_spec_costs_one_error_reply_not_the_worker(self):
        handle = make_handle()
        try:
            send_one(handle, 0, 0, JobSpec("bad", "no_such_kernel"))
            _, _, (reply,) = handle.recv(timeout=30)
            assert "no_such_kernel" in reply["error"]
            # The worker is still serving.
            send_one(handle, 1, 0, dot_spec())
            _, _, (reply,) = handle.recv(timeout=30)
            assert reply["error"] is None
        finally:
            handle.shutdown()

    def test_clean_shutdown_exit_code_zero(self):
        handle = make_handle()
        handle.shutdown()
        assert handle.exitcode == 0

    def test_foreign_device_rejected_locally(self):
        handle = make_handle(devices=((3, TINY),))
        try:
            with pytest.raises(ConfigError, match="not owned"):
                send_one(handle, 0, 99, dot_spec())
        finally:
            handle.shutdown()


class TestWarmup:
    def test_warmup_preloads_the_plan_cache(self):
        spec = JobSpec("w", "vadd_sum", {"data": np.arange(8)}, lanes=8)
        options = WorkerOptions(backend="bitplane", warmup=(spec,))
        handle = WorkerHandle(0, ((0, TINY),), options).start()
        try:
            handle.send_stats(0)
            _, _, stats = handle.recv(timeout=30)
            assert stats["plan_cache"]["entries"] > 0
            warm_misses = stats["plan_cache"]["misses"]
            send_one(handle, 1, 0, spec)
            _, _, (reply,) = handle.recv(timeout=30)
            # The served job hit the warmed cache: no new compilations.
            assert reply["plan_cache"]["misses"] == warm_misses
            assert reply["plan_cache"]["hits"] > 0
        finally:
            handle.shutdown()


class TestWorkerKill:
    def test_injected_kill_crashes_at_the_job_boundary(self):
        plan = FaultPlan(faults=(WorkerKill(at_job=2, worker=0),))
        handle = make_handle(fault_plan=plan)
        try:
            send_one(handle, 0, 0, dot_spec("ok"))
            _, _, (reply,) = handle.recv(timeout=30)
            assert reply["error"] is None
            send_one(handle, 1, 0, dot_spec("doomed"))
            with pytest.raises(WorkerDiedError):
                handle.recv(timeout=30)
            handle._process.join(10)
            assert handle.exitcode == KILLED_EXIT_CODE
        finally:
            handle.shutdown()

    def test_kill_for_other_worker_is_ignored(self):
        plan = FaultPlan(faults=(WorkerKill(at_job=1, worker=5),))
        handle = make_handle(fault_plan=plan)
        try:
            send_one(handle, 0, 0, dot_spec())
            _, _, (reply,) = handle.recv(timeout=30)
            assert reply["error"] is None
        finally:
            handle.shutdown()

    def test_send_after_death_raises(self):
        plan = FaultPlan(faults=(WorkerKill(at_job=1, worker=None),))
        handle = make_handle(fault_plan=plan)
        try:
            send_one(handle, 0, 0, dot_spec())
            with pytest.raises(WorkerDiedError):
                handle.recv(timeout=30)
            handle._process.join(10)
            with pytest.raises(WorkerDiedError):
                for _ in range(64):  # a pipe buffers; keep pushing
                    send_one(handle, 1, 0, dot_spec())
        finally:
            handle.shutdown()
