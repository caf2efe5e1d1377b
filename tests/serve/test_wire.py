"""The serving-tier data plane: shm descriptors, batching, zero leaks.

The contract under test (docs/SERVING.md "Wire format & data plane"):
the wire mode changes *how bytes move*, never *what arrives* — results,
placement, and telemetry are bit-identical between ``wire="shm"`` and
``wire="pickle"``; every parent-owned segment is unlinked by close()
(including after worker kills); and a lost or garbled *batched* frame
resolves every member through the same transport detectors as a
single-job frame.
"""

import asyncio
import dataclasses
import glob
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.common.errors import ConfigError, WorkerDiedError
from repro.engine.system import CAPEConfig
from repro.faults import FaultPlan, ReplyDrop, ReplyGarble, WorkerKill
from repro.runtime import DevicePool, ExecConfig
from repro.serve import (
    Gateway,
    JobSpec,
    ResilienceConfig,
    ServeConfig,
    ServePool,
    ShmRef,
    SlabArena,
    WIRE_MODES,
    kernel_names,
    payload_nbytes,
    resolve_wire_mode,
    shm_available,
)
from repro.serve.shm import HostWire, WorkerWire
from repro.serve.spec import KERNELS, register_kernel
from repro.serve.worker import WorkerHandle, WorkerOptions

TINY = CAPEConfig(name="tiny", num_chains=64)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory"
)


def big_array(elements=1_000_000, seed=0):
    return (np.arange(elements, dtype=np.int64) * 13 + seed) % 4099


def shm_residue():
    return glob.glob("/dev/shm/cape-wire-*") + glob.glob("/dev/shm/cape-ring-*")


def assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def dot_specs(n=10):
    return [
        JobSpec(
            f"r{i}", "dot",
            {"x": np.arange(8) + i, "y": np.arange(8) + 1}, lanes=8,
        )
        for i in range(n)
    ]


def sequential_outputs(specs, configs=(TINY, TINY)):
    pool = DevicePool(list(configs))
    jobs = pool.submit_stream([s.to_job() for s in specs])
    pool.run()
    return [j.result.output for j in jobs]


# ----------------------------------------------------------------------
# Mode resolution + config surfaces
# ----------------------------------------------------------------------


class TestWireMode:
    def test_modes_and_validation(self):
        assert WIRE_MODES == ("auto", "shm", "pickle")
        assert resolve_wire_mode("pickle") == "pickle"
        with pytest.raises(ConfigError):
            resolve_wire_mode("carrier-pigeon")

    @needs_shm
    def test_auto_resolves_to_shm_when_available(self):
        assert resolve_wire_mode("auto") == "shm"
        assert resolve_wire_mode("shm") == "shm"

    def test_exec_config_validates_wire(self):
        assert ExecConfig().wire == "auto"
        assert ExecConfig().batch_window_s == 0.0
        with pytest.raises(ConfigError):
            ExecConfig(wire="smoke-signals")
        with pytest.raises(ConfigError):
            ExecConfig(batch_window_s=-0.1)

    def test_serve_config_validates_wire(self):
        # The data plane is execution shape: ServeConfig takes none.
        for knob, value in (("wire", "pickle"), ("batch_window_s", 0.01)):
            with pytest.raises(TypeError, match=knob):
                ServeConfig(**{knob: value})

    def test_exec_clashes_with_serve_config_wire(self):
        # No clash is possible: the gateway's wire comes from exec alone.
        gateway = Gateway(ServeConfig(), exec=ExecConfig(wire="pickle"))
        assert gateway.exec.wire == "pickle"
        fields = {f.name for f in dataclasses.fields(ServeConfig)}
        assert not fields & {"wire", "batch_window_s"}

    def test_payload_nbytes_counts_data_not_envelope(self):
        arr = np.zeros(100, dtype=np.int64)
        ref = ShmRef("seg", 0, (100,), "int64")
        assert payload_nbytes(arr) == 800
        assert payload_nbytes(ref) == 800
        assert payload_nbytes({"a": arr, "b": 3}) == 808
        assert payload_nbytes([arr, arr]) == 1600
        assert payload_nbytes(None) == 0


# ----------------------------------------------------------------------
# Arena + ring primitives
# ----------------------------------------------------------------------


@needs_shm
class TestSlabArena:
    def test_alloc_free_recycles_slab_in_place(self):
        arena = SlabArena(slab_bytes=1 << 16, max_bytes=1 << 18)
        try:
            arr = np.arange(1024, dtype=np.int64)  # 8 KiB
            ref, token = arena.alloc(arr)
            assert ref.nbytes == arr.nbytes
            names = arena.segment_names()
            assert len(names) == 1
            arena.free(token)
            # The empty slab was recycled, not replaced: same segment.
            ref2, token2 = arena.alloc(arr)
            assert ref2.segment == names[0]
            assert ref2.offset == 0
            arena.free(token2)
        finally:
            arena.close()

    def test_exhaustion_returns_none_not_error(self):
        arena = SlabArena(slab_bytes=1 << 12, max_bytes=1 << 12)
        try:
            a = np.arange(256, dtype=np.int64)  # 2 KiB of a 4 KiB cap
            out1 = arena.alloc(a)
            assert out1 is not None
            assert arena.alloc(np.arange(1024, dtype=np.int64)) is None
        finally:
            arena.close()

    def test_close_unlinks_every_slab(self):
        arena = SlabArena()
        arena.alloc(big_array(100_000))
        names = arena.segment_names()
        assert names
        arena.close()
        assert_unlinked(names)


# ----------------------------------------------------------------------
# Spec round-trips: >=1M-element payloads, every kernel, both modes
# ----------------------------------------------------------------------


@needs_shm
class TestSpecRoundTrip:
    @pytest.mark.parametrize("mode", ["shm", "pickle"])
    def test_megapayload_roundtrip_every_kernel(self, mode):
        """A 1M-element payload survives encode -> pickle -> decode for
        every registered kernel, bit for bit, in both wire modes."""
        host = HostWire(mode)
        worker = WorkerWire(None)
        try:
            for i, name in enumerate(kernel_names()):
                data = big_array(1_000_000, seed=i)
                golden = big_array(1_000_000, seed=i + 100)
                spec = JobSpec(
                    f"rt-{name}", name,
                    {"data": data, "x": data, "a": 3, "source": "nop"},
                    lanes=64, golden=golden,
                )
                wire_spec, tokens = host.encode_spec(spec)
                if mode == "shm":
                    assert tokens, f"{name}: big arrays should hit the arena"
                    assert isinstance(wire_spec.payload["data"], ShmRef)
                    # The descriptor crosses the pipe tiny: no array bytes.
                    assert len(pickle.dumps(wire_spec)) < 64 * 1024
                else:
                    assert tokens == ()
                    assert wire_spec is spec
                received = pickle.loads(pickle.dumps(wire_spec))
                decoded = worker.decode_spec(received)
                assert np.array_equal(decoded.payload["data"], data)
                assert np.array_equal(decoded.payload["x"], data)
                assert decoded.payload["a"] == 3
                assert np.array_equal(decoded.golden, golden)
                host.free(tokens)
        finally:
            worker.close()
            host.close()

    def test_small_arrays_stay_inline(self):
        host = HostWire("shm")
        try:
            spec = JobSpec("s", "dot", {"x": np.arange(8)}, lanes=8)
            wire_spec, tokens = host.encode_spec(spec)
            assert wire_spec is spec
            assert tokens == ()
            assert host.stats["shm_hits"] == 0
        finally:
            host.close()

    def test_arena_exhaustion_falls_back_inline(self):
        host = HostWire("shm")
        host._arena = SlabArena(slab_bytes=1 << 12, max_bytes=1 << 12)
        try:
            spec = JobSpec(
                "s", "dot", {"x": big_array(100_000)}, lanes=8
            )
            wire_spec, tokens = host.encode_spec(spec)
            assert tokens == ()
            assert isinstance(wire_spec.payload["x"], np.ndarray)
            assert host.stats["fallbacks"] == 1
        finally:
            host.close()


# ----------------------------------------------------------------------
# Live tiers: bit-identity across modes, array results, accounting
# ----------------------------------------------------------------------


def run_serve_pool(specs, wire, workers=2):
    pool = ServePool(
        [TINY, TINY], exec=ExecConfig(workers=workers, wire=wire)
    )
    jobs = pool.submit_specs(specs, interarrival_cycles=10.0)
    pool.run()
    return [j.result.output for j in jobs], pool.wire_stats


@needs_shm
class TestServePoolWire:
    def test_shm_pickle_and_sequential_agree(self):
        specs = [
            JobSpec(
                f"m{i}", "match_count",
                {"data": big_array(2048, seed=i) % 7, "needle": i % 7},
                lanes=64,
            )
            for i in range(8)
        ]
        want = sequential_outputs(specs)
        got_shm, stats_shm = run_serve_pool(specs, "shm")
        got_pickle, stats_pickle = run_serve_pool(specs, "pickle")
        assert got_shm == want
        assert got_pickle == want
        assert stats_shm["mode"] == "shm"
        assert stats_shm["shm_hits"] > 0
        assert stats_pickle["mode"] == "pickle"
        assert stats_pickle["shm_hits"] == 0
        # Every dispatch rode a counted frame in both modes.
        assert stats_shm["frames"] >= 8
        assert stats_pickle["frames"] >= 8

    def test_array_results_ride_the_reply_ring(self):
        """A kernel returning a big array exercises the worker->parent
        ring; outputs stay bit-identical to the pickle plane."""
        name = "wire_echo_test"

        @register_kernel(name)
        def _echo(system, payload):
            data = np.asarray(payload["data"], dtype=np.int64)
            system.vsetvl(64)
            return data * 2

        try:
            specs = [
                JobSpec(
                    f"e{i}", name, {"data": big_array(100_000, seed=i)},
                    lanes=64,
                )
                for i in range(4)
            ]
            got_shm, stats_shm = run_serve_pool(specs, "shm")
            got_pickle, _ = run_serve_pool(specs, "pickle")
            for a, b in zip(got_shm, got_pickle):
                assert np.array_equal(a, b)
            assert stats_shm["bytes_in"] > 0  # replies used the ring
        finally:
            KERNELS.pop(name, None)


# ----------------------------------------------------------------------
# Gateway: micro-batching, payload accounting, bit-identity
# ----------------------------------------------------------------------


def run_gateway(specs, wire, window_s=0.0, fault_plan=None,
                resilience=None, workers=2, timeout=5.0, devices=None):
    async def main():
        cfg = ServeConfig(
            configs=(TINY,) * (devices or workers),
            max_queue=max(64, len(specs)), fault_plan=fault_plan,
            worker_timeout=timeout,
            resilience=resilience or ResilienceConfig(),
        )
        exec_config = ExecConfig(
            workers=workers, wire=wire, batch_window_s=window_s
        )
        async with Gateway(cfg, exec=exec_config) as gw:
            results = await asyncio.gather(
                *[gw.submit_retrying(s, attempts=50) for s in specs]
            )
            names = gw._host_wire.segment_names()
            return results, gw.report(), dict(gw.wire_stats), names

    return asyncio.run(main())


@needs_shm
class TestGatewayWire:
    def test_batched_shm_identical_to_pickle_and_sequential(self):
        specs = dot_specs(12)
        want = sequential_outputs(specs)

        def by_name(results):
            return [
                r.output
                for r in sorted(results, key=lambda r: int(r.name[1:]))
            ]

        shm_results, shm_report, shm_stats, _ = run_gateway(
            specs, "shm", window_s=0.005
        )
        pk_results, pk_report, pk_stats, _ = run_gateway(specs, "pickle")
        assert by_name(shm_results) == want
        assert by_name(pk_results) == want
        # Payload accounting is data bytes, identical across planes.
        assert shm_report.payload_bytes_out == pk_report.payload_bytes_out > 0
        assert shm_report.payload_bytes_in == pk_report.payload_bytes_in > 0
        assert "payload_bytes_out" in shm_report.as_dict()
        assert shm_stats["frames"] > 0

    def test_batch_window_coalesces_frames(self):
        specs = [
            JobSpec(
                f"b{i}", "match_count",
                {"data": big_array(65_536, seed=i) % 7, "needle": i % 7},
                lanes=64,
            )
            for i in range(16)
        ]
        # 2 workers owning 2 devices each: a full round gives every
        # worker a 2-job frame.
        _, _, stats, _ = run_gateway(
            specs, "shm", window_s=0.01, workers=2, devices=4
        )
        assert stats["batched_jobs"] == 16
        # Coalescing happened: fewer frames than jobs on average.
        assert stats["frames"] < 16


# ----------------------------------------------------------------------
# Zero leaked segments (incl. the worker-kill path)
# ----------------------------------------------------------------------


@needs_shm
class TestZeroLeak:
    def test_gateway_close_unlinks_everything(self):
        specs = dot_specs(8)
        _, _, _, names = run_gateway(specs, "shm", window_s=0.002)
        assert names  # arena slabs and/or reply rings existed
        assert_unlinked(names)
        assert shm_residue() == []

    def test_gateway_close_unlinks_after_worker_kill(self):
        specs = dot_specs(10)
        want = sequential_outputs(specs)
        plan = FaultPlan(faults=(WorkerKill(at_job=2, worker=1),))
        results, report, _, names = run_gateway(
            specs, "shm", window_s=0.002, fault_plan=plan,
            resilience=ResilienceConfig(
                heartbeat_interval_s=0.02, hang_timeout_s=0.4
            ),
            timeout=2.0,
        )
        assert report.worker_deaths == 1
        assert [
            r.output for r in sorted(results, key=lambda r: int(r.name[1:]))
        ] == want
        assert names
        assert_unlinked(names)
        assert shm_residue() == []

    def test_serve_pool_run_leaves_no_residue(self):
        specs = [
            JobSpec(
                f"p{i}", "vadd_sum", {"data": big_array(65_536, seed=i)},
                lanes=64,
            )
            for i in range(4)
        ]
        run_serve_pool(specs, "shm")
        assert shm_residue() == []

    def test_serve_pool_worker_kill_leaves_no_residue(self):
        specs = dot_specs(10)
        plan = FaultPlan(faults=(WorkerKill(at_job=2, worker=0),))
        pool = ServePool(
            [TINY, TINY], fault_plan=plan,
            exec=ExecConfig(workers=2, wire="shm"),
        )
        jobs = pool.submit_specs(specs, interarrival_cycles=10.0)
        pool.run()
        assert all(j.result is not None for j in jobs)
        assert shm_residue() == []

    @pytest.mark.parametrize("front_door", ["pool", "gateway"])
    def test_boot_failing_part_way_leaves_nothing_running(
        self, front_door, monkeypatch
    ):
        """Worker 1 fails to start after worker 0 is up: the boot
        re-raises with worker 0 stopped and every segment unlinked."""
        started = []
        real_start = WorkerHandle.start

        def flaky_start(handle):
            if handle.worker_id == 1:
                raise OSError("injected process start failure")
            started.append(real_start(handle))
            return handle

        monkeypatch.setattr(WorkerHandle, "start", flaky_start)
        exec_config = ExecConfig(workers=2, wire="shm")
        with pytest.raises(OSError, match="injected"):
            if front_door == "pool":
                pool = ServePool([TINY, TINY], exec=exec_config)
                pool.submit_specs(dot_specs(2))
                pool.run()
            else:
                cfg = ServeConfig(configs=(TINY, TINY))
                asyncio.run(Gateway(cfg, exec=exec_config).start())
        assert [h.worker_id for h in started] == [0]
        assert not started[0].alive
        assert shm_residue() == []


# ----------------------------------------------------------------------
# The satellite fix: WorkerDiedError names the worker and frame kind
# ----------------------------------------------------------------------


class TestWorkerDiedMessage:
    def test_send_runs_failure_names_the_frame_kind(self):
        handle = WorkerHandle(5, [(0, TINY)], WorkerOptions()).start()
        try:
            handle.terminate(timeout=5.0)
            with pytest.raises(WorkerDiedError) as exc_info:
                for _ in range(64):
                    handle.send_runs(0, [(0, dot_specs(1)[0], None)])
            message = str(exc_info.value)
            assert "worker 5" in message
            assert "'runs' frame" in message
        finally:
            handle.terminate(timeout=5.0)


# ----------------------------------------------------------------------
# Storms on batched frames (slow stage; check.sh replays this)
# ----------------------------------------------------------------------


@needs_shm
@pytest.mark.slow
class TestBatchedFrameStorms:
    def test_dropped_and_garbled_batch_frames_resolve_every_member(self):
        """A transport fault on a *batched* frame orphans all members at
        once; the seq-gap/heartbeat detectors must still complete every
        request bit-identical to fault-free."""
        specs = dot_specs(24)
        want = sequential_outputs(specs)
        plan = FaultPlan(
            faults=(
                ReplyDrop(at_job=2, worker=0),
                ReplyGarble(at_job=2, worker=1),
                ReplyDrop(at_job=5, worker=1),
            ),
        )
        results, report, stats, _ = run_gateway(
            specs, "shm", window_s=0.005, fault_plan=plan,
            resilience=ResilienceConfig(
                heartbeat_interval_s=0.02, hang_timeout_s=0.5,
                hedge=True, hedge_after_s=0.1,
            ),
            timeout=2.0, workers=2,
        )
        assert [
            r.output for r in sorted(results, key=lambda r: int(r.name[1:]))
        ] == want
        assert report.completed == len(specs)
        faults = report.transport_faults
        assert faults.get("dropped", 0) + faults.get("garbled", 0) > 0
        assert shm_residue() == []

    @pytest.mark.parametrize("seed", [7, 2024])
    def test_seeded_storm_on_batched_shm_frames_matches_fault_free(
        self, seed
    ):
        specs = dot_specs(20)
        want = sequential_outputs(specs, configs=(TINY, TINY, TINY))
        plan = FaultPlan.transport_storm(
            seed, workers=3, hangs=1, slows=1, drops=2, garbles=2,
            max_job=8, slow_delay_s=(0.02, 0.1),
        )
        results, report, _, _ = run_gateway(
            specs, "shm", window_s=0.005, fault_plan=plan,
            resilience=ResilienceConfig(
                heartbeat_interval_s=0.02, hang_timeout_s=0.4,
                hedge=True, hedge_after_s=0.05,
            ),
            timeout=2.0, workers=3,
        )
        assert [
            r.output for r in sorted(results, key=lambda r: int(r.name[1:]))
        ] == want
        assert report.completed == len(specs)
        assert shm_residue() == []
