"""The four benchmark workloads, each measured from outside the program.

The benchmark times calls into each layer's public functions
(``Gateway.submit``, ``api.submit`` over a ``ServePool``,
``system.reset(); spec.to_job().execute(system)`` on an in-process
``CAPESystem``, ``Workload.run_cape``) and reads the counters the program
already exposes (``Observer``, ``GatewayReport``, ``wire_stats``,
``ServePool.plan_cache_totals``, ``TelemetryReport``, ``CAPERunStats``).

Each workload sets only ``workers``, the device configs and ``backend``;
every other execution knob stays at its ``ExecConfig`` default.

A workload's *units* are what its users submit: requests
(``serve_mirror``, ``serve_light``), jobs (``batch_gang``) and model runs
of one Phoenix app on one design point (``phoenix_model``, whose latency
is per pass of all 16). Every metric is reported on every workload, in
those units; a per-layer metric whose layer a workload never enters
reads 0.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    CAPE32K,
    AdmissionError,
    CAPEConfig,
    CAPESystem,
    ExecConfig,
    Gateway,
    MetricsRegistry,
    Observer,
    PlanCache,
    ReproError,
    ServeConfig,
    ServePool,
    Tracer,
    submit,
)
from repro.obs.trace import PID_WALL, TraceEvent
from repro.workloads.base import ValidationError

from perfbench import inputs
from perfbench.inputs import Request
from perfbench.names import PER_LAYER
from perfbench.stats import median, percentile

#: Worker processes on every serving workload.
WORKERS = 2
#: Set-ups per run, by workload; ``setup_s`` is their median. Cheap
#: set-ups repeat more, so a stray slow one cannot move the median.
SETUP_REPEATS = {"serve_mirror": 3, "serve_light": 7, "batch_gang": 3, "phoenix_model": 5}
#: Requests re-executed in process by a traced run, per workload.
INPROC_SAMPLE = {"serve_mirror": 96, "serve_light": 256, "batch_gang": 32}
#: Head start of the open-loop schedule over the first due time.
OPEN_LOOP_LEAD_S = 0.05
#: Where the program's shared-memory segments appear, and their prefix.
SHM_DIR = "/dev/shm"
SHM_PREFIX = "cape-"
MICROOP_KINDS = ("read", "write", "search", "update", "update_prop", "reduce")
GANG_MISS_REASONS = ("singleton", "backend", "ejected")


class BenchError(RuntimeError):
    """The benchmark could not set up or drive a workload."""


@dataclass
class Outcome:
    """One run of one workload."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, object] = field(default_factory=dict)
    #: A traced run's spans and observer events.
    tracer: Optional[Tracer] = None

    def note(self, what: str, problem: Optional[str]) -> None:
        """Count one attempted unit, failed when ``problem`` is set."""
        self.attempted += 1
        if problem is not None:
            self.fail(f"{what}: {problem}")

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


# ----------------------------------------------------------------------
# Shared checks and readings
# ----------------------------------------------------------------------


def reply_problem(request: Request, result) -> Optional[str]:
    """Why a served or batch result is not the expected output."""
    if result is None:
        return "refused"
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    if result.error is not None:
        return f"error {result.error}"
    if result.validated is not True:
        return "failed the worker's golden check"
    if result.output != request.expected:
        return f"output {result.output!r} != expected {request.expected}"
    return None


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def shm_segments() -> set:
    """The program's shared-memory segment names currently present."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def check_teardown(outcome: Outcome, segments_before: set) -> None:
    """Count leaked segments and live workers as failures."""
    leaked = sorted(shm_segments() - segments_before)
    alive = multiprocessing.active_children()
    if leaked:
        outcome.fail(f"teardown: {len(leaked)} segment(s) left: {leaked[:4]}", len(leaked))
    if alive:
        outcome.fail(f"teardown: {len(alive)} worker(s) still alive", len(alive))
    outcome.raw["teardown"] = {"leaked_segments": len(leaked), "live_workers": len(alive)}


@dataclass
class ModelCosts:
    """Each request's modeled cycles and energy, recomputed in process."""

    cycles: List[float]
    energy: List[float]
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    scalar_exposed_cycles: float = 0.0


def model_costs(config: CAPEConfig, requests: Sequence[Request]) -> ModelCosts:
    """Run every request on the functional and timing model (no mirror)."""
    system = CAPESystem(config)
    costs = ModelCosts([], [])
    for request in requests:
        system.reset()
        result = request.spec.to_job().execute(system)
        costs.cycles.append(result.service_cycles)
        costs.energy.append(result.energy_j)
        stats = system.stats
        costs.compute_cycles += stats.compute_cycles
        costs.memory_cycles += stats.memory_cycles
        costs.scalar_exposed_cycles += stats.scalar_exposed_cycles
    return costs


def check_sim(
    outcome: Outcome,
    config: CAPEConfig,
    requests: Sequence[Request],
    served: Dict[int, Tuple[float, float]],
) -> ModelCosts:
    """Compare every served cost with its in-process recomputation and
    report the request set's modeled totals."""
    costs = model_costs(config, requests)
    cycles = energy = 0.0
    for i, request in enumerate(requests):
        expected = (costs.cycles[i], costs.energy[i])
        got = served.get(i)
        if got is not None and got != expected:
            outcome.fail(
                f"sim: {request.spec.name} served (cycles, J) {got} != modeled {expected}"
            )
        got = got if got is not None else expected
        cycles += got[0]
        energy += got[1]
    outcome.end_to_end["sim_cycles"] = cycles
    outcome.end_to_end["sim_energy_j"] = energy
    return costs


def record_cost(outcome: Outcome, served: dict, index: int, name: str, result) -> None:
    """Keep one served cost; a repeat of the same request must match."""
    cost = (result.service_cycles, result.energy_j)
    previous = served.setdefault(index, cost)
    if previous != cost:
        outcome.fail(f"sim: {name} cost {cost} != earlier {previous}")


def score(outcome: Outcome, requests: Sequence[Request], replies) -> Tuple[dict, List[bool]]:
    """Check every ``(request index, result)`` reply; returns the served
    costs by request index and each reply's verdict."""
    costs: dict = {}
    good = []
    for i, result in replies:
        request = requests[i]
        problem = reply_problem(request, result)
        outcome.note(request.spec.name, problem)
        good.append(problem is None)
        if problem is None:
            record_cost(outcome, costs, i, request.spec.name, result)
    return costs, good


def unit_latency_metrics(outcome: Outcome, latencies: Sequence[float], wall_s: float, done: int) -> None:
    """End-to-end latency and throughput over the measured units."""
    outcome.end_to_end["throughput_per_s"] = done / wall_s
    outcome.end_to_end["latency_p50_s"] = percentile(latencies, 50)
    outcome.end_to_end["latency_mean_s"] = statistics.fmean(latencies)
    tails = {}
    for pct in (95, 99):
        try:
            tails[f"p{pct}_s"] = percentile(latencies, pct)
        except ValueError:
            continue
    outcome.raw["latency"] = {"samples": len(latencies), "wall_s": wall_s, **tails}


def finish(outcome: Outcome, setups: Sequence[float]) -> None:
    outcome.end_to_end["setup_s"] = median(setups)
    outcome.end_to_end["peak_rss_mib"] = peak_rss_mib()
    attempted = max(outcome.attempted, 1)
    outcome.end_to_end["success_rate"] = max(0.0, (attempted - outcome.failed) / attempted)
    outcome.raw["setup_s"] = list(setups)


# ----------------------------------------------------------------------
# In-process layer timings (traced runs only)
# ----------------------------------------------------------------------


def _warm_system(config: CAPEConfig, backend, warm: Sequence[Request], observer=None) -> CAPESystem:
    """An in-process system built as a serve worker builds its devices
    (its own plan cache, the ``ExecConfig`` default superplan mode),
    warmed with the set-up warm set."""
    system = CAPESystem(
        config,
        backend=backend,
        plan_cache=PlanCache(),
        superplan=ExecConfig().superplan,
        observer=observer,
    )
    for request in warm:
        system.reset()
        request.spec.to_job().execute(system)
    return system


def inproc_exec_times(config, backend, warm, requests, tracer) -> List[float]:
    """Per-request host time of ``reset(); to_job().execute()``."""
    system = _warm_system(config, backend, warm)
    times = []
    for request in requests:
        start = time.perf_counter()
        system.reset()
        request.spec.to_job().execute(system)
        times.append(time.perf_counter() - start)
        tracer.complete_wall(
            "inproc.execute", start, times[-1], tid=f"inproc-{backend}",
            rid=request.spec.name, backend=str(backend),
        )
    return times


def inproc_counters(config, backend, warm, requests) -> MetricsRegistry:
    """Counters of one observed in-process pass (superplans, microops)."""
    registry = MetricsRegistry()
    system = _warm_system(config, backend, warm, Observer(metrics=registry))
    registry.clear()
    for request in requests:
        system.reset()
        request.spec.to_job().execute(system)
    return registry


def layer_defaults() -> Dict[str, float]:
    """Every per-layer metric at 0: the value for a layer not entered."""
    return {name: 0.0 for name in PER_LAYER}


def fill_inproc_layers(
    layers: Dict[str, float],
    config: CAPEConfig,
    backend,
    warm: Sequence[Request],
    sample: Sequence[Request],
    tracer: Tracer,
) -> List[float]:
    """Split per-request worker time into engine and mirror time;
    returns each sampled request's exec time with ``backend``."""
    plain = inproc_exec_times(config, None, warm, sample, tracer)
    layers["engine.exec_p50_s"] = percentile(plain, 50)
    if backend is None:
        served = plain
    else:
        served = inproc_exec_times(config, backend, warm, sample, tracer)
        layers["csb.mirror_p50_s"] = percentile(
            [b - p for b, p in zip(served, plain)], 50
        )
    layers["serve.worker.exec_p50_s"] = percentile(served, 50)
    registry = inproc_counters(config, backend, warm, sample)
    for name in ("kernels_in", "kernels_out", "flush"):
        layers[f"plan.superplan.{name}"] = registry.total(f"plan.superplan.{name}")
    for kind in MICROOP_KINDS:
        layers[f"csb.microops.{kind}"] = registry.total("csb.microops", op=kind)
    return served


def fill_model_layers(layers: Dict[str, float], costs: ModelCosts) -> None:
    layers["engine.compute_cycles"] = costs.compute_cycles
    layers["engine.memory_cycles"] = costs.memory_cycles
    layers["engine.scalar_exposed_cycles"] = costs.scalar_exposed_cycles


def fill_gang_layers(layers: Dict[str, float], registry: MetricsRegistry) -> None:
    hits = registry.total("gang.hit")
    misses = {labels.get("reason", "?"): m.value for labels, m in registry.series("gang.miss")}
    attempts = hits + sum(misses.values())
    layers["gang.hit_share"] = hits / attempts if attempts else 0.0
    sizes = registry.series("gang.size")
    count = sum(h.count for _labels, h in sizes)
    layers["gang.size_mean"] = sum(h.total for _l, h in sizes) / count if count else 0.0
    for reason in GANG_MISS_REASONS:
        layers[f"gang.miss.{reason}"] = misses.pop(reason, 0.0)
    layers["gang.miss.other"] = sum(misses.values())
    layers["gang.ejected"] = registry.total("gang.ejected")


def dominant(layers: Dict[str, float], candidates: Dict[str, str]) -> str:
    """The layer whose per-unit time is largest."""
    return max(candidates, key=lambda layer: layers[candidates[layer]])


class Slots:
    """Smallest free track id, so overlapping requests' spans land on
    separate trace tracks."""

    def __init__(self) -> None:
        self._free: List[int] = []
        self._next = 0

    def take(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        self._next += 1
        return self._next - 1

    def give(self, slot: int) -> None:
        heapq.heappush(self._free, slot)


class BenchTracer(Tracer):
    """``repro.obs.Tracer`` plus spans timed by the benchmark itself."""

    def complete_wall(self, name: str, start: float, dur: float, tid: str, **args) -> None:
        """Record a wall-clock span from ``time.perf_counter`` readings."""
        self.events.append(
            TraceEvent(
                name=name, cat="bench", ph="X",
                ts=(start * 1e9 - self._epoch_ns) / 1e3, dur=dur * 1e6,
                pid=PID_WALL, tid=tid, args=args,
            )
        )


# ----------------------------------------------------------------------
# Serving workloads (asyncio Gateway)
# ----------------------------------------------------------------------


GATEWAY_DEVICES = 4


@dataclass(frozen=True)
class ServeShape:
    device: CAPEConfig
    backend: Optional[str]
    mix: list


SHAPES = {
    "serve_mirror": ServeShape(inputs.LANES_256, "bitplane", inputs.MIRROR_MIX),
    "serve_light": ServeShape(inputs.LANES_2K, None, inputs.LIGHT_MIX),
}


async def boot_gateway(shape: ServeShape, warm: Sequence[Request], observer=None):
    """Build the gateway, warm every worker, and probe every device.

    Returns the gateway and its set-up time: from construction until
    every worker has answered a probe.
    """
    config = ServeConfig(
        configs=(shape.device,) * GATEWAY_DEVICES,
        backend=shape.backend,
        warmup=tuple(r.spec for r in warm),
    )
    probes = [warm[i % len(warm)] for i in range(GATEWAY_DEVICES)]
    start = time.perf_counter()
    gateway = Gateway(config, observer=observer, exec=ExecConfig(workers=WORKERS))
    try:
        await gateway.start()
        replies = await asyncio.gather(*(gateway.submit(p.spec) for p in probes))
    except BaseException:
        await gateway.close()
        raise
    elapsed = time.perf_counter() - start
    problems = [reply_problem(p, r) for p, r in zip(probes, replies)]
    answered = {r.worker_id for r in replies}
    if any(problems) or answered != set(range(WORKERS)):
        await gateway.close()
        raise BenchError(f"set-up probes failed: {problems}, workers {answered}")
    return gateway, elapsed


@dataclass
class Served:
    """What the client saw of one measured phase."""

    index: List[int] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    start: float = 0.0
    depth_max: int = 0

    @property
    def latencies(self) -> List[float]:
        return [d - s for d, s in zip(self.done, self.due)]


async def _submit(gateway: Gateway, request: Request):
    try:
        return await gateway.submit(request.spec)
    except AdmissionError:
        return None
    except ReproError as exc:
        return exc


async def open_loop(gateway, requests, offsets, tracer=None) -> Served:
    """Send each request at its due time, whatever the backlog."""
    served = Served()
    slots = Slots()
    served.start = time.perf_counter() + OPEN_LOOP_LEAD_S

    async def one(i: int, due: float) -> None:
        slot = slots.take()
        sent = time.perf_counter()
        result = await _submit(gateway, requests[i])
        done = time.perf_counter()
        slots.give(slot)
        served.index.append(i)
        served.due.append(due)
        served.sent.append(sent)
        served.done.append(done)
        served.results.append(result)
        if tracer is not None:
            tracer.complete_wall(
                "gateway.submit", sent, done - sent, tid=f"client-{slot}",
                rid=requests[i].spec.name, lag_s=sent - due,
            )

    tasks = []
    for i, offset in enumerate(offsets):
        due = served.start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        served.depth_max = max(served.depth_max, gateway.pending)
        tasks.append(asyncio.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    return served


async def closed_loop(gateway, pool, seconds, clients, tracer=None) -> Served:
    """``clients`` callers, each sending its next request on the reply
    to its last, cycling through ``pool`` for ``seconds`` and for at
    least one whole pass over it."""
    served = Served()
    cursor = itertools.count()
    served.start = time.perf_counter()
    stop_at = served.start + seconds

    async def client(c: int) -> None:
        while True:
            n = next(cursor)
            if n >= len(pool) and time.perf_counter() >= stop_at:
                return
            i = n % len(pool)
            served.depth_max = max(served.depth_max, gateway.pending)
            sent = time.perf_counter()
            result = await _submit(gateway, pool[i])
            done = time.perf_counter()
            served.index.append(i)
            served.due.append(sent)
            served.sent.append(sent)
            served.done.append(done)
            served.results.append(result)
            if tracer is not None:
                tracer.complete_wall(
                    "gateway.submit", sent, done - sent, tid=f"client-{c}",
                    rid=f"{pool[i].spec.name}#{n}",
                )

    await asyncio.gather(*(client(c) for c in range(clients)))
    return served


@dataclass
class Phase:
    """One gateway lifetime: set-ups, then a measured phase."""

    setups: List[float]
    served: Served
    report: object
    wire: dict
    wire_before: dict
    plan_after_setup: dict
    wall_index: int
    registry: Optional[MetricsRegistry]


def _plan_totals(report) -> dict:
    totals = {"misses": 0, "compile_ns": 0}
    for cache in report.plan_cache.values():
        for key in totals:
            totals[key] += int(cache.get(key, 0))
    return totals


async def serve_phase(shape, warm, drive, repeats, observer=None) -> Phase:
    """Set the gateway up ``repeats`` times (keeping the last), drive one
    measured phase through it, and close it.

    With an observer, its registry is replaced after set-up, so the
    phase's registry holds only what the measured phase recorded.
    """
    setups = []
    for attempt in range(repeats):
        gateway, elapsed = await boot_gateway(shape, warm, observer)
        setups.append(elapsed)
        if attempt < repeats - 1:
            await gateway.close()
    try:
        report = gateway.report()
        plan_after_setup = _plan_totals(report)
        wall_index = len(report.wall_latencies_s)
        wire_before = dict(gateway.wire_stats)
        if observer is not None:
            observer.metrics = MetricsRegistry()
        served = await drive(gateway)
    finally:
        await gateway.close()
    return Phase(
        setups, served, gateway.report(), dict(gateway.wire_stats), wire_before,
        plan_after_setup, wall_index,
        observer.metrics if observer is not None else None,
    )


def run_serving(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    return asyncio.run(_run_serving(name, seed, seconds, trace, smoke))


async def _run_serving(name, seed, seconds, trace, smoke) -> Outcome:
    shape = SHAPES[name]
    warm = inputs.warm_set(seed, shape.mix, "w")
    if name == "serve_mirror":
        requests, offsets = inputs.mirror_schedule(seed, seconds)

        def drive(tracer=None):
            return lambda gw: open_loop(gw, requests, offsets, tracer)
    else:
        requests = inputs.light_pool(seed, per_shape=8 if smoke else 64)

        def drive(tracer=None):
            return lambda gw: closed_loop(gw, requests, seconds, inputs.LIGHT_CLIENTS, tracer)

    outcome = Outcome()
    segments_before = shm_segments()
    repeats = 1 if (smoke or trace) else SETUP_REPEATS[name]
    phase = await serve_phase(shape, warm, drive(), repeats)
    check_teardown(outcome, segments_before)
    served_costs, good = score(outcome, requests, zip(phase.served.index, phase.served.results))
    served = phase.served
    unit_latency_metrics(outcome, served.latencies, max(served.done) - served.start, sum(good))
    if name == "serve_mirror":
        # A failed or refused request misses the limit.
        limited = [lat if ok else math.inf for lat, ok in zip(served.latencies, good)]
        outcome.raw["p95_limit_s"] = inputs.MIRROR_P95_LIMIT_S
        try:
            outcome.raw["p95_within_limit"] = percentile(limited, 95) <= inputs.MIRROR_P95_LIMIT_S
        except ValueError:
            pass
    costs = check_sim(outcome, shape.device, requests, served_costs)
    finish(outcome, phase.setups)
    if trace:
        await _trace_serving(outcome, name, shape, warm, requests, drive, costs)
    return outcome


async def _trace_serving(outcome, name, shape, warm, requests, drive, costs):
    tracer = BenchTracer()
    observer = Observer(tracer=tracer)
    segments_before = shm_segments()
    phase = await serve_phase(shape, warm, drive(tracer), 1, observer)
    check_teardown(outcome, segments_before)
    traced_costs, _good = score(outcome, requests, zip(phase.served.index, phase.served.results))
    for i, cost in traced_costs.items():
        if i < len(costs.cycles) and cost != (costs.cycles[i], costs.energy[i]):
            outcome.fail(f"sim: traced {requests[i].spec.name} cost {cost} differs")
    layers = layer_defaults()
    served, report = phase.served, phase.report
    layers["client.lag_p95_s"] = percentile([s - d for s, d in zip(served.sent, served.due)], 95)
    layers["serve.gateway.wall_p50_s"] = percentile(report.wall_latencies_s[phase.wall_index:], 50)
    layers["serve.gateway.queue_depth_max"] = served.depth_max
    layers["serve.gateway.rejected"] = report.rejected
    layers["serve.gateway.transport_verdicts"] = (
        sum(report.transport_faults.values()) + report.hedges_issued
    )
    wire, before = phase.wire, phase.wire_before
    frames = wire["frames"] - before["frames"]
    layers["serve.wire.frames"] = frames
    layers["serve.batch.size_mean"] = (wire["batched_jobs"] - before["batched_jobs"]) / max(frames, 1)
    layers["serve.wire.shm_hits"] = wire["shm_hits"] - before["shm_hits"]
    layers["serve.wire.fallbacks"] = wire["fallbacks"] - before["fallbacks"]
    layers["serve.wire.bytes_out"] = wire["bytes_out"] - before["bytes_out"]
    layers["serve.wire.bytes_in"] = wire["bytes_in"] - before["bytes_in"]
    fill_gang_layers(layers, phase.registry)
    totals = _plan_totals(report)
    layers["plan.cache.compile_s"] = phase.plan_after_setup["compile_ns"] / 1e9
    layers["plan.cache.miss_measured"] = totals["misses"] - phase.plan_after_setup["misses"]
    sample = requests[: INPROC_SAMPLE[name]]
    executed = fill_inproc_layers(layers, shape.device, shape.backend, warm, sample, tracer)
    exec_of = dict(enumerate(executed))
    overheads = [
        lat - exec_of[i] for i, lat in zip(served.index, served.latencies) if i in exec_of
    ]
    layers["serve.overhead_p50_s"] = percentile(overheads, 50)
    fill_model_layers(layers, costs)
    layers["obs.trace_overhead"] = (
        statistics.fmean(served.latencies) / outcome.end_to_end["latency_mean_s"]
    )
    outcome.per_layer = layers
    outcome.raw["dominant_layer"] = dominant(
        layers,
        {"csb": "csb.mirror_p50_s", "engine": "engine.exec_p50_s", "serve": "serve.overhead_p50_s"},
    )
    outcome.tracer = tracer


# ----------------------------------------------------------------------
# batch_gang (api.submit over a ServePool)
# ----------------------------------------------------------------------

BATCH_DEVICES = 8


@dataclass
class Batch:
    """One ``api.submit`` call over a freshly built ``ServePool``."""

    wall: float
    results: list
    report: object
    plan: dict
    wire: dict
    jobs_per_worker_max: int


def submit_batch(requests: Sequence[Request], observer=None, tracer=None, rid: str = "") -> Batch:
    start = time.perf_counter()
    pool = ServePool(
        (inputs.LANES_256,) * BATCH_DEVICES,
        exec=ExecConfig(workers=WORKERS),
        backend="bitplane",
        observer=observer,
    )
    results = submit([r.spec for r in requests], pool=pool)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.complete_wall("api.submit", start, wall, tid="batch", rid=rid, jobs=len(requests))
    report = pool.report()
    per_worker: Dict[int, int] = {}
    for device in report.devices:
        worker = pool.worker_of[device.device_id]
        per_worker[worker] = per_worker.get(worker, 0) + device.jobs_run
    return Batch(
        wall, results, report, pool.plan_cache_totals()["total"],
        dict(pool.wire_stats), max(per_worker.values()),
    )


def measure_batches(requests, seconds, observer=None, tracer=None) -> List[Batch]:
    """Whole batches for ``seconds``, and at least two."""
    batches: List[Batch] = []
    start = time.perf_counter()
    while len(batches) < 2 or time.perf_counter() - start < seconds:
        batches.append(submit_batch(requests, observer, tracer, rid=f"batch{len(batches)}"))
    return batches


def _replies(batches: Sequence[Batch]):
    return ((i, result) for batch in batches for i, result in enumerate(batch.results))


def run_batch_gang(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    requests = inputs.batch_jobs(seed, 16 if smoke else 128)
    # Set-up: pool construction plus one batch of one job per device.
    setup_jobs = inputs.request_set(seed, 6, "s", inputs.BATCH_MIX, BATCH_DEVICES)
    outcome = Outcome()
    segments_before = shm_segments()
    setups = []
    for _ in range(1 if (smoke or trace) else SETUP_REPEATS["batch_gang"]):
        batch = submit_batch(setup_jobs)
        problems = [reply_problem(r, res) for r, res in zip(setup_jobs, batch.results)]
        if any(problems):
            raise BenchError(f"set-up batch failed: {problems}")
        setups.append(batch.wall)
    batches = measure_batches(requests, seconds)
    check_teardown(outcome, segments_before)
    costs, good = score(outcome, requests, _replies(batches))
    latencies = [b.wall for b in batches for _ in requests]
    unit_latency_metrics(outcome, latencies, sum(b.wall for b in batches), sum(good))
    outcome.raw["batch_walls_s"] = [b.wall for b in batches]
    model = check_sim(outcome, inputs.LANES_256, requests, costs)
    finish(outcome, setups)
    if trace:
        _trace_batch(outcome, requests, model, seconds)
    return outcome


def _trace_batch(outcome, requests, model, seconds) -> None:
    tracer = BenchTracer()
    observer = Observer(tracer=tracer)
    segments_before = shm_segments()
    batches = measure_batches(requests, seconds, observer, tracer)
    check_teardown(outcome, segments_before)
    score(outcome, requests, _replies(batches))
    layers = layer_defaults()
    layers["serve.pool.run_s"] = median([b.wall for b in batches])
    layers["serve.pool.jobs_per_worker_max"] = median([b.jobs_per_worker_max for b in batches])
    layers["runtime.steals"] = median([b.report.steals for b in batches])
    layers["runtime.makespan_cycles"] = median([b.report.makespan_cycles for b in batches])
    frames = median([b.wire["frames"] for b in batches])
    layers["serve.wire.frames"] = frames
    layers["serve.batch.size_mean"] = median([b.wire["batched_jobs"] for b in batches]) / max(frames, 1)
    for key in ("shm_hits", "fallbacks", "bytes_out", "bytes_in"):
        layers[f"serve.wire.{key}"] = median([b.wire[key] for b in batches])
    fill_gang_layers(layers, observer.metrics)
    layers["plan.cache.compile_s"] = median([b.plan["compile_ns"] for b in batches]) / 1e9
    layers["plan.cache.miss_measured"] = median([b.plan["misses"] for b in batches])
    # A batch worker boots with no warm set; its first job compiles.
    sample = requests[: INPROC_SAMPLE["batch_gang"]]
    fill_inproc_layers(layers, inputs.LANES_256, "bitplane", requests[:1], sample, tracer)
    fill_model_layers(layers, model)
    layers["obs.trace_overhead"] = (
        sum(b.wall for b in batches) / len(batches)
    ) / outcome.end_to_end["latency_mean_s"]
    outcome.per_layer = layers
    outcome.raw["dominant_layer"] = dominant(
        layers, {"csb": "csb.mirror_p50_s", "engine": "engine.exec_p50_s"}
    )
    outcome.tracer = tracer


# ----------------------------------------------------------------------
# phoenix_model (Workload.run_cape on the functional and timing model)
# ----------------------------------------------------------------------


@dataclass
class ModelRun:
    """One Phoenix app on one design point."""

    unit: str
    seconds: float
    cycles: float
    energy: float
    vector_instructions: int
    compute_cycles: float
    memory_cycles: float
    scalar_exposed_cycles: float


def phoenix_pass(outcome: Outcome, apps: dict, observer=None, tracer=None) -> List[ModelRun]:
    runs = []
    for name, app in apps.items():
        for design, config in inputs.PHOENIX_DESIGNS:
            unit = f"{name}.{design}"
            start = time.perf_counter()
            system = CAPESystem(config, observer=observer)
            try:
                problem = None if app.run_cape(system).checked else "result not checked"
            except ValidationError as exc:
                problem = str(exc)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.complete_wall("workload.run_cape", start, elapsed, tid="phoenix", rid=unit)
            outcome.note(unit, problem)
            stats = system.stats
            runs.append(ModelRun(
                unit, elapsed, stats.cycles, stats.energy_j, stats.vector_instructions,
                stats.compute_cycles, stats.memory_cycles, stats.scalar_exposed_cycles,
            ))
    return runs


def check_pass(outcome: Outcome, first: List[ModelRun], runs: List[ModelRun]) -> None:
    """Every model run must cost what it cost in the first pass."""
    for a, b in zip(first, runs):
        if (a.cycles, a.energy) != (b.cycles, b.energy):
            outcome.fail(f"sim: {a.unit} (cycles, J) {(b.cycles, b.energy)} != first pass {(a.cycles, a.energy)}")


def run_phoenix_model(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    outcome = Outcome()
    setups, input_times = [], []
    for _ in range(1 if smoke else SETUP_REPEATS["phoenix_model"]):
        start = time.perf_counter()
        apps = inputs.phoenix_inputs(seed, smoke)
        input_times.append(time.perf_counter() - start)
        CAPESystem(CAPE32K)
        setups.append(time.perf_counter() - start)
    passes: List[List[ModelRun]] = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        passes.append(phoenix_pass(outcome, apps))
    first = passes[0]
    for runs in passes[1:]:
        check_pass(outcome, first, runs)
    walls = [sum(run.seconds for run in runs) for runs in passes]
    # A reproducer waits for the whole suite, so latency is per pass.
    # Two or three passes fit in a run, too few for a percentile: p50 is
    # their plain median, like the set-up repeats. (Per model run, the
    # median sits among apps of near-equal time whose order the seed
    # shuffles, so it jumps between them.)
    outcome.end_to_end["throughput_per_s"] = (outcome.attempted - outcome.failed) / sum(walls)
    outcome.end_to_end["latency_p50_s"] = median(walls)
    outcome.end_to_end["latency_mean_s"] = statistics.fmean(walls)
    outcome.end_to_end["sim_cycles"] = sum(run.cycles for run in first)
    outcome.end_to_end["sim_energy_j"] = sum(run.energy for run in first)
    outcome.raw["pass_walls_s"] = walls
    finish(outcome, setups)
    if trace:
        _trace_phoenix(outcome, apps, passes, walls, input_times)
    return outcome


def _trace_phoenix(outcome, apps, passes, walls, input_times) -> None:
    tracer = BenchTracer()
    traced = phoenix_pass(outcome, apps, Observer(tracer=tracer), tracer)
    check_pass(outcome, passes[0], traced)
    layers = layer_defaults()
    for unit in {run.unit for run in passes[0]}:
        layers[f"engine.app_s.{unit}"] = median(
            [run.seconds for runs in passes for run in runs if run.unit == unit]
        )
    all_runs = [run for runs in passes for run in runs]
    layers["engine.exec_p50_s"] = percentile([run.seconds for run in all_runs], 50)
    layers["engine.host_us_per_vinstr"] = (
        sum(run.seconds for run in all_runs)
        / sum(run.vector_instructions for run in all_runs) * 1e6
    )
    first = passes[0]
    layers["engine.compute_cycles"] = sum(run.compute_cycles for run in first)
    layers["engine.memory_cycles"] = sum(run.memory_cycles for run in first)
    layers["engine.scalar_exposed_cycles"] = sum(run.scalar_exposed_cycles for run in first)
    layers["workloads.inputs_s"] = median(input_times)
    layers["obs.trace_overhead"] = sum(run.seconds for run in traced) / median(walls)
    outcome.per_layer = layers
    per_app: Dict[str, float] = {}
    for run in first:
        app = run.unit.split(".")[0]
        per_app[app] = per_app.get(app, 0.0) + layers[f"engine.app_s.{run.unit}"]
    outcome.raw["dominant_layer"] = max(per_app, key=per_app.get)
    outcome.tracer = tracer


RUNNERS: Dict[str, Callable[[int, float, bool, bool], Outcome]] = {
    "serve_mirror": lambda seed, s, t, smoke: run_serving("serve_mirror", seed, s, t, smoke),
    "serve_light": lambda seed, s, t, smoke: run_serving("serve_light", seed, s, t, smoke),
    "batch_gang": run_batch_gang,
    "phoenix_model": run_phoenix_model,
}
