"""Serving evaluation: throughput/latency report for pool runs.

Folds a :class:`~repro.runtime.TelemetryReport` into the same
plain-text table format as the paper-figure benches — per-job latency
breakdown, per-device utilization/occupancy, queue-depth histogram, and
a throughput/latency headline — so a runtime experiment drops into the
evaluation flow like any other artefact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.eval.tables import format_table

if TYPE_CHECKING:  # import cycle: repro.runtime._telemetry renders via eval
    from repro.runtime._telemetry import TelemetryReport


def latency_table(report: TelemetryReport) -> str:
    """Wait/service/turnaround percentiles across the job stream."""
    rows: List[list] = []
    for label, values in (
        ("wait", [j.wait_cycles for j in report.jobs]),
        ("service", [j.service_cycles for j in report.jobs]),
        ("turnaround", [j.turnaround_cycles for j in report.jobs]),
    ):
        if not values:
            rows.append([label, 0, 0, 0, 0])
            continue
        ordered = sorted(values)

        def pct(p: float) -> float:
            rank = max(1, int(round(p / 100.0 * len(ordered))))
            return ordered[min(rank, len(ordered)) - 1]

        rows.append(
            [
                label,
                round(sum(ordered) / len(ordered)),
                round(pct(50)),
                round(pct(95)),
                round(ordered[-1]),
            ]
        )
    return format_table(
        ["phase (cycles)", "mean", "p50", "p95", "max"], rows
    )


def wire_table(stats: dict) -> str:
    """Data-plane ledger: frames, batching, bytes, shm hit rate.

    ``stats`` is a serving tier's wire-stats dict
    (:attr:`~repro.serve.pool.ServePool.wire_stats` /
    :attr:`~repro.serve.gateway.Gateway.wire_stats`, the live stats of
    the tier's :class:`~repro.serve.shm.HostWire`).
    """
    frames = stats.get("frames", 0)
    jobs = stats.get("batched_jobs", 0)
    rows = [
        ["wire mode", stats.get("mode", "?")],
        ["frames sent", frames],
        ["jobs carried", jobs],
        ["jobs per frame", round(jobs / frames, 2) if frames else 0.0],
        ["payload bytes out", stats.get("bytes_out", 0)],
        ["payload bytes in", stats.get("bytes_in", 0)],
        ["shm transfers", stats.get("shm_hits", 0)],
        ["pickle fallbacks", stats.get("fallbacks", 0)],
    ]
    return format_table(["wire", "value"], rows)


def healing_table(report: TelemetryReport) -> str:
    """Self-healing ledger: retries, quarantines, and device deaths."""
    retried = [j for j in report.jobs if j.attempts > 0]
    rows = [
        ["retries", report.retries],
        ["jobs retried", len(retried)],
        ["max attempts on one job", max((j.attempts for j in retried), default=0)],
        ["quarantines", report.quarantines],
        ["device deaths", report.device_deaths],
    ]
    return format_table(["event", "count"], rows)


def serving_report(
    report: TelemetryReport,
    title: str = "CAPE pool run",
    wire: dict | None = None,
) -> str:
    """One printable report: headline, jobs, latency, devices, queues.

    A self-healing section (retry/quarantine/death counts) appears only
    when the run actually healed something — fault-free reports are
    unchanged. Pass a serving tier's ``wire_stats`` dict as ``wire`` to
    append a data-plane section (:func:`wire_table`).
    """
    sections = [
        title,
        "=" * len(title),
        report.summary(),
        "",
        "Per-job telemetry",
        report.job_table(),
        "",
        "Latency distribution",
        latency_table(report),
        "",
        "Per-device service record",
        report.device_table(),
        "",
        "Queue-depth histogram (all devices)",
        report.queue_table(),
    ]
    if report.retries or report.quarantines or report.device_deaths:
        sections += [
            "",
            "Self-healing ledger",
            healing_table(report),
        ]
    if wire is not None:
        sections += [
            "",
            "Wire / data plane",
            wire_table(wire),
        ]
    return "\n".join(sections)
