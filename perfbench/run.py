"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_mirror --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics (and a Perfetto trace under ``perfbench/out/``). Every run also
writes its full record (host, seed, raw per-run values) to
``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
    }


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing.shared_memory`` starts,
    so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.names import END_TO_END, PER_LAYER, WORKLOADS
    from perfbench.workloads import RUNNERS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        outcome = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), False)
    finally:
        stop_resource_tracker()
    values, units = (
        (outcome.per_layer, PER_LAYER) if args.trace else (outcome.end_to_end, END_TO_END)
    )
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host(),
        "result": result,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "raw": outcome.raw,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if outcome.tracer is not None:
        outcome.tracer.write_chrome(OUT / f"{stem}.trace.json")

    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} attempted={outcome.attempted} failed={outcome.failed}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
