"""Paired regression gate: warm fused fig9 against a pinned revision.

Times the warm whole-kernel superplan pass of the Figure 9 kernel set
(``run_fig9_kernels("bitplane", superplan=True)``: 2,048 lanes, SEW 8)
on a pinned revision's ``src/`` and on the working tree's. Each timing
is one fresh interpreter that warms the plan cache, then reports the
median of ``PASSES`` warm passes. Timings run as ``PAIRS`` pairs, one
per tree, alternating which tree goes first, because host speed drifts
over seconds; the figure of merit is the median per-pair ratio
working/pinned.

The pinned tree is exported with ``git archive`` into a temporary
directory (no network). A revision that git cannot resolve is an
error. The gate fails when the ratio exceeds ``1 + bound``, where
``bound`` is ``BENCHMARK.json``'s host-time bound (``latency_p50_s``).

Usage::

    python benchmarks/paired_gate.py REV
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh-interpreter timings per tree, alternating which tree runs first.
PAIRS = 10
#: Warm fused passes per timing; the timing is their median.
PASSES = 25

#: One timing, run in a fresh interpreter against one tree's ``src/``.
TIMING = """
import statistics, sys
from repro.eval.microprofile import run_fig9_kernels

def fused_pass():
    return run_fig9_kernels("bitplane", num_chains=64, sew=8, superplan=True)[0]

for _ in range(3):
    fused_pass()
print(statistics.median(fused_pass() for _ in range(int(sys.argv[1]))))
"""


def host_time_bound() -> float:
    """``BENCHMARK.json``'s bound on a worse host-time metric."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    return bounds["latency_p50_s"]


def export_src(rev: str, dest: Path) -> Path:
    """``git archive`` the ``src/`` of ``rev`` into ``dest``."""
    resolved = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
         f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if resolved.returncode != 0:
        raise SystemExit(f"paired gate: cannot resolve revision {rev!r}")
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar",
         resolved.stdout.strip(), "src"],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def time_tree(src: Path) -> float:
    """Median warm fused-pass seconds of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", TIMING, str(PASSES)],
        cwd=src.parent, env=env, capture_output=True, text=True, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def summary(label: str, seconds) -> str:
    q1, q2, q3 = statistics.quantiles(seconds, n=4)
    return (f"{label}: median {q2 * 1e3:.3f} ms "
            f"[{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the pinned revision")
    args = parser.parse_args(argv)
    bound = host_time_bound()
    working = ROOT / "src"
    with tempfile.TemporaryDirectory(prefix="paired-gate-") as tmp:
        pinned = export_src(args.rev, Path(tmp))
        times = {pinned: [], working: []}
        for pair in range(PAIRS):
            order = (pinned, working) if pair % 2 == 0 else (working, pinned)
            for tree in order:
                times[tree].append(time_tree(tree))
    ratios = [w / p for w, p in zip(times[working], times[pinned])]
    ratio = statistics.median(ratios)
    print(f"warm fused fig9 (2,048 lanes, SEW 8), {PAIRS} pairs of "
          f"fresh interpreters, median of {PASSES} passes each")
    print(summary(f"pinned {args.rev}", times[pinned]))
    print(summary("working tree", times[working]))
    print(f"median per-pair ratio working/pinned: {ratio:.3f} "
          f"(bar {1 + bound:.2f})")
    if ratio > 1 + bound:
        print(f"paired gate: working tree is {ratio:.3f}x the pinned "
              f"revision, above {1 + bound:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
