"""Run workloads over several seeds, each run in a fresh interpreter.

    python3 perfbench/sweep.py --seeds 1-10                 # spreads, all workloads
    python3 perfbench/sweep.py --workloads serve_mirror --seeds 1-5
    python3 perfbench/sweep.py --seeds 3 --repeat 2         # sim identity on one seed
    python3 perfbench/sweep.py --seeds 1,2 --trace 1        # per-layer shape on two seeds

For untraced runs it prints each end-to-end metric's median and its
quartile spread (the distance between the first and third quartile as a
share of the median) against a third of the metric's bound in
``BENCHMARK.json``. It fails when an output is wrong, when ``sim_cycles``
or ``sim_energy_j`` differ between runs of one seed, or, for traced
runs, when a workload changes shape between seeds: its dominant layer,
its ``gang.hit_share`` or its plan misses in the measured phase. Every
run's values and the host go to ``perfbench/out/sweep-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.names import WORKLOADS  # noqa: E402
from perfbench.run import OUT, host  # noqa: E402
from perfbench.stats import spread  # noqa: E402

SIM_METRICS = ("sim_cycles", "sim_energy_j")
SHAPE_METRICS = ("gang.hit_share", "plan.cache.miss_measured")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "process_s": elapsed, "result": result, "raw": record["raw"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    summary = {"host": host(), "seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = [
            run_once(workload, seed, seconds, args.trace)
            for seed in seeds
            for _ in range(args.repeat)
        ]
        summary["workloads"][workload] = runs
        bad = [r["seed"] for r in runs if not r["result"]["correct"]]
        if bad:
            ok = False
            print(f"{workload}: wrong outputs on seeds {bad}")
        by_seed = {}
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(r)
        names = list(runs[0]["result"]["metrics"])
        print(f"\n{workload}: {len(runs)} runs, "
              f"{statistics.median(r['process_s'] for r in runs):.1f} s each (median)")
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            if args.trace:
                per_seed = {s: [r["result"]["metrics"][name]["value"] for r in rs] for s, rs in by_seed.items()}
                print(f"  {name:<34} {per_seed} {unit}")
                continue
            line = f"  {name:<18} median {statistics.median(values):<14.6g} {unit:<9}"
            if len(values) >= 2:
                width = spread(values)
                limit = bounds.get(name)
                verdict = ""
                if limit is not None and name != "setup_s":
                    verdict = "ok" if width <= limit / 3 else "WIDE"
                line += f" spread {width:.4f} (bound {limit}) {verdict}"
                if verdict == "WIDE":
                    ok = False
            print(line)
        for seed, rs in by_seed.items():
            if args.trace:
                continue
            for name in SIM_METRICS:
                distinct = {r["result"]["metrics"][name]["value"] for r in rs}
                if len(distinct) > 1:
                    ok = False
                    print(f"  {name} differs between runs of seed {seed}: {sorted(distinct)}")
        if args.trace and len(by_seed) > 1:
            shapes = {
                seed: (
                    rs[0]["raw"].get("dominant_layer"),
                    *(rs[0]["result"]["metrics"][m]["value"] for m in SHAPE_METRICS),
                )
                for seed, rs in by_seed.items()
            }
            same = len(set(shapes.values())) == 1
            ok = ok and same
            print(f"  shape (dominant layer, {', '.join(SHAPE_METRICS)}): {shapes} "
                  f"{'same' if same else 'CHANGED'}")
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (OUT / f"sweep-{stamp}.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
