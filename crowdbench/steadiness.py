"""Steadiness command: how far each metric moves from seed to seed.

Runs ``crowdbench/run.py`` once per seed on each workload, one run at a
time, and prints for every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile spread as a
share of the median, next to the bound ``BENCHMARK.json`` gives it. The
bounds in ``BENCHMARK.json`` are chosen from this output. Run from the
root of a checkout::

    python3 crowdbench/steadiness.py --seeds 1-10
    python3 crowdbench/steadiness.py --workloads live_serving --seeds 1-5 --trace 1

``--json PATH`` also writes every run's result object to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit_code"] = proc.returncode
    result["info"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result


def summarize(workload: str, runs, bounds) -> None:
    print(f"\n{workload}: {len(runs)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in runs if r.get("attempted")})
    print(f"  correct: {all(r.get('correct') for r in runs)}; failed/attempted: "
          + ", ".join(f"{s:.4f}" for s in shares))
    names = sorted({name for r in runs for name in r.get("metrics", {})})
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"  {name:28s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            info = result["info"]
            print(f"{workload} seed {seed}: exit {result['exit_code']} "
                  f"correct {result.get('correct')} rounds {info.get('rounds')} "
                  f"render {info.get('render_s')} s measured "
                  f"{info.get('measured_s', 0):.1f} s {info.get('error') or ''}",
                  flush=True)
        everything[workload] = runs
        summarize(workload, runs, bounds)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(everything, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
