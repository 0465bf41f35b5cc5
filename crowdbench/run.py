"""CrowdMap end-to-end benchmark: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 crowdbench/run.py --workload batch_serial --seed 1 --seconds 12 --trace 0

The run has three phases, each in its own process so that no phase's
memory or imports leak into another's numbers:

1. *Inputs.* The workload's campaigns are rendered from ``--seed`` through
   ``repro.world`` by a pool of two worker processes and pickled into a
   scratch directory under ``.crowdbench/``. No metric includes this phase.
2. *Set-up.* Five fresh interpreters each import the program and build
   the workload's objects (pipeline or shard manager, query handlers,
   an empty result cache); ``setup_s`` is the median of the five.
3. *Measurement.* A fresh interpreter runs whole rounds of the workload
   for at least ``--seconds`` seconds, checks every output, and reports
   the end-to-end metrics (``--trace 0``) or, with the layer wrappers of
   ``crowdbench/trace.py`` installed, the per-layer metrics (``--trace 1``).

Each phase runs in a process group of its own. The launcher adopts
orphaned descendants (``PR_SET_CHILD_SUBREAPER``), waits for every process
of a finished phase's group to end, and kills and reaps whatever is left
before it exits, so no process the run starts outlives it.

The last line of standard output is the result object; the lines before
it describe the run (operations per kind, platform, library versions).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: One thread per BLAS/OpenMP pool: the 2-core box runs one caller, and
#: threaded pools add scheduling noise without adding throughput.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_SAMPLES = 5
RENDER_WORKERS = 2

#: Longest a phase may run before its whole process group is killed.
PHASE_TIMEOUT_S = 170
#: How long a finished phase's leftover processes (the multiprocessing
#: resource tracker, pool workers) get to exit on their own.
EXIT_GRACE_S = 5.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch_serial", "batch_process", "live_serving"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="a few operations of the workload (self-check size)")
    parser.add_argument("--phase", choices=("run", "render", "setup", "measure"),
                        default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    return env


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Phase 2: set-up (fresh interpreter, nothing of the program imported yet)
# ----------------------------------------------------------------------


def setup_phase(workload: str) -> float:
    t0 = time.perf_counter()
    from repro.backend.cache import ResultCache, set_cache
    from repro.serving import QueryHandlers
    from crowdbench import workloads as wl

    if workload == "live_serving":
        from repro import CrowdMapConfig
        from repro.serving import ShardManager

        config = CrowdMapConfig()
        ShardManager(config)
    else:
        from repro import CrowdMapPipeline

        config = wl.batch_config(workload)
        CrowdMapPipeline(config)
    QueryHandlers(config)
    set_cache(ResultCache())
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Phase 3: measurement
# ----------------------------------------------------------------------


def measure_phase(args) -> dict:
    from crowdbench import workloads as wl

    paths = sorted(os.path.join(args.inputs, name) for name in os.listdir(args.inputs)
                   if name.endswith(".pkl"))
    tally = wl.Tally()
    tracer = None
    if args.trace:
        from crowdbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    min_rounds = (1 if args.small and args.workload == "live_serving"
                  else wl.MIN_ROUNDS[args.workload])
    correct, error, metrics = True, None, {}
    t0 = time.perf_counter()
    try:
        if args.workload == "live_serving":
            wl.run_live(paths, args.seconds, tally, min_rounds, tracer)
        else:
            wl.run_batch(args.workload, paths, args.seconds, tally, min_rounds, tracer)
        wl.check_locate(tally)
        if tracer is None:
            metrics = wl.end_to_end(tally)
        else:
            tracer.uninstall()
            metrics = wl.per_layer(tally, tracer)
            trace_dir = os.path.join(ROOT, ".crowdbench", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json"))
    except wl.CheckFailed as exc:
        correct, error = False, str(exc)
    update_ms = [round(t * 1e3, 1) for t in tally.update_s]
    return {
        "correct": correct,
        "error": error,
        "attempted_by_kind": tally.attempted,
        "failed_by_kind": tally.failed,
        "metrics": metrics,
        "info": {
            "rounds": tally.rounds,
            "measured_s": time.perf_counter() - t0,
            "update_ms_each": update_ms,
            "update_ms_median": statistics.median(update_ms) if update_ms else None,
            "hallway_f_each": [round(v, 4) for v in tally.hallway_f],
            "hallway_precision_min": min(tally.hallway_precision, default=None),
            "locate_share_within_m": ({r: wl.locate_share(tally, r) for r in (3, 5, 8)}
                                      if tally.locate_errors else None),
            "routes_found": f"{tally.routes_found}/{tally.attempted.get('route', 0)}",
            # Inputs held at once: one campaign on batch, both on live.
            "inputs_held_mb": (sum if args.workload == "live_serving" else max)(
                os.path.getsize(path) for path in paths) / 2**20,
        },
    }


# ----------------------------------------------------------------------
# Phase 1, and the launcher that runs the three phases
# ----------------------------------------------------------------------


def render_inputs(workload: str, seed: int, small: bool, work: str) -> None:
    import multiprocessing

    from crowdbench import campaigns as cb

    plans = cb.LIVE_PLANS if workload == "live_serving" else cb.BATCH_PLANS
    if small and workload != "live_serving":
        plans = plans[:2]
    jobs = [(plan, seed, os.path.join(work, f"{i:02d}.pkl")) for i, plan in enumerate(plans)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(RENDER_WORKERS, len(jobs))) as pool:
        pool.starmap(cb.render_to, jobs)
        pool.close()
        pool.join()


# ----------------------------------------------------------------------
# Process hygiene: no process the run starts outlives it
# ----------------------------------------------------------------------


def become_subreaper() -> bool:
    """Make this process adopt its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that a grandchild whose parent exits
    first -- the resource tracker of a phase's multiprocessing pool, say --
    is reparented here and can be reaped, instead of lingering under init."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def reap_adopted() -> None:
    """Reap every child that has already exited, without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def own_children() -> list:
    """Live and zombie children of this process, adopted ones included."""
    pids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids += [int(pid) for pid in fh.read().split()]
        except OSError:
            pass
    return pids


def end_group(pgid: int) -> None:
    """Wait for every process of a phase's process group to end, killing
    what is still there after the grace period, and reap them all."""
    deadline = time.monotonic() + EXIT_GRACE_S
    killed_at = None
    while True:
        reap_adopted()
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        now = time.monotonic()
        if killed_at is None and now >= deadline:
            os.killpg(pgid, signal.SIGKILL)
            killed_at = now
        elif killed_at is not None and now - killed_at > EXIT_GRACE_S:
            return  # only unreapable zombies of another parent are left
        time.sleep(0.01)


def end_all_children() -> None:
    """Kill and reap whatever child is left, adopted ones included."""
    for pid in own_children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in own_children():
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def run_child(args, phase: str, extra=()) -> dict:
    """Run one phase in a fresh interpreter in a process group of its own;
    return the JSON object on the last line of its output. Every process
    of the group has ended when this returns, on every path out of it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.small:
        cmd.append("--small")
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PHASE_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    finally:
        end_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def platform_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase == "render":
        render_inputs(args.workload, args.seed, args.small, args.inputs)
        print(json.dumps({"rendered": len(os.listdir(args.inputs))}))
        return 0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_phase(args.workload)}))
        return 0
    if args.phase == "measure":
        print(json.dumps(measure_phase(args)))
        return 0

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}; run from the root of a "
              "CrowdMap checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    declared = spec()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}

    become_subreaper()
    work = os.path.join(ROOT, ".crowdbench", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        t0 = time.perf_counter()
        run_child(args, "render", ("--inputs", work))
        render_s = time.perf_counter() - t0
        setups = [run_child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        result = run_child(args, "measure", ("--inputs", work))
    finally:
        end_all_children()
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace and metrics:
        metrics["setup_s"] = statistics.median(setups)
    correct = result["correct"] and set(metrics) == set(units)
    if result["correct"] and not correct:
        result["error"] = (f"reported metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json {sorted(units)}")
    attempted = sum(result["attempted_by_kind"].values())
    failed = sum(result["failed_by_kind"].values())
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "error": result["error"],
        "attempted_by_kind": result["attempted_by_kind"],
        "failed_by_kind": result["failed_by_kind"],
        "render_s": render_s, "setup_samples_s": setups,
        **result["info"], **platform_info(),
    }))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
