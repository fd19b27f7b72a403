"""Benchmark entry point.

    python3 kgbench/run.py --workload triples_stream --seed 1 --seconds 10 --trace 0

Runs one workload on one core-sized local Ray instance and prints, as
the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer breakdown with ``--trace 1``.
Everything else (Ray, Ray Data and the human-readable summary) goes to
stderr. See kgbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# one core for Ray tasks and every thread pool, whatever the host has:
# a fixed count keeps runs comparable across hosts
NPROC = 1

# thread pools (OpenMP, OpenBLAS, MKL; Arrow follows OMP_NUM_THREADS)
# sized before numpy / pyarrow load; Ray workers inherit this environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
)
sys.path[:0] = [ROOT]

OBJECT_STORE_BYTES = 256 * 1024**2
# Ray keeps unix sockets under its temp dir; their paths are limited
# to ~107 bytes, so the in-checkout temp dir is used only when short
_RAY_TMP = os.path.join(ROOT, ".bench_ray")
RAY_TMP = _RAY_TMP if len(_RAY_TMP) <= 45 else None


def _ray_init():
    import ray
    import ray.data

    ray.init(
        num_cpus=NPROC,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        **({"_temp_dir": RAY_TMP} if RAY_TMP else {}),
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(p))
    return kids


def descendants() -> list[int]:
    kids = _children()
    out, todo = [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def ray_workers() -> list[int]:
    """Ray worker processes of this run (their title is ``ray::...``)."""
    out = []
    for p in descendants():
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if f.read(5) == b"ray::":
                    out.append(p)
        except OSError:
            pass
    return out


def reset_peak_rss(pids: list[int]) -> None:
    for p in pids:
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")  # resets VmHWM to the current RSS
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started is gone."""
    import signal

    import ray

    procs = descendants()
    # this run's session dir (logs, spilled objects), removed below
    session = (
        os.path.realpath(os.path.join(RAY_TMP, "session_latest"))
        if RAY_TMP and ray.is_initialized()
        else None
    )
    ray.shutdown()
    deadline = time.time() + timeout_s
    while True:
        alive = [p for p in procs if os.path.exists(f"/proc/{p}")]
        alive = [p for p in alive if _state(p) not in ("Z", None)]
        if not alive:
            break
        if time.time() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.time() + 5
        time.sleep(0.1)
    # reap any zombies that are our own children
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                break
        except ChildProcessError:
            break
    if session:
        shutil.rmtree(session, ignore_errors=True)


def _state(pid: int):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def setup(workload) -> float:
    """``ray.init`` plus one warm call on a tiny input; Ray stays up
    for the timed calls. Returns the set-up time."""
    t0 = time.perf_counter()
    _ray_init()
    workload.warm()
    return time.perf_counter() - t0


def run_end_to_end(workload, seconds: float) -> dict:
    setup_s = setup(workload)
    print(f"setup_s {setup_s:.3f}", file=sys.stderr)
    reset_peak_rss([os.getpid(), *ray_workers()])
    walls, firsts, errors = [], [], []
    attempted = failed = 0
    peak = None
    spent = 0.0
    # whole calls for about `seconds`: stop once the next call would
    # end more than half a call past the budget
    while attempted == 0 or spent + statistics.median(walls or [spent]) / 2 < seconds:
        attempted += 1
        t0 = time.perf_counter()
        try:
            result, first = workload.call(attempted)
        except Exception as ex:  # a failed call is counted, not fatal
            spent += time.perf_counter() - t0
            failed += 1
            errors.append(f"call {attempted} raised {ex!r}")
            if failed >= 3:  # a broken program: more attempts add nothing
                break
            continue
        dt = time.perf_counter() - t0
        spent += dt
        if peak is None:
            # the first call's peak: Ray keeps idle workers, so the sum
            # over live processes grows with the number of calls made
            peak = peak_rss_mb([os.getpid(), *ray_workers()])
        try:
            bad = workload.check(result)
        except Exception as ex:
            bad = [f"check of call {attempted} raised {ex!r}"]
        finally:
            workload.release(result)
        if bad:
            failed += 1
            errors.extend(bad)
            continue
        walls.append(dt)
        firsts.append(first)
    extra, extra_errors = {}, []
    if walls and workload.resumable:
        attempted += 1
        try:
            extra, extra_errors = workload.finish()
        except Exception as ex:
            extra_errors = [f"kill-and-resume raised {ex!r}"]
    errors.extend(extra_errors)
    if "first_batch_s" in extra:
        firsts.append(extra["first_batch_s"])
    metrics = {"setup_s": (setup_s, "s")}
    if walls:
        q1, med, q3 = _quartiles(walls)
        metrics["rows_per_s"] = (workload.rows / med, "1/s")
        metrics["first_batch_s"] = (statistics.median(firsts), "s")
        if not workload.resumable:
            # without a checkpoint, recovering from a kill is a full rerun
            metrics["resume_s"] = (med, "s")
        elif "resume_s" in extra:
            metrics["resume_s"] = (extra["resume_s"], "s")
        metrics["peak_rss_mb"] = (peak, "MB")
        print(
            f"{workload.name}: {workload.rows} input rows; call wall median "
            f"{med:.3f}s q1 {q1:.3f}s q3 {q3:.3f}s n={len(walls)}; rows_per_s "
            f"median {workload.rows / med:.2f} q1 {workload.rows / q3:.2f} "
            f"q3 {workload.rows / q1:.2f}; failed_frac {failed}/{attempted}; "
            f"walls {[round(w, 3) for w in walls]} firsts {[round(f, 3) for f in firsts]}",
            file=sys.stderr,
        )
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed + (1 if extra_errors else 0),
        "metrics": metrics,
        "errors": errors,
    }


def run_traced(workload) -> dict:
    from kgbench import layers

    setup(workload)
    metrics, errors, attempted = layers.trace(workload, NPROC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"traced run did not produce layer metrics {missing}")
    for name in ("trace.residual_s", "trace.overhead_s"):
        print(f"{name} = {metrics[name][0]:.4f} s", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": 1 if errors else 0,
        "metrics": {k: metrics[k] for k in declared},
        "errors": errors,
    }


def main(argv=None) -> int:
    from kgbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # keep stdout for the result line only: Ray's processes inherit fd 1
    result_fd = os.dup(1)
    os.dup2(2, 1)

    work_dir = os.path.join(BENCH_DIR, ".work", args.workload)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    workload.prepare()
    try:
        if args.trace:
            out = run_traced(workload)
        else:
            out = run_end_to_end(workload, args.seconds)
    finally:
        stop_ray()
    for e in out.pop("errors"):
        print(f"ERROR: {e}", file=sys.stderr)
    out["metrics"] = {
        k: {"value": float(v), "unit": u} for k, (v, u) in out["metrics"].items()
    }
    os.write(result_fd, (json.dumps(out) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
