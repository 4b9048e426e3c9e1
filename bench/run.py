"""Benchmark entry point: one workload, one JSON result on the last line.

    python3 bench/run.py --workload embed --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout.  The timed phase runs in one fresh worker
process.  Set-up is timed in that worker and in ``SETUP_SAMPLES - 1`` more
workers that stop after set-up and run one after the other before it; the
median is reported.  With ``--trace 1`` the worker records per-layer spans
and the per-layer metrics (per operation) are reported instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170
# BLAS pools stay at one thread so a run uses no more threads than cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def worker_cmd(args, extra: list[str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
    return cmd + extra


def run_worker(cmd: list[str], deadline: float) -> dict:
    """Run one worker process and return its JSON line."""
    # The worker gets a session of its own, so a timeout also ends its children.
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with {proc.returncode}")
        return json.loads(out.splitlines()[-1])
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def summary(res: dict) -> dict:
    times = res["times"]
    out = {
        "attempted": len(times),
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p50_by_op": {key: statistics.median(ts) for key, ts in res["times_by_op"].items()},
    }
    if len(times) >= 40:  # the highest percentile with ten samples beyond it
        q = 1 - 10 / len(times)
        out["op_s_tail"] = {"q": q, "value": sorted(times)[len(times) - 11]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "plg" / "__init__.py").is_file():
        print(f"error: no plg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setups = [
        run_worker(worker_cmd(args, ["--setup-only"]), deadline)["setup_s"]
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
    ]
    timed = run_worker(worker_cmd(args, []), deadline)
    setups.append(timed["setup_s"])
    res = summary(timed)
    if args.trace:
        from tracing import unit

        metrics = {name: {"value": value, "unit": unit(name)} for name, value in timed["layers"].items()}
        metrics["trace.ops_per_s"] = {"value": res["ops_per_s"], "unit": "1/s"}
    else:
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    info = {k: res[k] for k in ("attempted", "op_s_p50", "op_s_tail", "op_s_p50_by_op") if k in res}
    info.update({k: timed[k] for k in ("reference_loop_s", "errors")})
    info.update(workload=args.workload, seed=args.seed, failed_ops=sorted(set(timed["failed"])), setup_samples_s=setups)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not timed["errors"],
                "attempted": res["attempted"],
                "failed": len(timed["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
