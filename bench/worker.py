"""One workload run in a fresh process: set-up, warm-up, timed phase, checks.

Started by ``run.py``; prints one JSON line.  The set-up time runs from the
parent's spawn of this process (``--spawned-at``, a ``time.monotonic`` value,
which is system-wide on Linux) to the end of the untimed warm-up, which runs
the first operation of each ``plg`` command in the round once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_ITERATIONS = 2_000_000


def load_cli():
    """Import plg from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "plg" / "__init__.py").is_file():
        raise SystemExit(f"no plg sources under {src}")
    sys.path.insert(0, str(src))
    import plg.cli

    if Path(plg.cli.__file__).resolve().parent != (src / "plg").resolve():
        raise SystemExit(f"plg imported from {plg.cli.__file__}, not from {src}")
    return plg.cli


def reference_loop() -> float:
    """A fixed pure-Python loop, timed beside each run to show machine drift."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i
    return time.perf_counter() - t0


def run_op(cli, op) -> tuple[int, str, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(op.argv)
        dt = time.perf_counter() - t0
    return rc, buf.getvalue(), dt


class Outcomes:
    """Checks each operation: its first occurrence against the independent
    checks, later ones for byte-identical output."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def record(self, op, rc: int, stdout: str) -> bool:
        """False when the operation failed (wrong exit code)."""
        try:
            if rc != op.expect_rc:
                return False
            texts = [p.read_text() for p in op.outputs]
            digest = hashlib.sha256("\0".join([str(rc), stdout, *texts]).encode()).hexdigest()
            if op.key not in self.digests:
                op.check(rc, stdout, texts)
                self.digests[op.key] = digest
            elif self.digests[op.key] != digest:
                raise checks.CheckError("output differs from the first run of the same operation")
        except Exception as exc:  # any malformed output is a wrong answer, not a crash
            self.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
        finally:
            for p in op.outputs:
                p.unlink(missing_ok=True)
        return True


def warm_up(cli, ops) -> list[tuple]:
    """Run the first operation of each command once: (op, exit code, stdout)."""
    first = {op.argv[0]: op for op in reversed(ops)}
    return [(op, *run_op(cli, op)[:2]) for op in ops if first[op.argv[0]] is op]


def measure(cli, ops, seconds: float, tracer, warmups: list[tuple]) -> dict:
    outcomes = Outcomes()
    for op, rc, stdout in warmups:
        outcomes.record(op, rc, stdout)
    for op in ops:
        if op.precheck is not None:
            try:
                op.precheck()
            except checks.CheckError as exc:
                outcomes.errors.append(f"{op.key}: {exc}")
    ref = reference_loop()
    gc.collect()
    times: list[float] = []
    by_op: dict[str, list[float]] = {op.key: [] for op in ops}
    failed_keys: list[str] = []
    while sum(times) < seconds:
        for op in ops:
            if tracer is not None:
                tracer.op = len(times)
            rc, stdout, dt = run_op(cli, op)
            if tracer is not None:
                tracer.op = None
            times.append(dt)
            by_op[op.key].append(dt)
            if not outcomes.record(op, rc, stdout):
                failed_keys.append(op.key)
            gc.collect()
    return {
        "times": times,
        "times_by_op": by_op,
        "failed": failed_keys,
        "errors": outcomes.errors,
        "reference_loop_s": ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--prepare-verify", metavar="DIR")
    args = ap.parse_args(argv)
    spawned = time.monotonic() if args.spawned_at is None else args.spawned_at

    cli = load_cli()
    if args.prepare_verify:
        workloads.prepare_verify(args.seed, Path(args.prepare_verify))
        return 0
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, tmp, ROOT)
        warmups = warm_up(cli, ops)  # the warm-up ends set-up
        setup_s = time.monotonic() - spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        res = measure(cli, ops, args.seconds, tracer, warmups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only once no other run uses it
    res["setup_s"] = setup_s
    if tracer is not None:
        res["layers"] = tracer.metrics(len(res["times"]))
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
