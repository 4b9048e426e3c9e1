"""Run the benchmark over many seeds and summarise the spread of each metric.

    python3 bench/steadiness.py --seeds 1-10 --out .bench_out/set-a.json
    python3 bench/steadiness.py --seeds 1-10 --out .bench_out/set-b.json --compare .bench_out/set-a.json
    python3 bench/steadiness.py --seeds 1-3 --trace 1 --out .bench_out/traced.json

Each (workload, seed) is one ``run.py`` call with the run length from
BENCHMARK.json.  The spread is the distance between the first and third
quartile of a metric's values as a share of their median; with ``--compare``
each median is also set against the earlier set's, with the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_all(bench: dict, workloads: list[str], seed_list: list[int], trace: int) -> dict:
    runs: dict[str, list[dict]] = {}
    for w in workloads:
        for s in seed_list:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s), "--seconds", str(bench["run_seconds"])]
            proc = subprocess.run(cmd + ["--trace", str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            runs.setdefault(w, []).append({"seed": s, "info": info, **result})
            print(w, s, json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()})[:300], file=sys.stderr)
    return runs


def summarise(runs: dict) -> dict:
    out = {}
    for w, rs in runs.items():
        row = {"failed_share": sorted({r["failed"] / r["attempted"] for r in rs}), "correct": all(r["correct"] for r in rs)}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            row[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0}
        out[w] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = run_all(bench, names, seeds(args.seeds), args.trace)
    summary = summarise(runs)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text())["summary"] if args.compare else {}
    for w, row in summary.items():
        print(f"{w}: correct={row['correct']} failed share={row['failed_share']}")
        for name, st in row.items():
            if not isinstance(st, dict):
                continue
            line = f"  {name:32s} median {st['median']:.6g}  spread {st['spread']:.3f}"
            if name in bounds:
                line += f"  (bound {bounds[name]['bound']})"
            if w in earlier and name in earlier[w]:
                before = earlier[w][name]["median"]
                worse = (st["median"] - before) / before
                if bounds.get(name, {}).get("better") == "higher":
                    worse = -worse
                line += f"  vs earlier {before:.6g}: worse by {worse:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
