"""Run the benchmark once per seed and report, for each metric, the median,
the quartiles and the spread (interquartile distance over the median).

    python3 perfbench/repeat.py --workload ladder --seeds 1-10 [--trace 1] [--out FILE]

Runs are sequential, one process at a time, from the repository root.  With
--out, the per-run results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("nan"), "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", default="tuning")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace), "--pool", args.pool]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "record": json.loads(lines[-2]), "result": result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    names = runs[0]["result"]["metrics"]
    summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
               for name in names}
    print(f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, s in summary.items():
        print(f"{name:<26} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                        "pool": args.pool, "summary": summary, "runs": runs},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
