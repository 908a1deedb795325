#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Run from the repository root, for example:

    python3 benchmarks/spread.py --workload paper-orders --seeds 1-10 --seconds 30

Each seed is one `benchmarks/run.py --trace 0` run in a fresh process.  For
every end-to-end metric of the last JSON line, and for the quality figures
printed above it (solved_frac, ground_frac, tts99_s), this prints the median,
the quartiles as `statistics.quantiles(n=4)` gives them, and the spread
(Q3 - Q1) / median.  With `--record PATH` the summary is merged into that
JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import quartile_spread

HERE = Path(__file__).resolve().parent
QUALITY = ("solved_frac", "ground_frac", "tts99_s")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: incorrect result {lines[-1]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        tok = line.split()
        if tok and tok[0] in QUALITY and tok[1] != "n/a":
            values[tok[0]] = math.inf if tok[1] == "unbounded" else float(tok[1])
    return values


def summarize(runs: list[dict[str, float]]) -> dict[str, dict]:
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs if name in r]
        finite = [v for v in values if math.isfinite(v)]
        entry = {"runs": len(values), "unbounded_runs": len(values) - len(finite)}
        if len(finite) >= 2:
            q1, med, q3 = statistics.quantiles(finite, n=4)
            entry.update(median=med, q1=q1, q3=q3,
                         spread=quartile_spread(finite) if med else None)
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--record", help="JSON file to merge the summary into")
    args = parser.parse_args()
    runs = []
    for seed in seed_range(args.seeds):
        runs.append(one_run(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
              flush=True)
    summary = summarize(runs)
    for name, entry in summary.items():
        if "median" in entry:
            spread = "n/a" if entry["spread"] is None else f"{entry['spread']:.4f}"
            print(f"{name:<12} median {entry['median']:.6g}  Q1 {entry['q1']:.6g}  "
                  f"Q3 {entry['q3']:.6g}  spread {spread}  "
                  f"({entry['runs']} runs, {entry['unbounded_runs']} unbounded)")
    if args.record:
        path = Path(args.record)
        record = json.loads(path.read_text()) if path.exists() else {}
        record.setdefault("spreads", {}).setdefault(args.workload, {})[f"seeds {args.seeds}"] = {
            "seconds": args.seconds,
            "metrics": summary,
            "values": {name: [r.get(name) if math.isfinite(r.get(name, 0)) else "unbounded"
                              for r in runs] for name in summary},
        }
        path.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
