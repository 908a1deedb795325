#!/usr/bin/env python3
"""Record one benchmark run of a commit as `BENCH_<short-sha>.json`.

Run from the repository root:

    python3 tools/record_bench.py --workload build-chain --seed 0 --commit HEAD

The commit is exported with `git archive` into a temporary directory and
its own `benchmarks/run.py` runs there unchanged, for `SECONDS` with
`--trace 0`; every point of the trajectory uses that run length, and the
seed defaults to run.py's own.  A run that is not correct or has failed
operations is an error and writes nothing.  Otherwise the JSON object that
run prints last is written to `BENCH_<short-sha>.json` in the current
directory, with the commit, workload, seed, seconds, the Python and numpy
versions and the CPU model name added.
"""

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

SECONDS = 30.0


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fp:
        names = [line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")]
    return names[0] if names else platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--commit", default="HEAD")
    args = parser.parse_args(argv)
    repo = Path(__file__).resolve().parent.parent
    git = lambda *a: subprocess.run(["git", "-C", repo, *a], check=True, capture_output=True).stdout
    sha = git("rev-parse", "--short", args.commit).decode().strip()
    with tempfile.TemporaryDirectory() as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=git("archive", sha), check=True)
        run = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(SECONDS), "--trace", "0"],
            cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(run.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{sha}: incorrect result {json.dumps(result)}")
    record = {"commit": sha, "workload": args.workload, "seed": args.seed,
              "seconds": SECONDS, "python": platform.python_version(),
              "numpy": numpy.__version__, "cpu": cpu_model(),
              **result}
    path = Path(f"BENCH_{sha}.json")
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
