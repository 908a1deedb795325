#!/usr/bin/env python3
"""Benchmark of the hadsearch pipeline: energy, reduction, solving, assembly.

Run from the repository root:

    python3 benchmarks/run.py --workload paper-orders --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 benchmarks/run.py --workload all --smoke --trace 1

Every operation is one in-process call to `hadsearch.cli.main(argv)`, the
call the `hadsearch` console script makes, minus interpreter start-up,
which `setup_s` measures separately in fresh interpreters.  The load is a
closed loop: one caller in one process, the next operation starts when the
previous one returned, and the CLI runs with its default `--workers 1`.

A run repeats passes over the workload's operations, in an order shuffled
from `--seed`, until `--seconds` have elapsed.  After each pass, outside
the timed region, every artifact is checked independently (checks.py).
With `--trace 1`, traced and untraced passes alternate: per-layer metrics
come from the traced passes (tracing.py), end-to-end ones from the others.

The shared host this was written on runs interpreter-bound code up to
twice as slow for stretches of ten to twenty seconds.  So every timed
operation and interpreter start-up is bracketed by a fixed pure-Python
reference loop (reference.py), and on the workloads whose time is spent
in the interpreter (build-chain, anneal-tts) operation times are scaled
to the speed at which that loop takes `reference.NOMINAL_S`.  paper-orders
spends its time in numpy's block evaluation, which those stretches barely
slow, so its times are reported as measured.  Start-up is always scaled.
The benchmark and the interpreters it starts stay on one CPU, the one the
loop measures.  `pass_s` is the sum, over one pass's operations, of each
operation's median time in the run; the unscaled wall time of a pass is
printed beside it.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  The lines before it print every metric
by name and unit for a human reader.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_build, check_search
from metrics import tail_percentile, tts99
from reference import Sampler, pin_to_one_cpu, reference_seconds, scale
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 5  # fresh interpreters timed before and again after the passes

# Bounded end-to-end metrics (BENCHMARK.json).  Per-operation percentiles,
# solved/failed fractions, ground_frac and tts99_s are printed as well but
# move too much between runs on a shared 2-core box to carry a bound.
E2E_METRICS = {"setup_s": "s", "pass_s": "s"}

# Self time per traced pass of each layer group, reported as `<group>_s`.
LAYER_GROUPS = (
    "solver.exhaustive", "quadratize.quadratize", "polynom.spin_to_boolean",
    "polynom.boolean_to_spin", "polynom.save_poly", "solver.anneal", "solver.write_samples",
    "constructions.energy", "constructions.prototypes", "constructions.sequences",
    "ising.from_quadratic", "ising.normalize", "ising.write",
    "hadamard.assemble", "hadamard.verify", "hadamard.write", "cli.self",
)
# Counts per traced pass, taken from arguments and return values.
LAYER_COUNTS = (
    "solver.exhaustive_states", "solver.exhaustive_ground_states",
    "quadratize.rounds", "quadratize.terms_in", "polynom.boolean_to_spin_terms",
    "solver.anneal_flip_attempts", "solver.anneal_ground_hits",
    "constructions.energy_terms", "ising.spins", "ising.couplers",
    "hadamard.verify_calls",
)
LAYER_UNITS = {
    **{f"{group}_s": "s" for group in LAYER_GROUPS},
    **{name: "count" for name in LAYER_COUNTS},
    "solver.exhaustive_states_per_s": "1/s",
    "solver.anneal_flips_per_s": "1/s",
    "solver.anneal_ground_frac": "ratio",
    "hadamard.verify_calls_per_matrix": "ratio",
    "cli.candidates_per_solved": "ratio",
    "cli.bytes_written": "bytes",
    "cli.solved_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

ANNEAL = ("--solver", "anneal", "--reads", "100", "--sweeps", "100")


@dataclass(frozen=True)
class Op:
    command: str
    method: str
    size: int
    extra: tuple[str, ...] = ()

    def argv(self, out: str) -> list[str]:
        flag = "--k" if self.method in ("williamson", "baumert-hall") else "--n"
        return [self.command, "--method", self.method, flag, str(self.size),
                *self.extra, "--out", out]

    @property
    def instance(self) -> str:
        return f"{self.command} {self.method} {self.size}"


def paper_orders(rng):
    """Every order the paper claims, default `auto` solver (exhaustive here)."""
    return ([Op("search", "williamson", k) for k in (3, 5, 7, 9)]
            + [Op("search", "baumert-hall", k) for k in (3, 5, 7, 9)]
            + [Op("search", "turyn", n) for n in (4, 6)]
            + [Op("search", "extended-turyn", 8, ("--m", "2"))])


def build_chain(rng):
    """The reduction chain without a solver."""
    return ([Op("build", "turyn", n) for n in (8, 10, 12)]
            + [Op("build", "williamson", k) for k in (7, 9)])


def anneal_tts(rng):
    """Annealing searches; each pass draws a fresh annealing seed per instance."""
    return [Op("search", method, size, ANNEAL + ("--seed", str(rng.randrange(2**32))))
            for method, size in (("williamson", 7), ("williamson", 9), ("turyn", 6))]


# name -> (ops of one pass, whether every operation must end solved,
#          whether operation times are scaled to the reference speed)
WORKLOADS = {
    "paper-orders": (paper_orders, True, False),
    "build-chain": (build_chain, True, True),
    "anneal-tts": (anneal_tts, False, True),
}


def import_program():
    """Import hadsearch from this checkout's src/, never from elsewhere."""
    if not (SRC / "hadsearch" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'hadsearch'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hadsearch.cli as cli
    import hadsearch.constructions as cons

    return cli, cons


def setup_times(repeats: int) -> list[float]:
    """Scaled wall times of fresh interpreters running `import hadsearch.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import hadsearch.cli"]
    subprocess.run(cmd, env=env, check=True)  # first start may compile bytecode
    times = []
    before = reference_seconds()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        seconds = time.perf_counter() - t0
        after = reference_seconds()
        times.append(seconds * scale([before, after]))
        before = after
    return times


def call(cli, argv, sink):
    """One CLI operation; returns its exit code or a description of what it raised."""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # counted as a failed operation, never fatal
            return f"raised {type(exc).__name__}: {exc}"


@dataclass
class Pass:
    traced: bool
    ops: list
    op_seconds: list  # scaled to the reference speed where the workload is
    raw_seconds: list  # as measured
    outcomes: list


class Runner:
    def __init__(self, name: str, seed: int, cli, cons):
        self.make_ops, self.must_solve, self.scaled = WORKLOADS[name]
        self.rng = random.Random(f"{name}:{seed}")
        self.cli, self.cons = cli, cons
        self.workdir = RUN_DIR / f"{name}-{os.getpid()}"
        self.tracer = Tracer()
        self.energies: dict = {}
        self.op_count = 0
        self.op_scale: dict[int, float] = {}  # op id -> factor applied to its times

    def energy_terms(self, op):
        key = (op.method, op.size)
        if key not in self.energies:
            build = self.cons.williamson_energy if op.method == "williamson" else self.cons.turyn_energy
            self.energies[key] = build(op.size).terms
        return self.energies[key]

    def check(self, op, outdir, rc):
        if op.command == "build":
            return check_build(op, outdir, rc)
        terms = self.energy_terms(op) if "anneal" in op.extra else None
        return check_search(op, outdir, rc, terms)

    def run_pass(self, ops, traced: bool, sink) -> Pass:
        dirs = [str(self.workdir / str(i)) for i in range(len(ops))]
        rcs, op_seconds, raw_seconds = [], [], []
        sampler = Sampler()
        gc.collect()
        with self.tracer.installed() if traced else contextlib.nullcontext():
            before = reference_seconds()
            for op, out in zip(ops, dirs):
                op_id = self.tracer.op = self.op_count
                self.op_count += 1
                with sampler.active() if self.scaled else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    rcs.append(call(self.cli, op.argv(out), sink))
                    seconds = time.perf_counter() - t0 - sampler.spent
                after = reference_seconds()
                self.op_scale[op_id] = (scale([before, after, *sampler.readings])
                                        if self.scaled else 1.0)
                raw_seconds.append(seconds)
                op_seconds.append(seconds * self.op_scale[op_id])
                before = after
        outcomes = [self.check(op, out, rc) for op, out, rc in zip(ops, dirs, rcs)]
        shutil.rmtree(self.workdir, ignore_errors=True)
        return Pass(traced, ops, op_seconds, raw_seconds, outcomes)

    def run(self, seconds: float, trace: bool, smoke: bool) -> list[Pass]:
        passes: list[Pass] = []
        needed = 2 if trace else 1
        with open(os.devnull, "w") as sink:
            if not smoke:  # warm-up: lazy imports and first-call costs
                self.run_pass(self.make_ops(random.Random(0))[:1], False, sink)
            start = time.perf_counter()
            while len(passes) < needed or (not smoke and time.perf_counter() - start < seconds):
                ops = self.make_ops(self.rng)
                if smoke:
                    ops = ops[:1]
                else:
                    self.rng.shuffle(ops)
                traced = trace and len(passes) % 2 == 1
                passes.append(self.run_pass(ops, traced, sink))
        return passes


def pass_seconds(passes) -> float:
    """Sum over one pass's operations of each operation's median scaled time."""
    by_instance: dict[str, list[float]] = {}
    for p in passes:
        for op, seconds in zip(p.ops, p.op_seconds):
            by_instance.setdefault(op.instance, []).append(seconds)
    return sum(statistics.median(times) for times in by_instance.values())


def end_to_end(passes, setup, scaled: bool):
    """End-to-end figures from the untraced passes, with a note on each."""
    plain = [p for p in passes if not p.traced]
    op_seconds = [s for p in plain for s in p.op_seconds]
    pct, tail, n, beyond = tail_percentile(op_seconds)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_seconds(plain),
        "pass_raw_s": statistics.median(sum(p.raw_seconds) for p in plain),
        "op_p50_s": statistics.median(op_seconds),
        "op_tail_s": tail,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters running `import hadsearch.cli`",
        "pass_s": f"sum of per-operation medians over {len(plain)} untraced passes, "
                  + ("scaled to the reference speed" if scaled else "unscaled"),
        "pass_raw_s": "median unscaled wall time of an untraced pass (not bounded)",
        "op_p50_s": f"median of {n} operations",
        "op_tail_s": f"p{pct:.1f} of {n} operations, {beyond} beyond",
    }
    return values, notes


def quality(passes):
    """solved_frac, failed_frac, ground_frac and tts99_s over every pass."""
    pairs = [(op, o) for p in passes for op, o in zip(p.ops, p.outcomes)]
    attempted = len(pairs)
    solved = sum(o.status == "solved" for _, o in pairs)
    failed = sum(o.status == "failed" for _, o in pairs)
    reads = sum(o.reads for _, o in pairs)
    ground = sum(o.ground_reads for _, o in pairs)
    values = {
        "solved_frac": solved / attempted,
        "failed_frac": failed / attempted,
        "ground_frac": ground / reads if reads else None,
        "tts99_s": None,
    }
    # TTS99 over annealing instances: scaled op times from untraced passes, p pooled
    # over every read of the instance in the run.
    by_instance: dict[str, list] = {}
    for p in passes:
        for op, secs, o in zip(p.ops, p.op_seconds, p.outcomes):
            if "anneal" in op.extra:
                times, ops, reads, hits = by_instance.setdefault(op.instance, [[], 0, 0, 0])
                if not p.traced:
                    times.append(secs)
                by_instance[op.instance][1:] = ops + 1, reads + o.reads, hits + o.ground_reads
    if by_instance:
        values["tts99_s"] = tts99([(statistics.median(times), reads / ops, hits / reads)
                                   for times, ops, reads, hits in by_instance.values()])
        values["tts99_instances"] = {
            name: f"p={hits}/{reads}" for name, (_, _, reads, hits) in by_instance.items()
        }
    failures = [f"{op.instance}: {o.reason}" for op, o in pairs if o.status == "failed"]
    unsolved = attempted - solved - failed
    return values, attempted, failed, unsolved, failures


def per_layer(passes, tracer, op_scale, plain_pass_s, traced_pass_s):
    """Per-layer metrics per traced pass, from spans (scaled like the
    operations that contain them) and counts.  On scaled workloads a span
    also holds the reference readings taken while it ran, about 0.4% of it."""
    traced = [p for p in passes if p.traced]
    k = len(traced)
    self_s = tracer.self_times(op_scale)
    calls = tracer.calls()
    counts = {**tracer.counts, "hadamard.verify_calls": calls["hadamard.verify"]}
    out = {f"{group}_s": self_s.get(group, 0.0) / k for group in LAYER_GROUPS}
    out.update({name: counts.get(name, 0) / k for name in LAYER_COUNTS})

    def ratio(a, b):
        return a / b if b else 0.0

    outcomes = [(op, o) for p in traced for op, o in zip(p.ops, p.outcomes)]
    matrices = sum(o.status == "solved" for op, o in outcomes if op.command == "search")
    out["solver.exhaustive_states_per_s"] = ratio(counts.get("solver.exhaustive_states", 0),
                                                  self_s.get("solver.exhaustive", 0.0))
    out["solver.anneal_flips_per_s"] = ratio(counts.get("solver.anneal_flip_attempts", 0),
                                             self_s.get("solver.anneal", 0.0))
    out["solver.anneal_ground_frac"] = ratio(counts.get("solver.anneal_ground_hits", 0),
                                             counts.get("solver.anneal_reads", 0))
    out["hadamard.verify_calls_per_matrix"] = ratio(calls["hadamard.verify"], matrices)
    out["cli.candidates_per_solved"] = ratio(
        calls["solver.exhaustive"] + calls["solver.anneal"], matrices)
    out["cli.bytes_written"] = sum(o.bytes_written for _, o in outcomes) / k
    out["cli.solved_frac"] = ratio(sum(o.status == "solved" for _, o in outcomes), len(outcomes))
    out["trace.overhead_frac"] = traced_pass_s / plain_pass_s - 1.0
    return out


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and math.isinf(value):
        return "unbounded"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(name, seed, seconds, trace, smoke, cli, cons):
    # Start-up is sampled before and after the passes, so that the median
    # spans more than one stretch of the shared machine's load.
    repeats = 1 if smoke else SETUP_REPEATS
    setup = setup_times(repeats)
    runner = Runner(name, seed, cli, cons)
    passes = runner.run(seconds, trace, smoke)
    e2e, notes = end_to_end(passes, setup + setup_times(repeats), runner.scaled)
    q, attempted, failed, unsolved, failures = quality(passes)

    print(f"== {name}  seed={seed}  passes={len(passes)}  operations={attempted}  "
          f"(closed loop, 1 caller, --workers 1)")
    for metric in notes:
        print(f"{metric:<34} {fmt(e2e[metric]):>14} {'s':<6} {notes[metric]}")
    print(f"{'solved_frac':<34} {fmt(q['solved_frac']):>14} {'ratio':<6} "
          f"{unsolved} unsolved, {failed} failed")
    print(f"{'failed_frac':<34} {fmt(q['failed_frac']):>14} {'ratio':<6}")
    print(f"{'ground_frac':<34} {fmt(q['ground_frac']):>14} {'ratio':<6} reads at energy 0 / reads")
    print(f"{'tts99_s':<34} {fmt(q['tts99_s']):>14} {'s':<6} "
          f"{q.get('tts99_instances', 'no annealing in this workload')}")
    for line in failures[:10]:
        print(f"FAILED {line}")

    if trace:
        traced_s = pass_seconds([p for p in passes if p.traced])
        layers = per_layer(passes, runner.tracer, runner.op_scale, e2e["pass_s"], traced_s)
        for metric, unit in LAYER_UNITS.items():
            print(f"{metric:<34} {fmt(layers[metric]):>14} {unit}")
        RUN_DIR.mkdir(exist_ok=True)
        spans_path = RUN_DIR / f"spans-{name}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fp:
            for record in runner.tracer.span_records():
                fp.write(json.dumps(record) + "\n")
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(runner.tracer.spans)} spans)")
        metrics = {m: {"value": layers[m], "unit": u} for m, u in LAYER_UNITS.items()}
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in E2E_METRICS.items()}

    correct = failed == 0 and (unsolved == 0 or not runner.must_solve)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation per pass and the fewest passes (for tests)")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    cli, cons = import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace), args.smoke, cli, cons)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
