"""Outside-in tracing of hadsearch's public functions.

`Tracer.installed()` replaces the module-level functions that the CLI
reaches with wrappers that record one span per call: name, start, end,
parent span and op id.  The program's own files stay untouched; the
originals are put back when the context exits, so untraced passes in the
same process run the unwrapped code.

Per-term algebra (`MultilinearPoly.mul` / `add`) is deliberately not
wrapped: it runs once per term and the wrappers would dominate its time.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter, defaultdict


def _energy_terms(args, kwargs, result):
    yield "constructions.energy_terms", len(result.terms)


def _boolean_to_spin_terms(args, kwargs, result):
    yield "polynom.boolean_to_spin_terms", len(args[0].terms)


def _quadratize_counts(args, kwargs, result):
    yield "quadratize.rounds", len(result[1].entries)
    yield "quadratize.terms_in", len(args[0].terms)


def _ising_counts(args, kwargs, result):
    yield "ising.spins", result.nvars
    yield "ising.couplers", len(result.J)


def _exhaustive_counts(args, kwargs, result):
    yield "solver.exhaustive_states", 1 << args[0].nvars
    yield "solver.exhaustive_ground_states", sum(
        s.occurrences for s in result.samples if s.energy == result.min_energy
    )


def _anneal_counter(signature):
    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        yield "solver.anneal_flip_attempts", a["reads"] * a["sweeps"] * a["model"].nvars
        yield "solver.anneal_reads", result.reads
        yield "solver.anneal_ground_hits", sum(
            s.occurrences for s in result.samples if s.energy == 0
        )
    return count


def _consume_generator(fn):
    """Run a generator function to the end inside the span; callers iterate."""
    def eager(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))
    return eager


def wrap_specs():
    """(owner, attribute, layer group, counter) for every traced function.

    A group's self time is reported as the per-layer metric `<group>_s`.
    """
    import hadsearch.cli as cli
    import hadsearch.constructions as cons
    import hadsearch.hadamard as hm
    import hadsearch.ising as ising
    import hadsearch.polynom as polynom
    import hadsearch.solver as solver

    poly = polynom.MultilinearPoly
    return [
        (cli, "main", "cli.self", None),
        (cons, "williamson_energy", "constructions.energy", _energy_terms),
        (cons, "turyn_energy", "constructions.energy", _energy_terms),
        (cons, "extended_energy", "constructions.energy", _energy_terms),
        (cons, "enumerate_prototypes", "constructions.prototypes", None),
        (cons, "base_sequences", "constructions.sequences", None),
        (cons, "t_sequences", "constructions.sequences", None),
        (cons, "seed_sequences", "constructions.sequences", None),
        (poly, "spin_to_boolean", "polynom.spin_to_boolean", None),
        (poly, "boolean_to_spin", "polynom.boolean_to_spin", _boolean_to_spin_terms),
        (polynom, "save_poly", "polynom.save_poly", None),
        (cli, "quadratize", "quadratize.quadratize", _quadratize_counts),
        (ising, "from_quadratic", "ising.from_quadratic", _ising_counts),
        (ising, "normalize_for_export", "ising.normalize", None),
        (ising, "save_ising", "ising.write", None),
        (ising, "write_normalized", "ising.write", None),
        (solver, "exhaustive_min", "solver.exhaustive", _exhaustive_counts),
        (solver, "anneal", "solver.anneal", _anneal_counter(inspect.signature(solver.anneal))),
        (solver, "write_samples", "solver.write_samples", None),
        (hm, "circulant", "hadamard.assemble", None),
        (hm, "williamson_array", "hadamard.assemble", None),
        (hm, "baumert_hall_array", "hadamard.assemble", None),
        (hm, "goethals_seidel", "hadamard.assemble", None),
        (hm, "verify", "hadamard.verify", None),
        (hm, "save_matrix", "hadamard.write", None),
        (hm, "write_pbm", "hadamard.write", None),
        (hm, "write_pgm", "hadamard.write", None),
    ]


class Tracer:
    """In-memory span recorder for one benchmark run.

    A span is [name, group, start, end, parent index, op id]; its index in
    `spans` is its id.  Counts taken from arguments and return values are
    summed per metric name in `counts`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, group, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, group, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for metric, amount in counter(args, kwargs, result):
                    counts[metric] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for owner, attr, group, counter in wrap_specs():
                original = vars(owner)[attr]
                fn = _consume_generator(original) if inspect.isgeneratorfunction(original) else original
                name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, group, fn, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, op_scale=None) -> dict[str, float]:
        """Self time per layer group: span duration minus its children's,
        each multiplied by its op's factor in `op_scale` (default 1)."""
        op_scale = op_scale or {}
        child = defaultdict(float)
        for name, group, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, (name, group, start, end, parent, op) in enumerate(self.spans):
            totals[group] += ((end - start) - child[sid]) * op_scale.get(op, 1.0)
        return dict(totals)

    def calls(self) -> Counter:
        """Number of spans per layer group."""
        return Counter(span[1] for span in self.spans)

    def span_records(self):
        for sid, (name, group, start, end, parent, op) in enumerate(self.spans):
            yield {"id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
