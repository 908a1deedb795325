"""Command-line driver: build energies, reduce, solve, assemble, verify.

Subcommands:

  build       write the energy chain (k-body spin/boolean, 2-body boolean/
              spin), the Ising file, and a manifest for one method/size
  search      solve a method's energy and assemble + verify the matrix
  solve       minimise a polynomial or Ising file directly
  prototypes  stream the filtered solution prototypes for (n, m)
  verify      orthogonality-check a matrix file
  quadratize  reduce a boolean polynomial file to 2-body form

Exit codes: 0 success, 1 no solution found, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Sequence

from . import constructions as cons
from . import hadamard as hm
from . import ising
from . import polynom
from .quadratize import quadratize
from . import solver
from .polynom import Domain, MultilinearPoly, SquareSum

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Logical-variable threshold for the auto solver.  On one core of a 2-core
# Xeon, enumerating an expanded energy takes about 0.34 s at 24 variables
# (the extended-Turyn n=10 prototype 0) and 1.4 s at 26 (a random
# polynomial), doubling per variable.  Where the residuals have a zero state
# and split, `exhaustive_min` joins two half enumerations instead: 7 ms for
# that prototype, 15 ms for Williamson k=11.  A prototype with no zero state
# still pays the full enumeration, so the limit stays at 24.  There
# enumeration is both faster and complete: the default 1000 x 1000 residual
# anneal of that prototype (seed 0) takes about 1.8 s and reaches energy 0
# on 117 reads, while enumeration returns all 40 of its ground states.
AUTO_EXHAUSTIVE_LIMIT = 24

METHODS = ("williamson", "baumert-hall", "turyn", "extended-turyn")


class UsageError(Exception):
    pass


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call, so a replaced cmd_* function takes effect
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _unsigned(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=".", help="output directory")

    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--seed", type=_unsigned, default=0, help="RNG seed (default 0)")
    solving.add_argument("--reads", type=int, default=1000, help="annealing reads")
    solving.add_argument("--sweeps", type=int, default=1000, help="annealing sweeps")
    solving.add_argument("--cap", type=int, default=26, help="exhaustive bit cap")
    solving.add_argument("--solver", choices=("auto", "exhaustive", "anneal"), default="auto")
    solving.add_argument("--beta-start", type=float, default=None)
    solving.add_argument("--beta-end", type=float, default=None)

    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", required=True, choices=METHODS)
    method.add_argument("--k", type=int, help="block order (williamson/baumert-hall)")
    method.add_argument("--n", type=int, help="sequence length (turyn/extended-turyn)")
    method.add_argument("--m", type=int, default=2, help="prototype end fill (extended-turyn)")
    method.add_argument(
        "--prototype-index", type=int, default=None,
        help="restrict extended-turyn to one prototype (build uses 0 by default)",
    )

    parser = argparse.ArgumentParser(
        prog="hadsearch",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[output, method], help="write the energy chain")
    sub.add_parser("search", parents=[output, method, solving], help="solve and assemble")

    p = sub.add_parser("solve", parents=[output, solving], help="minimise a model file")
    p.add_argument("model", help="polynomial or Ising text file")
    p.add_argument("--all-ground", action="store_true")

    p = sub.add_parser("prototypes", parents=[output], help="stream filtered prototypes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("verify", help="orthogonality-check a matrix file")
    p.add_argument("matrix")

    p = sub.add_parser("quadratize", parents=[output], help="reduce a boolean polynomial")
    p.add_argument("poly", help="boolean polynomial file")
    return parser


# -- method plumbing -----------------------------------------------------------
#
# The constructions check the size (parity, range, m < n/2) and raise
# ValueError, which `main` reports as a usage error.

BLOCK_METHODS = ("williamson", "baumert-hall")


def _size_name(args) -> str:
    return "k" if args.method in BLOCK_METHODS else "n"


def _method_size(args) -> int:
    name = _size_name(args)
    size = getattr(args, name)
    if size is None:
        raise UsageError(f"--{name} is required for method {args.method}")
    return size


def _energy_for(args, proto: cons.PrototypeSpec | None) -> MultilinearPoly:
    if args.method in BLOCK_METHODS:
        return cons.williamson_energy(args.k)
    if args.method == "turyn":
        return cons.turyn_energy(args.n)
    return cons.extended_energy(proto)


def _residuals_for(args, proto: cons.PrototypeSpec | None) -> SquareSum:
    if args.method in BLOCK_METHODS:
        return cons.williamson_residuals(args.k)
    if args.method == "turyn":
        return cons.turyn_residuals(args.n)
    return cons.extended_residuals(proto)


def _candidates(args, default_index: int | None):
    """(prototype index, prototype) pairs to solve, in order: the one at
    `--prototype-index`, else at `default_index`, else every filtered
    prototype.  A method without prototypes has the one pair (None, None)."""
    if args.method != "extended-turyn":
        return [(None, None)]
    protos = list(cons.enumerate_prototypes(args.n, args.m))
    if not protos:
        raise UsageError(f"no prototypes pass the filter for n={args.n}, m={args.m}")
    index = default_index if args.prototype_index is None else args.prototype_index
    if index is None:
        return list(enumerate(protos))
    if not 0 <= index < len(protos):
        raise UsageError(f"prototype index {index} out of range 0..{len(protos) - 1}")
    return [(index, protos[index])]


def _prototype_fields(args, index, proto) -> list[tuple[str, object]]:
    if proto is None:
        return []
    return [("m", args.m), ("prototype_index", index), ("prototype", proto.to_line())]


def _assemble(args, values: Sequence[int], proto: cons.PrototypeSpec | None) -> hm.SignMatrix:
    """Matrix for one method from a solved logical assignment."""
    if args.method in BLOCK_METHODS:
        rows = cons.williamson_first_rows(args.k, values)
        blocks = [hm.circulant(r) for r in rows]
        if args.method == "williamson":
            return hm.williamson_array(*blocks)
        return hm.baumert_hall_array(*blocks)
    quad = cons.normalized_turyn_quadruple(args.n) if proto is None else proto.quadruple()
    A, B, C, D = cons.base_sequences(*quad.values(values))
    T = cons.t_sequences(A, B, C, D)
    seeds = cons.seed_sequences(*T)
    return hm.goethals_seidel(*[hm.circulant(s) for s in seeds])


def _build_chain(energy: MultilinearPoly):
    ek_q = energy.spin_to_boolean()
    e2_q, amap = quadratize(ek_q)
    e2_s = e2_q.boolean_to_spin()
    model = ising.from_quadratic(e2_s)
    return ek_q, e2_q, e2_s, model, amap


def _write_manifest(path, pairs: list[tuple[str, object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for key, value in pairs:
            fp.write(f"{key}={value}\n")


# -- subcommands ----------------------------------------------------------------


def cmd_build(args) -> int:
    size = _method_size(args)
    [(index, proto)] = _candidates(args, 0)
    energy = _energy_for(args, proto)
    ek_q, e2_q, e2_s, model, amap = _build_chain(energy)
    os.makedirs(args.out, exist_ok=True)
    join = lambda name: os.path.join(args.out, name)
    polynom.save_poly(energy, join("ek_s.poly"))
    polynom.save_poly(ek_q, join("ek_q.poly"))
    polynom.save_poly(e2_q, join("e2_q.poly"))
    polynom.save_poly(e2_s, join("e2_s.poly"))
    ising.save_ising(model, join("model.ising"))
    normalized, _scale = ising.normalize_for_export(model)
    with open(join("model_normalized.ising"), "w", encoding="utf-8", newline="\n") as fp:
        ising.write_normalized(normalized, fp)
    logical = energy.nvars
    pairs = [("method", args.method), (_size_name(args), size)]
    pairs += _prototype_fields(args, index, proto)
    pairs += [
        ("logical", logical),
        ("ancillas", len(amap.entries)),
        ("total", logical + len(amap.entries)),
        ("delta", amap.delta),
    ]
    pairs += [(f"ancilla_{a}", f"{i},{j}") for a, (i, j) in amap.entries]
    _write_manifest(join("manifest.txt"), pairs)
    print(f"wrote energy chain for {args.method} to {args.out}")
    return EXIT_OK


def _solver_for(args, nvars: int) -> str:
    """`--solver`, with `auto` enumerating up to AUTO_EXHAUSTIVE_LIMIT
    variables (`--cap` if lower) and annealing above that."""
    if args.solver != "auto":
        return args.solver
    return "exhaustive" if nvars <= min(AUTO_EXHAUSTIVE_LIMIT, args.cap) else "anneal"


def _anneal(args, model: ising.IsingModel | SquareSum) -> solver.SampleSet:
    return solver.anneal(
        model,
        reads=args.reads,
        sweeps=args.sweeps,
        beta_start=args.beta_start,
        beta_end=args.beta_end,
        seed=args.seed,
    )


def _solve_energy(args, proto: cons.PrototypeSpec | None):
    """Solve one method energy, given as its residuals over the logical
    spins: enumerate it (`solver.exhaustive_min` joins two half
    enumerations where it can) or anneal it.

    Returns the sample set and the distinct assignments of its zero-energy
    samples, in sample order (best first).
    """
    residuals = _residuals_for(args, proto)
    if _solver_for(args, residuals.nvars) == "exhaustive":
        sset = solver.exhaustive_min(residuals, cap=args.cap, all_ground=True)
    else:
        sset = _anneal(args, residuals)
    return sset, list(dict.fromkeys(s.values for s in sset.samples if s.energy == 0))


def _first_verified(args, grounds, proto: cons.PrototypeSpec | None) -> hm.SignMatrix | None:
    """The matrix of the first ground assignment that assembles and
    passes `hm.verify`, or None."""
    for values in grounds:
        try:
            matrix = _assemble(args, values, proto)
        except (ValueError, AssertionError):
            continue  # this sample does not complete to a valid pipeline input
        if hm.verify(matrix)[0]:
            return matrix
    return None


def cmd_search(args) -> int:
    size = _method_size(args)
    for index, proto in _candidates(args, None):
        sset, grounds = _solve_energy(args, proto)
        matrix = _first_verified(args, grounds, proto)
        if matrix is not None:
            break

    os.makedirs(args.out, exist_ok=True)
    join = lambda name: os.path.join(args.out, name)
    with open(join("samples.txt"), "w", encoding="utf-8", newline="\n") as fp:
        solver.write_samples(sset, fp)

    order = _expected_order(args, size)
    manifest = [
        ("method", args.method),
        (_size_name(args), size),
        ("order", order),
        ("seed", args.seed),
        ("min_energy", sset.min_energy),
    ]
    if matrix is None:
        manifest.append(("verified", "no"))
        _write_manifest(join("manifest.txt"), manifest)
        print(f"no verified order-{order} matrix found", file=sys.stderr)
        return EXIT_NO_SOLUTION

    ok, D = hm.verify(matrix)
    assert ok
    hm.save_matrix(matrix, join("matrix.txt"))
    with open(join("matrix.pbm"), "w", encoding="utf-8", newline="\n") as fp:
        hm.write_pbm(matrix, fp)
    with open(join("indicator.pgm"), "w", encoding="utf-8", newline="\n") as fp:
        hm.write_pgm(D, fp)
    report = hm.report_line(matrix)
    with open(join("report.txt"), "w", encoding="utf-8", newline="\n") as fp:
        fp.write(report + "\n")
    manifest += _prototype_fields(args, index, proto)
    manifest.append(("verified", "yes"))
    _write_manifest(join("manifest.txt"), manifest)
    print(report)
    return EXIT_OK


def _expected_order(args, size: int) -> int:
    if args.method == "williamson":
        return 4 * size
    if args.method == "baumert-hall":
        return 12 * size
    return 4 * (3 * size - 1)


def cmd_solve(args) -> int:
    model = _load_model(args.model)
    if _solver_for(args, model.nvars) == "exhaustive":
        sset = solver.exhaustive_min(model, cap=args.cap, all_ground=args.all_ground)
    else:
        sset = _anneal(args, _quadratic_ising(model))
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "samples.txt")
    with open(out, "w", encoding="utf-8", newline="\n") as fp:
        solver.write_samples(sset, fp)
    print(f"min energy {sset.min_energy} over {sset.reads} reads -> {out}")
    return EXIT_OK


def _load_model(path):
    with open(path, encoding="utf-8") as fp:
        head = next(polynom._content_lines(fp), "")
    if head.startswith("domain"):
        return polynom.load_poly(path)
    return ising.load_ising(path)


def _quadratic_ising(model: MultilinearPoly | ising.IsingModel) -> ising.IsingModel:
    if isinstance(model, ising.IsingModel):
        return model
    if model.domain is not Domain.SPIN or model.degree() > 2:
        raise UsageError("anneal needs a quadratic spin model; quadratize first")
    return ising.from_quadratic(model)


def cmd_prototypes(args) -> int:
    if args.n % 2 or args.n < 4 or not 1 <= args.m < args.n / 2:
        raise UsageError(f"need even n >= 4 and 1 <= m < n/2, got n={args.n}, m={args.m}")
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, f"prototypes_n{args.n}_m{args.m}.txt")
    count = 0
    with open(out, "w", encoding="utf-8", newline="\n") as fp:
        for proto in cons.enumerate_prototypes(args.n, args.m):
            fp.write(proto.to_line() + "\n")
            count += 1
        fp.write(f"# count={count}\n")
    print(f"{count} prototypes -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        H = hm.load_matrix(args.matrix)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = hm.report_line(H)
    if not hm.order_admissible(H.shape[0]):
        print(f"warning: order {H.shape[0]} is not 1, 2, or a multiple of 4", file=sys.stderr)
    print(report)
    ok, _ = hm.verify(H)
    return EXIT_OK if ok else EXIT_NO_SOLUTION


def cmd_quadratize(args) -> int:
    poly = polynom.load_poly(args.poly)
    if poly.domain is not Domain.BOOLEAN:
        raise UsageError("quadratize expects a boolean polynomial file")
    reduced, amap = quadratize(poly)
    os.makedirs(args.out, exist_ok=True)
    out_poly = os.path.join(args.out, "quadratic.poly")
    polynom.save_poly(reduced, out_poly)
    pairs: list[tuple[str, object]] = [
        ("delta", amap.delta),
        ("ancillas", len(amap.entries)),
    ]
    pairs += [(f"ancilla_{a}", f"{i},{j}") for a, (i, j) in amap.entries]
    _write_manifest(os.path.join(args.out, "ancilla_map.txt"), pairs)
    print(f"degree {poly.degree()} -> 2 with {len(amap.entries)} ancillas -> {out_poly}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
