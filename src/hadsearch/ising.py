"""Two-body spin models: energies, export scaling, and the text format.

A model stores linear fields h, ordered-pair couplings J (keys i < j), and a
constant offset; its energy is

    E(s) = offset + sum h_i s_i + sum J_ij s_i s_j

over spins s_i in {-1, +1}.  The energies built by this package's
constructions are minimised at zero.  `normalize_for_export` drops the
offset and scales the largest coefficient to 1, the form annealing hardware
takes; solvers read only the exact integer model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO

from .polynom import Assignment, Domain, MultilinearPoly, _parse_int


@dataclass(frozen=True)
class IsingModel:
    nvars: int
    h: dict[int, int] = field(default_factory=dict)
    J: dict[tuple[int, int], int] = field(default_factory=dict)
    offset: int = 0

    def __post_init__(self):
        for i in self.h:
            if not 0 <= i < self.nvars:
                raise ValueError(f"h index {i} out of range")
        for (i, j) in self.J:
            if not (0 <= i < j < self.nvars):
                raise ValueError(f"J key {(i, j)} must satisfy 0 <= i < j < nvars")
        if any(v == 0 for v in self.h.values()) or any(v == 0 for v in self.J.values()):
            raise ValueError("zero coefficients must not be stored")

    def max_abs_coeff(self) -> int:
        vals = [abs(v) for v in self.h.values()] + [abs(v) for v in self.J.values()]
        return max(vals, default=0)

    def energy(self, assignment: Assignment) -> int:
        """Energy at a total spin assignment."""
        s = []
        for i in range(self.nvars):
            if i not in assignment:
                raise ValueError(f"assignment missing spin {i}")
            v = assignment[i]
            if v not in (-1, 1):
                raise ValueError(f"spin {i} has non-spin value {v}")
            s.append(v)
        lin = sum(c * s[i] for i, c in self.h.items())
        quad = sum(c * s[i] * s[j] for (i, j), c in self.J.items())
        return self.offset + lin + quad

    def to_polynomial(self) -> MultilinearPoly:
        """Spin polynomial with the same energy function."""
        terms: dict[tuple[int, ...], int] = {(): self.offset}
        for i, c in self.h.items():
            terms[(i,)] = c
        for (i, j), c in self.J.items():
            terms[(i, j)] = c
        return MultilinearPoly(Domain.SPIN, terms)


def from_quadratic(poly: MultilinearPoly, nvars: int | None = None) -> IsingModel:
    """Lossless split of a quadratic spin polynomial into offset/h/J."""
    if poly.domain is not Domain.SPIN:
        raise ValueError("from_quadratic requires a spin polynomial")
    if poly.degree() > 2:
        raise ValueError(f"polynomial has degree {poly.degree()} > 2")
    n = poly.nvars if nvars is None else nvars
    offset = 0
    h: dict[int, int] = {}
    J: dict[tuple[int, int], int] = {}
    for m, c in poly.terms.items():
        if len(m) == 0:
            offset = c
        elif len(m) == 1:
            h[m[0]] = c
        else:
            J[m] = c
    return IsingModel(nvars=n, h=h, J=J, offset=offset)


@dataclass(frozen=True)
class NormalizedIsing:
    """Unit-scale export image of a model: offset dropped, coefficients
    divided by the largest magnitude (exact rationals)."""

    nvars: int
    h: dict[int, Fraction]
    J: dict[tuple[int, int], Fraction]
    scale: int


def normalize_for_export(model: IsingModel) -> tuple[NormalizedIsing, int]:
    """Drop the offset and rescale so the largest |coefficient| becomes 1."""
    scale = model.max_abs_coeff()
    if scale == 0:
        raise ValueError("cannot normalize an all-zero model")
    normalized = NormalizedIsing(
        nvars=model.nvars,
        h={i: Fraction(c, scale) for i, c in model.h.items()},
        J={k: Fraction(c, scale) for k, c in model.J.items()},
        scale=scale,
    )
    return normalized, scale


# -- text format --------------------------------------------------------------
#
# lines: `c <int>`, `h <i> <value>`, `J <i> <j> <value>` with i < j, sorted;
# `#` begins a comment.  Integer models round-trip exactly; normalized
# exports carry decimal values.


def write_ising(model: IsingModel, fp: IO[str]) -> None:
    fp.write(f"c {model.offset}\n")
    for i in sorted(model.h):
        fp.write(f"h {i} {model.h[i]}\n")
    for (i, j) in sorted(model.J):
        fp.write(f"J {i} {j} {model.J[(i, j)]}\n")


def write_normalized(norm: NormalizedIsing, fp: IO[str]) -> None:
    fp.write(f"# scale {norm.scale}\n")
    fp.write("c 0\n")
    for i in sorted(norm.h):
        fp.write(f"h {i} {_decimal(norm.h[i])}\n")
    for (i, j) in sorted(norm.J):
        fp.write(f"J {i} {j} {_decimal(norm.J[(i, j)])}\n")


def _decimal(x: Fraction) -> str:
    if x.denominator == 1:
        return f"{int(x)}.0"
    return repr(float(x))


def read_ising(fp: IO[str]) -> IsingModel:
    """Parse an integer-coefficient model.

    Decimal coefficients (normalized exports) are rejected: they are a
    hand-off artifact for external samplers, not solver input.  So is a
    repeated `c`, `h i` or `J i j` line.  The spin count is one past the
    largest index with a nonzero coefficient.
    """
    offset: int | None = None
    h: dict[int, int] = {}
    J: dict[tuple[int, int], int] = {}
    for raw in fp:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "c" and len(tok) == 2:
            if offset is not None:
                raise ValueError(f"duplicate offset line: {line!r}")
            offset = _parse_int(tok[1], line)
        elif tok[0] == "h" and len(tok) == 3:
            i = _parse_int(tok[1], line)
            if i in h:
                raise ValueError(f"duplicate field line for spin {i}: {line!r}")
            h[i] = _parse_int(tok[2], line)
        elif tok[0] == "J" and len(tok) == 4:
            i, j = _parse_int(tok[1], line), _parse_int(tok[2], line)
            if i >= j:
                raise ValueError(f"J indices must satisfy i < j: {line!r}")
            if (i, j) in J:
                raise ValueError(f"duplicate coupling line for pair ({i}, {j}): {line!r}")
            J[(i, j)] = _parse_int(tok[3], line)
        else:
            raise ValueError(f"unrecognized line: {line!r}")
    h = {i: c for i, c in h.items() if c != 0}
    J = {k: c for k, c in J.items() if c != 0}
    nvars = max([*h, *(j for _, j in J)], default=-1) + 1
    return IsingModel(nvars=nvars, h=h, J=J, offset=0 if offset is None else offset)


def load_ising(path) -> IsingModel:
    with open(path, encoding="utf-8") as fp:
        return read_ising(fp)


def save_ising(model: IsingModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        write_ising(model, fp)
