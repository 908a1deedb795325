"""Two-body spin models: energies, export scaling, and the text format.

A model stores linear fields h, ordered-pair couplings J (keys i < j), and a
constant offset; its energy is

    E(s) = offset + sum h_i s_i + sum J_ij s_i s_j

over spins s_i in {-1, +1}.  The energies built by this package's
constructions are minimised at zero.  `normalize_for_export` drops the
offset and scales the largest coefficient to 1, the form annealing hardware
takes; it keeps the integer model and divides only when read (exact
`Fraction`s) or written.  Solvers read only the exact integer model.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO

from .polynom import Assignment, Domain, MultilinearPoly, _content_lines, _parse_int


@dataclass(frozen=True)
class IsingModel:
    nvars: int
    h: dict[int, int] = field(default_factory=dict)
    J: dict[tuple[int, int], int] = field(default_factory=dict)
    offset: int = 0

    def __post_init__(self):
        """Every index and value, `nvars` and the offset must be integers,
        taken through `operator.index` as polynomial coefficients are, and
        stored as Python ints in dicts the model owns; an index must lie in
        range, a J key (i, j) must have i < j, and no value may be zero.
        One pass over each dict; the ValueError names the entry."""
        index = operator.index
        try:
            n, offset = index(self.nvars), index(self.offset)
        except TypeError:
            raise ValueError(
                f"non-integer nvars {self.nvars!r} or offset {self.offset!r}"
            ) from None
        h: dict[int, int] = {}
        try:
            for i, c in self.h.items():
                i, c = index(i), index(c)
                if not 0 <= i < n:
                    raise ValueError(f"h index {i} out of range")
                if not c:
                    raise ValueError(f"zero value for h index {i} must not be stored")
                h[i] = c
        except TypeError:
            raise ValueError(f"non-integer h entry {i!r}: {c!r}") from None
        J: dict[tuple[int, int], int] = {}
        try:
            for k, c in self.J.items():
                i, j = k
                i, j, c = index(i), index(j), index(c)
                if not 0 <= i < j < n:
                    raise ValueError(f"J key {k} must satisfy 0 <= i < j < nvars")
                if not c:
                    raise ValueError(f"zero value for J key {k} must not be stored")
                J[i, j] = c
        except TypeError:
            raise ValueError(f"non-integer J entry {k!r}: {c!r}") from None
        for name, value in (("nvars", n), ("offset", offset), ("h", h), ("J", J)):
            object.__setattr__(self, name, value)  # the dataclass is frozen

    @classmethod
    def _from_canonical(
        cls, nvars: int, h: dict[int, int], J: dict[tuple[int, int], int], offset: int = 0
    ) -> "IsingModel":
        """Take `h` and `J` unchecked: every index a Python int in range,
        every J key (i, j) with i < j, every value a nonzero Python int,
        and `nvars` and `offset` Python ints, as the public constructor
        would leave them.  Code in this package that holds such dicts
        already (a validated model, or a validated polynomial's degree
        groups) calls this instead of the constructor."""
        model = cls.__new__(cls)
        for name, value in (("nvars", nvars), ("offset", offset), ("h", h), ("J", J)):
            object.__setattr__(model, name, value)
        return model

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
    """Lossless split of a quadratic spin polynomial into offset/h/J, each
    of h and J built in index order from the polynomial's canonical blocks.

    The polynomial is validated already: its keys are canonical and its
    coefficients nonzero Python ints, so only an explicit `nvars` is
    checked, which must be an integer no smaller than the polynomial's."""
    if poly.domain is not Domain.SPIN:
        raise ValueError("from_quadratic requires a spin polynomial")
    if poly.degree() > 2:
        raise ValueError(f"polynomial has degree {poly.degree()} > 2")
    n = poly.nvars
    if nvars is not None:
        try:
            nvars = operator.index(nvars)
        except TypeError:
            raise ValueError(f"non-integer nvars {nvars!r}") from None
        if nvars < n:
            raise ValueError(f"nvars {nvars} smaller than the polynomial's {n}")
        n = nvars
    offset, h, J = 0, {}, {}
    for idx, coefs in poly._canonical_blocks():
        keys = [col.tolist() for col in idx.T]
        if len(keys) == 0:
            [offset] = coefs.tolist()
        elif len(keys) == 1:
            h = dict(zip(keys[0], coefs.tolist()))
        else:
            J = dict(zip(zip(*keys), coefs.tolist()))
    return IsingModel._from_canonical(n, h, J, offset)


@dataclass(frozen=True)
class NormalizedIsing:
    """Unit-scale export image of an integer model: its offset dropped and
    every coefficient divided by `scale`, the largest magnitude.  Only the
    numerators are stored, as an offset-free copy `model`, so equality and
    repr are those of the image; `h` and `J` build exact `Fraction`s on
    access."""

    model: IsingModel
    scale: int

    @property
    def nvars(self) -> int:
        return self.model.nvars

    @property
    def h(self) -> dict[int, Fraction]:
        return {i: Fraction(c, self.scale) for i, c in self.model.h.items()}

    @property
    def J(self) -> dict[tuple[int, int], Fraction]:
        return {k: Fraction(c, self.scale) for k, c in self.model.J.items()}


def normalize_for_export(model: IsingModel) -> tuple[NormalizedIsing, int]:
    """Drop the offset and rescale so the largest |coefficient| becomes 1.
    The image's model shares `h` and `J` with `model`; neither changes
    after construction."""
    scale = model.max_abs_coeff()
    if scale == 0:
        raise ValueError("cannot normalize an all-zero model")
    image = IsingModel._from_canonical(model.nvars, model.h, model.J)
    return NormalizedIsing(image, scale), scale


# -- text format --------------------------------------------------------------
#
# lines: `c <int>`, `h <i> <value>`, `J <i> <j> <value>` with i < j, sorted;
# `#` begins a comment.  Integer models round-trip exactly; normalized
# exports carry decimal values.


def write_ising(model: IsingModel, fp: IO[str]) -> None:
    """The `c` line, then the `h` and `J` lines in index order, each section
    one `%` of its repeated line template over a flat argument tuple; the
    file is written in one call.  Each field is written as `str` gives it."""
    h, J = model.h, model.J
    h_args: list = []
    for i in sorted(h):
        h_args += (i, h[i])
    J_args: list = []
    for k in sorted(J):
        J_args += k
        J_args.append(J[k])
    fp.write(f"c {model.offset}\n" + "h %s %s\n" * len(h) % tuple(h_args)
             + "J %s %s %s\n" * len(J) % tuple(J_args))


def write_normalized(norm: NormalizedIsing, fp: IO[str]) -> None:
    """As `write_ising`, under a `# scale` comment and with offset 0, each
    coefficient c written as `<q>.0` when scale divides it, else as the repr
    of c / scale: int / int true division rounds correctly, as
    float(Fraction).  Each distinct c is formatted once."""
    scale, h, J = norm.scale, norm.model.h, norm.model.J
    text = {c: repr(c / scale) if c % scale else f"{c // scale}.0"
            for c in {*h.values(), *J.values()}}
    h_args: list = []
    for i in sorted(h):
        h_args += (i, text[h[i]])
    J_args: list = []
    for k in sorted(J):
        J_args += k
        J_args.append(text[J[k]])
    fp.write(f"# scale {scale}\nc 0\n" + "h %s %s\n" * len(h) % tuple(h_args)
             + "J %s %s %s\n" * len(J) % tuple(J_args))


def read_ising(fp: IO[str]) -> IsingModel:
    """Parse an integer-coefficient model.

    Decimal coefficients (normalized exports) are rejected: they are a
    hand-off artifact for external samplers, not solver input.  So is a
    repeated `c`, `h i` or `J i j` line, and a file with no content line.
    The spin count is one past the largest index with a nonzero coefficient.
    """
    offset: int | None = None
    h: dict[int, int] = {}
    J: dict[tuple[int, int], int] = {}
    for line in _content_lines(fp):
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
    if offset is None and not h and not J:
        raise ValueError("empty Ising file")
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
