"""Two-body spin models: energies, export scaling, and the text format.

A model is a spin count and the quadratic spin polynomial of its energy,

    E(s) = offset + sum h_i s_i + sum J_ij s_i s_j

over spins s_i in {-1, +1}, J keyed by pairs i < j.  `h`, `J` and `offset`
are read off the polynomial, `h` and `J` as read-only views built on each
access; the writers, `max_abs_coeff` and the annealing kernel read its
canonical blocks.  `write_normalized` writes the form annealing hardware
takes: the offset dropped and every coefficient divided by the largest
magnitude, the scale.  Solvers read only the exact integer model.
"""

from __future__ import annotations

import operator
from types import MappingProxyType
from typing import IO, Callable, Mapping

import numpy as np

from .polynom import (Assignment, Domain, MultilinearPoly, _canonical_blocks, _content_lines,
                      _max_abs_coeff, _parse_int)


class IsingModel:
    """A spin count `nvars` and the quadratic spin polynomial `poly` of the
    energy; neither changes after construction, and equality reads both."""

    __slots__ = ("nvars", "poly")

    def __init__(self, nvars: int, h: Mapping[int, int] | None = None,
                 J: Mapping[tuple[int, int], int] | None = None, offset: int = 0):
        """Every index and value, `nvars` and the offset must be integers,
        taken through `operator.index` and stored as Python ints; an index
        must lie in range, a J key (i, j) must have i < j, and no value may
        be zero.  One pass over each dict; the ValueError names the entry."""
        index = operator.index
        try:
            n, offset = index(nvars), index(offset)
        except TypeError:
            raise ValueError(f"non-integer nvars {nvars!r} or offset {offset!r}") from None
        terms: dict[tuple[int, ...], int] = {}
        try:
            for i, c in (h or {}).items():
                i, c = index(i), index(c)
                if not 0 <= i < n:
                    raise ValueError(f"h index {i} out of range")
                if not c:
                    raise ValueError(f"zero value for h index {i} must not be stored")
                terms[(i,)] = c
        except TypeError:
            raise ValueError(f"non-integer h entry {i!r}: {c!r}") from None
        try:
            for k, c in (J or {}).items():
                i, j = k
                i, j, c = index(i), index(j), index(c)
                if not 0 <= i < j < n:
                    raise ValueError(f"J key {k} must satisfy 0 <= i < j < nvars")
                if not c:
                    raise ValueError(f"zero value for J key {k} must not be stored")
                terms[i, j] = c
        except TypeError:
            raise ValueError(f"non-integer J entry {k!r}: {c!r}") from None
        if offset:
            terms[()] = offset
        self.nvars = n
        self.poly = MultilinearPoly._from_blocks(Domain.SPIN, _canonical_blocks(terms))

    @classmethod
    def _from_poly(cls, nvars: int, poly: MultilinearPoly) -> "IsingModel":
        """Wrap `poly` unchecked, as `from_quadratic` checks it."""
        model = cls.__new__(cls)
        model.nvars, model.poly = nvars, poly
        return model

    def _block(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """The polynomial's canonical block of `degree`, empty if it has none."""
        blocks = {idx.shape[1]: (idx, coefs) for idx, coefs in self.poly._blocks}
        return blocks.get(degree, (np.empty((0, degree), np.int64), np.empty(0, np.int64)))

    @property
    def offset(self) -> int:
        return sum(self._block(0)[1].tolist())

    @property
    def h(self) -> Mapping[int, int]:
        idx, coefs = self._block(1)
        return MappingProxyType(dict(zip(idx[:, 0].tolist(), coefs.tolist())))

    @property
    def J(self) -> Mapping[tuple[int, int], int]:
        idx, coefs = self._block(2)
        return MappingProxyType(dict(zip(map(tuple, idx.tolist()), coefs.tolist())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsingModel):
            return NotImplemented
        return self.nvars == other.nvars and self.poly == other.poly

    def __repr__(self) -> str:
        return (f"IsingModel(nvars={self.nvars}, h={dict(self.h)}, J={dict(self.J)}, "
                f"offset={self.offset})")

    def max_abs_coeff(self) -> int:
        return _max_abs_coeff(self.poly._blocks)

    def energy(self, assignment: Assignment) -> int:
        """Energy at a total spin assignment."""
        for i in range(self.nvars):
            if i not in assignment:
                raise ValueError(f"assignment missing spin {i}")
            if assignment[i] not in (-1, 1):
                raise ValueError(f"spin {i} has non-spin value {assignment[i]}")
        return self.poly.evaluate(assignment)


def from_quadratic(poly: MultilinearPoly) -> IsingModel:
    """The model of a quadratic spin polynomial over its `nvars` spins,
    which it wraps as it is: the polynomial is validated already."""
    if poly.domain is not Domain.SPIN:
        raise ValueError("from_quadratic requires a spin polynomial")
    if poly.degree() > 2:
        raise ValueError(f"polynomial has degree {poly.degree()} > 2")
    return IsingModel._from_poly(poly.nvars, poly)


def normalize_for_export(model: IsingModel) -> int:
    """The scale of `model`'s export: its largest |coefficient|, by which
    `write_normalized` divides every coefficient; an all-zero model has
    none and is rejected."""
    scale = model.max_abs_coeff()
    if scale == 0:
        raise ValueError("cannot normalize an all-zero model")
    return scale


# -- text format --------------------------------------------------------------
#
# lines: `c <int>`, `h <i> <value>`, `J <i> <j> <value>` with i < j, sorted;
# `#` begins a comment.  Integer models round-trip exactly; normalized
# exports carry decimal values.


def _sections(model: IsingModel, text: Callable[[np.ndarray], np.ndarray]) -> str:
    """The `h`, then the `J` lines of `model` in index order, the values
    `text(coefficients)`: each section one `%` of its repeated line
    template over its canonical block's fields, each as `str` gives it."""
    return "".join(("hJ"[idx.shape[1] - 1] + " %s" * (idx.shape[1] + 1) + "\n") * len(coefs)
                   % tuple(np.column_stack((idx, text(coefs))).ravel().tolist())
                   for idx, coefs in model.poly._blocks if idx.shape[1])


def write_ising(model: IsingModel, fp: IO[str]) -> None:
    """The `c` line, then the `h` and `J` lines in index order; the file is
    written in one call."""
    fp.write(f"c {model.offset}\n" + _sections(model, lambda coefs: coefs))


def write_normalized(model: IsingModel, fp: IO[str]) -> None:
    """As `write_ising`, under a `# scale` comment and with offset 0, the
    scale `normalize_for_export(model)`: each coefficient c written as
    `<q>.0` when scale divides it, else as the repr of c / scale: int / int
    true division rounds correctly.  Each distinct c of a section is
    formatted once."""
    scale = normalize_for_export(model)

    def text(coefs: np.ndarray) -> np.ndarray:
        distinct, inverse = np.unique(coefs, return_inverse=True)
        return np.array([repr(c / scale) if c % scale else f"{c // scale}.0"
                         for c in distinct.tolist()], dtype=object)[inverse]

    fp.write(f"# scale {scale}\nc 0\n" + _sections(model, text))


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
