"""Energy functions for the four search methods and the sequence pipeline.

Each method parameterizes the unknown +/-1 entries of a structured object
by spin variables through one symbolic layout, a list of `SymEntry` per
block or sequence.  Its residuals, a `SquareSum` of weighted quadratic
spin residuals R read off that layout, give the energy sum of w * R^2,
zero exactly on valid solutions; each `*_energy` is its residuals'
expansion:

  * Williamson / Baumert-Hall: symmetric circulant blocks A,B,C,D of odd
    order k need V = A^T A + B^T B + C^T C + D^T D = 4k I.  V is symmetric
    circulant with V_0 = 4k, so R_d = V_d for each distinct off-diagonal
    offset d = 1..(k-1)/2, with weight 2k.  Both searches share this energy.
  * Turyn: X,Y,Z,W of lengths n,n,n,n-1 need R_r = N_X(r) + N_Y(r) +
    2 N_Z(r) + 2 N_W(r) = 0 for r = 1..n-1 (N the nonperiodic
    autocorrelation), weight 1.  Normalization pins leave 4n-11 variables.
  * Extended Turyn: the Turyn residuals of a solution prototype, whose
    ends are filled and pass the high-lag check; only the middles are free.

A solved assignment is read back through the same layout, so energy and
assembly cannot disagree on the variable numbering.  The Turyn pins are
defined once, in `normalized_turyn_quadruple`; the prototype enumeration
takes its ends from that quadruple.

The numeric half of the pipeline turns a solved quadruple into Goethals-
Seidel inputs: base sequences (concatenation), T-sequences (half sums padded
with zeros), and seed sequences (signed sums of the T-sequences).  Each step
checks its defining property at runtime rather than trusting the formulas.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .polynom import Domain, Monomial, MultilinearPoly, SquareSum, _canonical_blocks


@dataclass(frozen=True)
class SymEntry:
    """One sequence entry: sign * (variable or 1)."""

    sign: int
    var: int | None = None

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"entry sign must be +/-1, got {self.sign}")

    def value(self, values: Sequence[int]) -> int:
        return self.sign if self.var is None else self.sign * values[self.var]


def plus(var: int | None = None) -> SymEntry:
    return SymEntry(1, var)


def minus(var: int | None = None) -> SymEntry:
    return SymEntry(-1, var)


SymbolicSequence = list[SymEntry]


def _pair_sum(rows: Iterable[tuple[int, Sequence[SymEntry], Sequence[SymEntry]]]
              ) -> MultilinearPoly:
    """Quadratic spin polynomial sum of w * e * f over (w, a, b) and the
    entries e, f at each position of both a and b.

    A pair of equal variables (both constants, or the same index) gives
    the empty monomial, since s * s = 1.  Every key is built canonical, so
    the terms go to `_canonical_blocks` unchecked, which drops zero sums.
    """
    terms: dict[Monomial, int] = {}
    for w, a, b in rows:
        for e, f in zip(a, b):
            u, v = e.var, f.var
            if u is None or v is None:
                m = () if u is v else (u if v is None else v,)
            else:
                m = () if u == v else (u, v) if u < v else (v, u)
            terms[m] = terms.get(m, 0) + w * e.sign * f.sign
    return MultilinearPoly._from_blocks(Domain.SPIN, _canonical_blocks(terms))


def nac(seq: SymbolicSequence, r: int) -> MultilinearPoly:
    """Nonperiodic autocorrelation at lag r as a spin polynomial; zero for r >= len(seq)."""
    return _pair_sum([(1, seq, seq[r:])])


def nac_values(seq: Sequence[int], r: int) -> int:
    """Nonperiodic autocorrelation of a plain integer sequence at lag r >= 0."""
    return sum(map(operator.mul, seq, seq[r:]))


TT_WEIGHTS = (1, 1, 2, 2)


def _first_nonzero_lag(
    seqs: Sequence[Sequence[int]], lags: range, weights: Sequence[int] = (1, 1, 1, 1)
) -> int | None:
    """First r in `lags` where sum of w * nac_values(seq, r) is nonzero, or None."""
    for r in lags:
        if sum(w * nac_values(seq, r) for seq, w in zip(seqs, weights)) != 0:
            return r
    return None


# -- Williamson / Baumert-Hall ------------------------------------------------


def williamson_variable_count(k: int) -> int:
    return 2 * (k + 1)


def _williamson_rows(k: int) -> list[SymbolicSequence]:
    """Symbolic first rows of the blocks A, B, C, D (layout in williamson_energy)."""
    half = (k + 1) // 2
    return [[plus(b * half + min(i, k - i)) for i in range(k)] for b in range(4)]


def williamson_residuals(k: int) -> SquareSum:
    """Residuals over 2(k+1) variables, all zero iff the four symmetric
    circulant blocks form a Williamson quadruple.

    Block b has first row (a_0, a_1, ..., a_{(k-1)/2}, ..., a_1) over its own
    (k+1)/2 variables; blocks are laid out A, B, C, D with the diagonal entry
    first.  The energy is sum over all cells of (V_ij - 4k * delta_ij)^2 for
    V = A^T A + B^T B + C^T C + D^T D.  V is symmetric circulant with
    V_0 = 4k, so the residuals are V_d, d = 1..(k-1)/2, each weighted by its
    2k cells (V_d = V_(k-d)).
    """
    if k % 2 == 0 or k < 3:
        raise ValueError(f"k must be odd and at least 3, got {k}")
    rows = _williamson_rows(k)

    def cell(d: int) -> MultilinearPoly:
        return _pair_sum((1, row, row[d:] + row[:d]) for row in rows)

    return SquareSum(williamson_variable_count(k),
                     tuple((2 * k, cell(d)) for d in range(1, (k + 1) // 2)))


def williamson_energy(k: int) -> MultilinearPoly:
    """Spin energy of `williamson_residuals(k)`, zero iff the blocks form a
    Williamson quadruple."""
    return williamson_residuals(k).expand()


def williamson_first_rows(k: int, values: Sequence[int]) -> list[list[int]]:
    """First rows of the four blocks from a solved assignment vector."""
    if len(values) < williamson_variable_count(k):
        raise ValueError(f"need {williamson_variable_count(k)} values, got {len(values)}")
    return [[e.value(values) for e in row] for row in _williamson_rows(k)]


# -- Turyn --------------------------------------------------------------------


@dataclass(frozen=True)
class TurynQuadruple:
    """Symbolic TT(n) quadruple: X,Y,Z of length n, W of n-1."""

    n: int
    X: tuple[SymEntry, ...]
    Y: tuple[SymEntry, ...]
    Z: tuple[SymEntry, ...]
    W: tuple[SymEntry, ...]

    @property
    def free_variable_count(self) -> int:
        return len({e.var for seq in self.sequences() for e in seq if e.var is not None})

    def sequences(self) -> list[SymbolicSequence]:
        return [list(self.X), list(self.Y), list(self.Z), list(self.W)]

    def values(self, values: Sequence[int]) -> tuple[list[int], list[int], list[int], list[int]]:
        """The four +/-1 sequences under a solved assignment vector."""
        X, Y, Z, W = ([e.value(values) for e in seq] for seq in self.sequences())
        return X, Y, Z, W


def normalized_turyn_quadruple(n: int) -> TurynQuadruple:
    """Symbolic quadruple with the normalization pins applied.

    Pins: x0=y0=z0=w0=+1; x_{n-1}=y_{n-1}=-1, z_{n-1}=+1; x1=x_{n-2}=+1;
    y_{n-2} = -y_1.  Free entries become variables in order: X middles,
    then Y, Z, W, each left to right.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"n must be even and at least 4, got {n}")
    one, minus_one, idx = plus(), minus(), itertools.count()  # entries are immutable
    X = [one, one] + [plus(next(idx)) for _ in range(n - 4)] + [one, minus_one]
    Y = [one] + [plus(next(idx)) for _ in range(n - 3)]
    Y += [minus(Y[1].var), minus_one]
    Z = [one] + [plus(next(idx)) for _ in range(n - 2)] + [one]
    W = [one] + [plus(next(idx)) for _ in range(n - 2)]
    assert next(idx) == 4 * n - 11
    return TurynQuadruple(n=n, X=tuple(X), Y=tuple(Y), Z=tuple(Z), W=tuple(W))


def turyn_residuals(n: int) -> SquareSum:
    """Residuals over 4n-11 variables, all zero iff the completed quadruple
    is a TT(n) sequence (weights 1,1,2,2 on X,Y,Z,W autocorrelations)."""
    return _autocorrelation_residuals(normalized_turyn_quadruple(n))


def turyn_energy(n: int) -> MultilinearPoly:
    """Spin energy of `turyn_residuals(n)`, zero iff the completed quadruple
    is a TT(n) sequence."""
    return turyn_residuals(n).expand()


def _autocorrelation_residuals(quad: TurynQuadruple) -> SquareSum:
    """R_r = sum of w * N_s(r) over the four sequences with `TT_WEIGHTS`,
    weight 1, for lags r = 1..n-1."""
    seqs = quad.sequences()

    def lag(r: int) -> MultilinearPoly:
        return _pair_sum((w, seq, seq[r:]) for seq, w in zip(seqs, TT_WEIGHTS))

    return SquareSum(quad.free_variable_count, tuple((1, lag(r)) for r in range(1, quad.n)))


# -- Extended Turyn (solution prototypes) --------------------------------------


_PROTOTYPE_CHARS = {"*": None, "+": 1, "-": -1}


@dataclass(frozen=True)
class PrototypeSpec:
    """Partially filled quadruple: m fixed entries on each end, middles free.

    Sides are stored as tuples with None at unknown middle positions;
    X, Y, Z have length n and W has length n-1.
    """

    n: int
    m: int
    X: tuple[int | None, ...]
    Y: tuple[int | None, ...]
    Z: tuple[int | None, ...]
    W: tuple[int | None, ...]

    def __post_init__(self):
        if not 1 <= self.m < self.n / 2:
            raise ValueError(f"m must satisfy 1 <= m < n/2, got m={self.m} for n={self.n}")
        for name, side, length in (
            ("X", self.X, self.n),
            ("Y", self.Y, self.n),
            ("Z", self.Z, self.n),
            ("W", self.W, self.n - 1),
        ):
            if len(side) != length:
                raise ValueError(f"{name} must have length {length}")
            for pos, v in enumerate(side):
                # filled region: [0, m) and [n-m, length)
                filled = pos < self.m or pos >= self.n - self.m
                if filled and v not in (-1, 1):
                    raise ValueError(f"{name}[{pos}] must be filled with +/-1")
                if not filled and v is not None:
                    raise ValueError(f"{name}[{pos}] must be a free middle (None)")

    def sides(self) -> tuple[tuple[int | None, ...], ...]:
        return (self.X, self.Y, self.Z, self.W)

    def quadruple(self) -> TurynQuadruple:
        """Symbolic quadruple: filled ends are constants, and the middles
        become variables in order X, Y, Z, W, each left to right."""
        idx = itertools.count()
        X, Y, Z, W = (
            tuple(plus(next(idx)) if v is None else SymEntry(v) for v in side)
            for side in self.sides()
        )
        return TurynQuadruple(n=self.n, X=X, Y=Y, Z=Z, W=W)

    def to_line(self) -> str:
        symbol = {v: ch for ch, v in _PROTOTYPE_CHARS.items()}
        return "/".join("".join(symbol[v] for v in side) for side in self.sides())

    @classmethod
    def from_line(cls, line: str, m: int) -> "PrototypeSpec":
        parts = line.strip().split("/")
        if len(parts) != 4:
            raise ValueError(f"expected four /-separated sides: {line!r}")
        for ch in "".join(parts):
            if ch not in _PROTOTYPE_CHARS:
                raise ValueError(f"bad prototype character {ch!r}")
        decoded = [tuple(_PROTOTYPE_CHARS[ch] for ch in part) for part in parts]
        n = len(decoded[0])
        if [len(p) for p in decoded] != [n, n, n, n - 1]:
            raise ValueError(f"side lengths must be n,n,n,n-1: {line!r}")
        return cls(n=n, m=m, X=decoded[0], Y=decoded[1], Z=decoded[2], W=decoded[3])


def prototype_filter(proto: PrototypeSpec) -> bool:
    """True iff the weighted autocorrelation sum vanishes at every lag
    r in [n-m, n-1].  Products at these lags touch only filled positions,
    so the None middles are never multiplied."""
    lags = range(proto.n - proto.m, proto.n)
    return _first_nonzero_lag(proto.sides(), lags, TT_WEIGHTS) is None


_FILL_CHUNK = 1 << 14  # end fillings checked per numpy block


def enumerate_prototypes(n: int, m: int) -> Iterator[PrototypeSpec]:
    """All fillings of the end positions of `normalized_turyn_quadruple(n)`
    that pass the filter.

    The ends are positions p < m and p >= n - m of every side.  Pinned
    entries keep their values; the variables left at end positions are
    enumerated lexicographically in ascending index order (+1 before -1),
    which is X, Y, Z, W order, left to right.  The high-lag sums are
    evaluated on blocks of fillings at once from the end values alone, and
    a `PrototypeSpec` is built only for fillings that pass.
    """
    quad = normalized_turyn_quadruple(n)
    if not 1 <= m < n / 2:
        raise ValueError(f"m must satisfy 1 <= m < n/2, got m={m} for n={n}")
    ends = [
        [e if p < m or p >= n - m else None for p, e in enumerate(seq)]
        for seq in quad.sequences()
    ]
    free = sorted({e.var for side in ends for e in side if e is not None and e.var is not None})
    k = len(free)
    # column k of a block of fillings is the constant 1; middles get sign 0
    column = {v: j for j, v in enumerate(free)}
    cols = [np.array([k if e is None or e.var is None else column[e.var] for e in side])
            for side in ends]
    signs = [np.array([0 if e is None else e.sign for e in side]) for side in ends]
    # fill index f sets free variable j to -1 iff bit k-1-j of f is set,
    # so ascending f is the lexicographic order with +1 first
    shifts = np.arange(k - 1, -1, -1)
    for start in range(0, 1 << k, _FILL_CHUNK):
        f = np.arange(start, min(start + _FILL_CHUNK, 1 << k))
        fills = np.ones((f.size, k + 1), dtype=np.int64)
        fills[:, :k] -= 2 * ((f[:, None] >> shifts) & 1)
        sides = [fills[:, c] * sg for c, sg in zip(cols, signs)]
        passing = np.ones(f.size, dtype=bool)
        for r in range(n - m, n):
            lag = sum(w * (side[:, :-r] * side[:, r:]).sum(axis=1)
                      for side, w in zip(sides, TT_WEIGHTS))
            passing &= lag == 0
        for row in np.flatnonzero(passing):
            yield PrototypeSpec(n, m, *(
                tuple(v if v else None for v in side[row].tolist()) for side in sides
            ))


def extended_residuals(proto: PrototypeSpec) -> SquareSum:
    """Turyn residuals over the 4(n-2m) unknown middles of a filtered prototype."""
    if not prototype_filter(proto):
        raise ValueError("prototype fails the high-lag autocorrelation filter")
    return _autocorrelation_residuals(proto.quadruple())


def extended_energy(proto: PrototypeSpec) -> MultilinearPoly:
    """Spin energy of `extended_residuals(proto)`."""
    return extended_residuals(proto).expand()


# -- numeric pipeline: TT(n) -> Goethals-Seidel inputs --------------------------


def check_tt(X: Sequence[int], Y: Sequence[int], Z: Sequence[int], W: Sequence[int]) -> bool:
    """Exact TT property: weighted autocorrelations sum to zero for r >= 1."""
    n = len(X)
    if not (len(Y) == len(Z) == n and len(W) == n - 1):
        return False
    if any(v not in (-1, 1) for seq in (X, Y, Z, W) for v in seq):
        return False
    return _first_nonzero_lag((X, Y, Z, W), range(1, n), TT_WEIGHTS) is None


def base_sequences(
    X: Sequence[int], Y: Sequence[int], Z: Sequence[int], W: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Base sequences (2n-1, 2n-1, n, n): A = Z||W, B = Z||-W, C = X, D = Y."""
    if not check_tt(X, Y, Z, W):
        raise ValueError("inputs do not form a Turyn-type sequence")
    A = list(Z) + list(W)
    B = list(Z) + [-w for w in W]
    C, D = list(X), list(Y)
    r = _first_nonzero_lag((A, B, C, D), range(1, len(A)))
    if r is not None:
        raise AssertionError(f"base-sequence zero-sum failed at lag {r}")
    return A, B, C, D


def t_sequences(
    A: Sequence[int], B: Sequence[int], C: Sequence[int], D: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """T-sequences of length 3n-1: half sums/differences padded with zeros."""
    if len(A) != len(B) or len(C) != len(D):
        raise ValueError("length mismatch between paired base sequences")
    n = len(C)
    if len(A) != 2 * n - 1:
        raise ValueError("base sequences must have lengths (2n-1, 2n-1, n, n)")
    T1 = [(a + b) // 2 for a, b in zip(A, B)] + [0] * n
    T2 = [(a - b) // 2 for a, b in zip(A, B)] + [0] * n
    T3 = [0] * (2 * n - 1) + [(c + d) // 2 for c, d in zip(C, D)]
    T4 = [0] * (2 * n - 1) + [(c - d) // 2 for c, d in zip(C, D)]
    length = 3 * n - 1
    for pos in range(length):
        if sum(1 for T in (T1, T2, T3, T4) if T[pos] != 0) != 1:
            raise AssertionError(f"T-sequence supports not disjoint/covering at {pos}")
    r = _first_nonzero_lag((T1, T2, T3, T4), range(1, length))
    if r is not None:
        raise AssertionError(f"T-sequence zero-sum failed at lag {r}")
    return T1, T2, T3, T4


def seed_sequences(
    T1: Sequence[int], T2: Sequence[int], T3: Sequence[int], T4: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Seed sequences: orthogonal signed sums of the T-sequences."""
    signs = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    seeds = [
        [sum(sg * t for sg, t in zip(sign, col)) for col in zip(T1, T2, T3, T4)]
        for sign in signs
    ]
    for seq in seeds:
        if any(v not in (-1, 1) for v in seq):
            raise AssertionError("seed sequence has a non +/-1 entry")
    r = _first_nonzero_lag(seeds, range(1, len(seeds[0])))
    if r is not None:
        raise AssertionError(f"seed-sequence zero-sum failed at lag {r}")
    return tuple(seeds)  # type: ignore[return-value]
