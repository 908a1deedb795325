"""Energy functions for the four search methods and the sequence pipeline.

The searches all follow one recipe: parameterize the unknown +/-1 entries of
a structured object by spin variables, write the defining requirement as a
sum of squares, and obtain a polynomial that is zero exactly on valid
solutions.

  * Williamson / Baumert-Hall: four symmetric circulant blocks A,B,C,D of
    odd order k must satisfy A^T A + B^T B + C^T C + D^T D = 4k I.  Both
    searches share this energy; only the final block array differs.
  * Turyn: four sequences X,Y,Z,W of lengths n,n,n,n-1 must have
    N_X(r) + N_Y(r) + 2 N_Z(r) + 2 N_W(r) = 0 for every lag r >= 1, where
    N is the nonperiodic autocorrelation.  Known end entries are fixed by
    normalization, leaving 4n-11 free variables.
  * Extended Turyn: ends are pre-filled (a solution prototype) and only the
    middles are unknown; prototypes must already satisfy the autocorrelation
    condition at the high lags that touch only filled positions.

Each method has one symbolic layout, a list of `SymEntry` per block or
sequence: its energy is built from that layout and a solved assignment is
read back through the same layout, so the two cannot disagree on the
variable numbering.  The Turyn normalization pins are defined once, in
`normalized_turyn_quadruple`; the prototype enumeration takes its ends
from that quadruple.

The numeric half of the pipeline turns a solved quadruple into Goethals-
Seidel inputs: base sequences (concatenation), T-sequences (half sums padded
with zeros), and seed sequences (signed sums of the T-sequences).  Each step
checks its defining property at runtime rather than trusting the formulas.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .polynom import Domain, MultilinearPoly


@dataclass(frozen=True)
class SymEntry:
    """One sequence entry: sign * (variable or 1)."""

    sign: int
    var: int | None = None

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"entry sign must be +/-1, got {self.sign}")

    def poly(self) -> MultilinearPoly:
        if self.var is None:
            return MultilinearPoly.constant(Domain.SPIN, self.sign)
        return MultilinearPoly.variable(Domain.SPIN, self.var, self.sign)

    def value(self, values: Sequence[int]) -> int:
        return self.sign if self.var is None else self.sign * values[self.var]


def plus(var: int | None = None) -> SymEntry:
    return SymEntry(1, var)


def minus(var: int | None = None) -> SymEntry:
    return SymEntry(-1, var)


SymbolicSequence = list[SymEntry]


def nac(seq: SymbolicSequence, r: int) -> MultilinearPoly:
    """Nonperiodic autocorrelation at lag r as a spin polynomial.

    Zero polynomial for r >= len(seq).
    """
    out = MultilinearPoly.zero(Domain.SPIN)
    for t in range(len(seq) - r):
        out = out.add(seq[t].poly().mul(seq[t + r].poly()))
    return out


def nac_values(seq: Sequence[int], r: int) -> int:
    """Nonperiodic autocorrelation of a plain integer sequence at lag r >= 0."""
    return sum(map(operator.mul, seq, seq[r:]))


TT_WEIGHTS = (1, 1, 2, 2)


def _weighted_lag_sum(seqs: Sequence[SymbolicSequence], r: int) -> MultilinearPoly:
    out = MultilinearPoly.zero(Domain.SPIN)
    for seq, w in zip(seqs, TT_WEIGHTS):
        out = out.add(nac(seq, r).scale(w))
    return out


def _squared_autocorrelation_energy(seqs: Sequence[SymbolicSequence]) -> MultilinearPoly:
    max_lag = max(len(s) for s in seqs)
    energy = MultilinearPoly.zero(Domain.SPIN)
    for r in range(1, max_lag):
        energy = energy.add(_weighted_lag_sum(seqs, r).square())
    return energy


# -- Williamson / Baumert-Hall ------------------------------------------------


def williamson_variable_count(k: int) -> int:
    return 2 * (k + 1)


def _williamson_rows(k: int) -> list[SymbolicSequence]:
    """Symbolic first rows of the blocks A, B, C, D (layout in williamson_energy)."""
    half = (k + 1) // 2
    return [[plus(b * half + min(i, k - i)) for i in range(k)] for b in range(4)]


def williamson_energy(k: int) -> MultilinearPoly:
    """Spin energy over 2(k+1) variables, zero iff the four symmetric
    circulant blocks form a Williamson quadruple.

    Block b has first row (a_0, a_1, ..., a_{(k-1)/2}, ..., a_1) over its own
    (k+1)/2 variables; blocks are laid out A, B, C, D with the diagonal entry
    first.  The energy is sum over all cells of (V_ij - 4k * delta_ij)^2 for
    V = A^T A + B^T B + C^T C + D^T D.
    """
    if k % 2 == 0:
        raise ValueError("symmetric circulant blocks require odd k")
    if k < 3:
        raise ValueError("k must be at least 3")
    rows = [[e.poly() for e in row] for row in _williamson_rows(k)]
    # V is symmetric circulant: each diagonal offset d holds k identical cells
    energy = MultilinearPoly.zero(Domain.SPIN)
    for d in range(k):
        v = MultilinearPoly.zero(Domain.SPIN)
        for row in rows:
            for t in range(k):
                v = v.add(row[t].mul(row[(t + d) % k]))
        if d == 0:
            v = v.add(MultilinearPoly.constant(Domain.SPIN, -4 * k))
        energy = energy.add(v.square().scale(k))
    return energy


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
        raise ValueError("n must be even and at least 4")
    idx = 0

    def take() -> int:
        nonlocal idx
        idx += 1
        return idx - 1

    X = [plus(), plus()] + [plus(take()) for _ in range(n - 4)] + [plus(), minus()]
    y_first = idx
    Y = [plus()] + [plus(take()) for _ in range(n - 3)] + [minus(y_first), minus()]
    Z = [plus()] + [plus(take()) for _ in range(n - 2)] + [plus()]
    W = [plus()] + [plus(take()) for _ in range(n - 2)]
    assert idx == 4 * n - 11
    return TurynQuadruple(n=n, X=tuple(X), Y=tuple(Y), Z=tuple(Z), W=tuple(W))


def turyn_energy(n: int) -> MultilinearPoly:
    """Spin energy over 4n-11 variables, zero iff the completed quadruple is
    a TT(n) sequence (weights 1,1,2,2 on X,Y,Z,W autocorrelations)."""
    quad = normalized_turyn_quadruple(n)
    return _squared_autocorrelation_energy(quad.sequences())


# -- Extended Turyn (solution prototypes) --------------------------------------


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
            raise ValueError(f"need 1 <= m < n/2, got m={self.m}, n={self.n}")
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
        return "/".join(
            "".join("*" if v is None else ("+" if v > 0 else "-") for v in side)
            for side in self.sides()
        )

    @classmethod
    def from_line(cls, line: str, m: int) -> "PrototypeSpec":
        parts = line.strip().split("/")
        if len(parts) != 4:
            raise ValueError(f"expected four /-separated sides: {line!r}")
        decoded = []
        for part in parts:
            side = []
            for ch in part:
                if ch == "*":
                    side.append(None)
                elif ch == "+":
                    side.append(1)
                elif ch == "-":
                    side.append(-1)
                else:
                    raise ValueError(f"bad prototype character {ch!r}")
            decoded.append(tuple(side))
        n = len(decoded[0])
        if [len(p) for p in decoded] != [n, n, n, n - 1]:
            raise ValueError(f"side lengths must be n,n,n,n-1: {line!r}")
        return cls(n=n, m=m, X=decoded[0], Y=decoded[1], Z=decoded[2], W=decoded[3])


def _high_lags_vanish(sides: Sequence[Sequence[int | None]], n: int, m: int) -> bool:
    """The check of `prototype_filter` on bare side tuples, whose free
    middles may be None: no product at these lags reaches a middle."""
    return all(
        sum(w * nac_values(side, r) for side, w in zip(sides, TT_WEIGHTS)) == 0
        for r in range(n - m, n)
    )


def prototype_filter(proto: PrototypeSpec) -> bool:
    """True iff the weighted autocorrelation sum vanishes at every lag
    r in [n-m, n-1].  Products at these lags touch only filled positions."""
    return _high_lags_vanish(proto.sides(), proto.n, proto.m)


def enumerate_prototypes(n: int, m: int) -> Iterator[PrototypeSpec]:
    """All fillings of the end positions of `normalized_turyn_quadruple(n)`
    that pass the filter.

    The ends are positions p < m and p >= n - m of every side.  Pinned
    entries keep their values; the variables left at end positions are
    enumerated lexicographically in ascending index order (+1 before -1),
    which is X, Y, Z, W order, left to right.  The filter runs on the
    filled sides, and a `PrototypeSpec` is built only for fillings that
    pass it.
    """
    quad = normalized_turyn_quadruple(n)
    if not 1 <= m < n / 2:
        raise ValueError(f"need 1 <= m < n/2, got m={m}")
    ends = [
        [e if p < m or p >= n - m else None for p, e in enumerate(seq)]
        for seq in quad.sequences()
    ]
    free = sorted({e.var for side in ends for e in side if e is not None and e.var is not None})
    for fill in itertools.product((1, -1), repeat=len(free)):
        values = dict(zip(free, fill))
        sides = [tuple(None if e is None else e.value(values) for e in side) for side in ends]
        if _high_lags_vanish(sides, n, m):
            yield PrototypeSpec(n, m, *sides)


def extended_energy(proto: PrototypeSpec) -> MultilinearPoly:
    """Spin energy over the 4(n-2m) unknown middles of a filtered prototype."""
    if not prototype_filter(proto):
        raise ValueError("prototype fails the high-lag autocorrelation filter")
    return _squared_autocorrelation_energy(proto.quadruple().sequences())


# -- numeric pipeline: TT(n) -> Goethals-Seidel inputs --------------------------


def check_tt(X: Sequence[int], Y: Sequence[int], Z: Sequence[int], W: Sequence[int]) -> bool:
    """Exact TT property: weighted autocorrelations sum to zero for r >= 1."""
    n = len(X)
    if not (len(Y) == len(Z) == n and len(W) == n - 1):
        return False
    if any(v not in (-1, 1) for seq in (X, Y, Z, W) for v in seq):
        return False
    return all(
        nac_values(X, r) + nac_values(Y, r) + 2 * nac_values(Z, r) + 2 * nac_values(W, r) == 0
        for r in range(1, n)
    )


def base_sequences(
    X: Sequence[int], Y: Sequence[int], Z: Sequence[int], W: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Base sequences (2n-1, 2n-1, n, n): A = Z||W, B = Z||-W, C = X, D = Y."""
    if not check_tt(X, Y, Z, W):
        raise ValueError("inputs do not form a Turyn-type sequence")
    A = list(Z) + list(W)
    B = list(Z) + [-w for w in W]
    C, D = list(X), list(Y)
    for r in range(1, len(A)):
        if sum(nac_values(s, r) for s in (A, B, C, D)) != 0:
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
    for r in range(1, length):
        if sum(nac_values(T, r) for T in (T1, T2, T3, T4)) != 0:
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
    for r in range(1, len(seeds[0])):
        if sum(nac_values(s, r) for s in seeds) != 0:
            raise AssertionError(f"seed-sequence zero-sum failed at lag {r}")
    return tuple(seeds)  # type: ignore[return-value]
