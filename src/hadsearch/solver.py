"""Ground-state search: exhaustive enumeration and simulated annealing.

Exhaustive enumeration evaluates a polynomial on all 2^n states at once as a
transform of its coefficient vector, indexed by monomial bitmask: the
unnormalised Walsh-Hadamard transform (Kronecker powers of the Sylvester
block [[1, 1], [1, -1]]) for spin polynomials, the subset-sum transform
(powers of the zeta block [[1, 0], [1, 1]]) for boolean ones.  One function
computes both as a product of small Kronecker factors (Fino and Algazi,
IEEE Trans. Comput. 1976): a few matrix products over the whole vector, each
applying 2^4 x 2^4 factors, instead of one pass over memory per bit.  The
products run in float64 on BLAS.  While the absolute coefficients sum
below 2^53 every partial sum is exact there; below 2^63 each chunk is
split into 26-bit high and low halves, each transformed exactly in float64
and joined in int64.  The states run in chunks of 2^22 over the high bits
so memory stays bounded.  The ground states are decoded and ordered as
arrays.

A sum of squared residuals (`SquareSum`, the energy `search` solves) is
zero exactly where every residual is, and no residual term links spins of
two connected components of its variable graph (the Williamson and
Baumert-Hall blocks, the Turyn sequences).  So its zero-energy set is a
join of two half enumerations (meet in the middle; Kharaghani and
Tayfeh-Rezaie, J. Combin. Des. 2005): each side's residual parts are
tabulated in int64 over its own 2^(n/2) or so assignments, and one sort of
the columns pairs every left assignment with each right one whose negated
parts equal its own.  Where that finds no zero state, the spins form one
component, or a side's tables would pass 2^22 entries, the expansion is
enumerated as above, so a minimum above zero is still reported.  The
join's tables stay within 2^22 entries a side; it holds one entry per
zero state only where every one is asked for, as the enumeration does.

Annealing is single-flip Metropolis with a geometric inverse-temperature
ladder, vectorised over reads, on either model kind: an Ising model (the
path `solve` takes) or a method's sum of squared residuals over its own
logical spins (the path `search` takes, with no ancillas and no penalty
weight).  One kernel serves both, since an Ising model is a single
residual entering the energy linearly.  The state keeps every residual
doubled, X = 2R, so that the sum X + delta a proposal forms for a sum of
squares also serves the update of X; a flip updates every residual
incrementally.  A flip attempt runs the same unmasked numpy calls on
every read, into buffers allocated once per run: the acceptance test
yields a sign, -1 to flip and +1 to keep, that multiplies the spin and the
residual change.  Every read draws its start state and acceptance uniforms
from a stream derived from (seed, read index), the uniforms of a block of
sweeps in one call, and each sweep's flip order comes from one dedicated
stream, so a fixed seed gives byte-identical samples.  Energies are exact
integers: the models `anneal` accepts keep every energy and energy change
below 2^62 in magnitude, and its inverse temperatures are finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .ising import IsingModel
from .polynom import Domain, MultilinearPoly, SquareSum

_CHUNK_BITS = 22  # exhaustive enumeration block size: 2^22 states at a time
_RADIX = 4  # index bits per matrix product of the exhaustive transform
_SPLIT_BITS = 26  # low-half width of an int64 chunk transformed in two halves
_SYLVESTER = np.array([[1, 1], [1, -1]])  # spin: s = +1 or -1 per bit
_ZETA = np.array([[1, 0], [1, 1]])  # boolean: a term counts where its bits are set
_PERM_STREAM_KEY = 1 << 32  # spawn key for the shared flip-order stream
_UNIFORM_BLOCK = 1 << 18  # acceptance uniforms drawn at once over all reads (2 MB)


@dataclass(frozen=True)
class Sample:
    values: tuple[int, ...]
    energy: int
    occurrences: int

    def __post_init__(self):
        # computed once: the sort, the sort check and the export all read it
        string = "".join(["+" if v > 0 else "-" for v in self.values])
        object.__setattr__(self, "_value_string", string)

    def value_string(self) -> str:
        return self._value_string


@dataclass(frozen=True)
class SampleSet:
    domain: Domain
    samples: tuple[Sample, ...]
    reads: int

    def __post_init__(self):
        if sum(s.occurrences for s in self.samples) != self.reads:
            raise ValueError("sample occurrences must sum to reads")
        keys = [(s.energy, s.value_string()) for s in self.samples]
        if keys != sorted(keys):
            raise ValueError("samples must be sorted by (energy, value string)")

    @property
    def min_energy(self) -> int:
        if not self.samples:
            raise ValueError("empty sample set")
        return self.samples[0].energy

    def best(self) -> Sample:
        if not self.samples:
            raise ValueError("empty sample set")
        return self.samples[0]

    def to_text(self) -> str:
        return "".join(
            f"{s.energy} {s.occurrences} {s.value_string()}\n" for s in self.samples
        )


def _sorted_samples(counts: dict[tuple[int, ...], tuple[int, int]]) -> tuple[Sample, ...]:
    samples = [
        Sample(values=v, energy=e, occurrences=n) for v, (e, n) in counts.items()
    ]
    samples.sort(key=lambda s: (s.energy, s.value_string()))
    return tuple(samples)


# -- exhaustive enumeration ----------------------------------------------------


def _transform(a: np.ndarray, block: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """The Kronecker power of a 2x2 block applied to a power-of-two vector.

    Output x is the sum over inputs m of a[m] times the product over bits i
    of block[x_i, m_i].  Each pass applies the block's power to _RADIX index
    bits at once (the lowest pass takes the remainder) as one matrix product
    per stack of `a.reshape(-1, 2^r, h)`, writing to the other of `a` and
    `spare`; returns whichever buffer holds the result.
    """
    n = a.size.bit_length() - 1
    h = 1
    while h < a.size:
        r = (n - 1) % _RADIX + 1 if h == 1 else _RADIX
        power = functools.reduce(np.kron, [block] * r).astype(a.dtype)
        x = a.reshape(-1, 1 << r, h)
        y = spare.reshape(-1, 1 << r, h)
        if h == 1:
            # one product over all rows rather than a matrix-vector product per row
            np.matmul(x[..., 0], power.T, out=y[..., 0])
        else:
            np.matmul(power, x, out=y)
        a, spare = spare, a
        h <<= r
    return a


def _split_transform(
    a: np.ndarray, block: np.ndarray, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray
) -> np.ndarray:
    """`_transform` of an int64 chunk whose results lie below 2^63 in
    magnitude, as two float64 transforms; returns `a`, overwritten.

    With a = 2^26 hi + lo and 0 <= lo < 2^26, a chunk of at most 2^22
    entries has sum |lo| < 2^48 and sum |hi| < 2^37 + 2^22, so both halves
    transform exactly in float64 (in the float64 buffers f0, f1 and f2).
    2^26 T(hi) + T(lo) is then formed in int64: it wraps modulo 2^64 on the
    way, but the true result fits, so it comes out exact.
    """
    np.bitwise_and(a, (1 << _SPLIT_BITS) - 1, out=f0, casting="unsafe")
    low = _transform(f0, block, f1)
    free = f1 if low is f0 else f0
    np.right_shift(a, _SPLIT_BITS, out=free, casting="unsafe")
    high = _transform(free, block, f2)
    np.copyto(a, high, casting="unsafe")
    a <<= _SPLIT_BITS
    low_int = high.view(np.int64)  # high is copied out: reuse its memory
    np.copyto(low_int, low, casting="unsafe")
    a += low_int
    return a


def exhaustive_min(
    model: MultilinearPoly | IsingModel | SquareSum,
    cap: int = 26,
    all_ground: bool = False,
) -> SampleSet:
    """Exact global minimum by enumerating all 2^n assignments.

    With all_ground, every minimizing assignment is returned (occurrences 1
    each); otherwise only the first in state order.  Rejects instances with
    more than `cap` variables, and instances whose absolute coefficients
    (the Ising offset included) sum to 2^63 or more, since their energies
    need not fit the int64 arithmetic.  States are enumerated 2^22 at a
    time, in two float64 buffers of 32 MB each while the absolute sum is
    below 2^53; past it, in one int64 and three float64 buffers of 32 MB
    each for the split transform (128 MB, the peak measured at 23 variables).

    A `SquareSum` gives the result, cap check and errors of its expanded
    polynomial, `exhaustive_min(model.expand(), cap, all_ground)`.  Its
    zero-energy states come from a join of two half enumerations where
    that applies (`_zero_states`); otherwise, and where no state reaches
    energy 0, the expansion is enumerated as above.  The join holds each
    side's spins and residual parts in at most 2^22 int64 entries (at that
    limit, two 17-spin sides and 15 residuals, the process peaked at
    113 MB), and with all_ground a few int64 entries per zero state.
    """
    if isinstance(model, SquareSum):
        return _square_sum_min(model, cap, all_ground)
    if isinstance(model, IsingModel):
        poly, nvars, domain = model.to_polynomial(), model.nvars, Domain.SPIN
    else:
        poly, nvars, domain = model, model.nvars, model.domain
    masks = {sum(1 << v for v in m): c for m, c in poly.terms.items()}
    return _enumerate(masks, nvars, domain, cap, all_ground)


def _enumerate(
    masks: dict[int, int], nvars: int, domain: Domain, cap: int, all_ground: bool
) -> SampleSet:
    """`exhaustive_min` of the polynomial over variables 0..nvars-1 whose
    coefficients `masks` holds by monomial bitmask (bit i marks variable i)."""
    if nvars > cap:
        raise ValueError(f"{nvars} variables exceed the exhaustive cap of {cap}")
    spin = domain is Domain.SPIN

    if nvars == 0:
        sample = Sample(values=(), energy=masks.get(0, 0), occurrences=1)
        return SampleSet(domain=domain, samples=(sample,), reads=1)
    # Every partial sum the transform forms, in any order, is a signed sum of
    # distinct coefficients: below 2^53 float64 (and its BLAS products) holds
    # them exactly; below 2^63 the split transform is exact.
    bound = sum(map(abs, masks.values()))
    if bound >= 1 << 63:
        raise ValueError(
            "absolute coefficients sum to 2^63 or more; energies could overflow int64"
        )
    split = bound >= 1 << 53
    dtype = np.int64 if split else np.float64

    # State bit i set means s_i = +1 (spin) or q_i = 1 (boolean).  The low
    # `low_bits` bits of a state index the transformed vector; each
    # high-bit pattern is one chunk.
    low_bits = min(_CHUNK_BITS, nvars)
    low = np.array([m & ((1 << low_bits) - 1) for m in masks], dtype=np.int64)
    high = np.array([m >> low_bits for m in masks], dtype=np.int64)
    # s_i = -(-1)^bit_i, so a spin monomial is (-1)^|m| * (-1)^popcount(m & state)
    coeffs = np.array(
        [-c if spin and m.bit_count() % 2 else c for m, c in masks.items()], dtype=dtype
    )
    block = _SYLVESTER if spin else _ZETA
    a = np.empty(1 << low_bits, dtype=dtype)
    spares = [np.empty(a.size) for _ in range(3 if split else 1)]

    best_energy: int | None = None
    minima: list[np.ndarray] = []
    for pattern in range(1 << (nvars - low_bits)):
        a.fill(0)
        if spin:
            # the chunk's high bits are fixed: fold their signs into the terms
            signs = np.bitwise_count(high & pattern) % 2
            np.add.at(a, low, np.where(signs, -coeffs, coeffs))
        else:
            # a term counts only where the chunk's high bits cover its own
            covered = (high & ~pattern) == 0
            np.add.at(a, low[covered], coeffs[covered])
        values = _split_transform(a, block, *spares) if split else _transform(a, block, *spares)
        start = pattern << low_bits
        lo = int(values.min())
        if best_energy is None or lo < best_energy:
            best_energy = lo
            minima = []
        if lo == best_energy:
            if all_ground:
                minima.append(start + np.flatnonzero(values == lo))
            elif not minima:
                minima.append(start + np.array([values.argmin()]))
    assert best_energy is not None
    return _ground_samples(np.concatenate(minima), nvars, domain, best_energy)


def _ground_samples(states: np.ndarray, nvars: int, domain: Domain, energy: int) -> SampleSet:
    """One sample per state index (bit i set where variable i is +1 or 1),
    in sample order."""
    bits = (states[:, None] >> np.arange(nvars)) & 1
    # samples sort by value string, in which "+" (bit 1) precedes "-" (bit 0)
    # and variable 0 comes first
    order = np.argsort(((1 - bits) << np.arange(nvars - 1, -1, -1)).sum(axis=1))
    rows = (2 * bits - 1 if domain is Domain.SPIN else bits)[order].tolist()
    samples = tuple(Sample(values=tuple(v), energy=energy, occurrences=1) for v in rows)
    return SampleSet(domain=domain, samples=samples, reads=len(samples))


def _square_sum_min(model: SquareSum, cap: int, all_ground: bool) -> SampleSet:
    """`exhaustive_min(model.expand(), cap, all_ground)`, by the join where
    it finds a zero-energy state."""
    masks = model.expanded_masks()
    # the expansion's variables: one past the highest it keeps
    nvars = max((m.bit_length() for m, c in masks.items() if c), default=0)
    # past the cap or the int64 bound the enumeration raises, as it always has
    if 0 < nvars <= cap and sum(map(abs, masks.values())) < 1 << 63:
        states = _zero_states(model, nvars, all_ground)
        if states is not None and states.size:
            return _ground_samples(states, nvars, Domain.SPIN, 0)
    return _enumerate(masks, nvars, Domain.SPIN, cap, all_ground)


def _zero_states(model: SquareSum, nvars: int, all_ground: bool) -> np.ndarray | None:
    """The state indices of spins 0..nvars-1 at which all of the model's
    residuals vanish, spins from `nvars` on set to +1: every one with
    all_ground, otherwise the lowest (an empty array where there is none);
    None where the join does not apply.

    Weights are positive, so these are exactly the zero-energy states.  No
    quadratic term links two connected components of the residuals'
    variable graph, so with the components dealt to two sides each
    residual is R = c + L + R', L over the left spins and R' over the right
    ones.  Each side's parts are enumerated as one int64 table, and R = 0
    joins c + L to equal values of -R'.  The tables are exact: the caller
    keeps the expansion's absolute sum below 2^63, and it includes the
    constant w (c_0^2 + ... + c_k^2) >= (|c_0| + ... + |c_k|)^2 / (k + 1)
    of each residual, so no residual's absolute sum comes near 2^62.  It
    does not apply where the spins form one component, or where a side's
    tables would exceed 2^_CHUNK_BITS entries.
    """
    distinct: dict[frozenset, dict[tuple[int, ...], int]] = {}
    for _, residual in model.terms:
        terms: dict[tuple[int, ...], int] = {}
        for m, c in residual.terms.items():
            m = tuple(v for v in m if v < nvars)  # the energy does not depend on the rest
            terms[m] = terms.get(m, 0) + c
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            distinct.setdefault(frozenset(terms.items()), terms)
    residuals = list(distinct.values())
    sides = _sides(residuals, nvars)
    if sides is None or any((1 << len(s)) * (len(s) + len(residuals)) > 1 << _CHUNK_BITS
                            for s in sides):
        return None
    (left, left_states), (right, right_states) = (_side_table(residuals, s) for s in sides)
    left += np.array([[terms.get((), 0)] for terms in residuals], dtype=np.int64)
    ids = _column_ids(np.concatenate([left, np.negative(right, out=right)], axis=1))
    left_ids, right_ids = ids[: left.shape[1]], ids[left.shape[1] :]
    # right columns run in increasing state order, so a stable sort puts the
    # lowest state of each id first
    order = np.argsort(right_ids, kind="stable")
    count = np.bincount(right_ids, minlength=ids.size)
    start = (np.cumsum(count) - count)[left_ids]
    count = count[left_ids]
    if not all_ground:
        hit = count > 0
        lowest = left_states[hit] + right_states[order[start[hit]]]
        return lowest.min(keepdims=True) if lowest.size else lowest
    # pair p of left column i takes right column order[start_i + p - (pairs before i)]
    first = np.repeat(start - np.cumsum(count) + count, count)
    columns = np.repeat(np.arange(left_ids.size), count)
    return left_states[columns] + right_states[order[first + np.arange(columns.size)]]


def _sides(residuals: list[dict], nvars: int) -> tuple[list[int], list[int]] | None:
    """Spins 0..nvars-1 dealt to two sides by connected component of the
    quadratic terms, largest component first, each to the side with fewer
    spins; None if they form one component."""
    root = list(range(nvars))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for terms in residuals:
        for m in terms:
            if len(m) == 2:
                root[find(m[0])] = find(m[1])
    components: dict[int, list[int]] = {}
    for v in range(nvars):
        components.setdefault(find(v), []).append(v)
    if len(components) < 2:
        return None
    sides: tuple[list[int], list[int]] = ([], [])
    for component in sorted(components.values(), key=len, reverse=True):
        min(sides, key=len).extend(component)
    return sorted(sides[0]), sorted(sides[1])


def _side_table(residuals: list[dict], side: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each residual's non-constant part over the spins `side` at every
    assignment of them, shape (L, 2^b), and each column's state index.

    Column i sets s_side[t] = +1 where bit t of i is set.  The table grows
    one spin at a time: with spin t added it is [part - f, part + f], f the
    field of spin t, its linear coefficient plus its quadratic coefficients
    with the earlier spins times their values.
    """
    b = len(side)
    local = {v: t for t, v in enumerate(side)}
    linear = np.zeros((len(residuals), b), dtype=np.int64)
    quadratic = np.zeros((len(residuals), b, b), dtype=np.int64)
    for r, terms in enumerate(residuals):
        for m, c in terms.items():
            if len(m) == 1 and m[0] in local:
                linear[r, local[m[0]]] = c
            elif len(m) == 2 and m[0] in local:
                # m[0] < m[1]: the later spin's row, the earlier one's column
                quadratic[r, local[m[1]], local[m[0]]] = c
    spins = ((np.arange(1 << b) >> np.arange(b)[:, None]) & 1) * 2 - 1
    parts = np.zeros((len(residuals), 1), dtype=np.int64)
    for t in range(b):
        field = linear[:, t, None] + quadratic[:, t, :t] @ spins[:t, : 1 << t]
        parts = np.concatenate([parts - field, parts + field], axis=1)
    return parts, (1 << np.array(side, dtype=np.int64)) @ (spins > 0)


def _column_ids(table: np.ndarray) -> np.ndarray:
    """One id per column of a 2-D int64 table with at least one row, equal
    exactly where the columns are equal."""
    order = np.lexsort(table)
    ordered = table[:, order]
    new = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)  # column differs from the one before
    ids = np.empty(table.shape[1], dtype=np.int64)
    ids[order] = np.concatenate([[0], np.cumsum(new)])
    return ids


# -- simulated annealing --------------------------------------------------------


def default_beta_range(model: IsingModel | SquareSum) -> tuple[float, float]:
    """Hot end keeps the largest energy coefficient flippable; cold end
    freezes unit gaps.  A `SquareSum` counts its expanded coefficients."""
    if isinstance(model, IsingModel):
        top = model.max_abs_coeff()
    else:
        top = max((abs(c) for m, c in model.expanded_masks().items() if m), default=0)
    return 0.01 / max(1, top), 10.0


def _read_generator(seed: int, read_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(read_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _energy_bound(model: IsingModel | SquareSum) -> int:
    """Bound on every |energy| and |energy change| of a model: the absolute
    coefficient sum of an Ising model (offset included), and sum of
    w * A^2 over a `SquareSum`, A the absolute coefficient sum of a
    residual, which bounds |R| and |(R + delta)^2 - R^2|."""
    if isinstance(model, IsingModel):
        return model.to_polynomial().abs_coeff_sum()
    return sum(w * r.abs_coeff_sum() ** 2 for w, r in model.terms)


class _Kernel:
    """Single-flip Metropolis moves on E = c + sum over r of
    (u_r R_r + w_r R_r^2), each R_r a quadratic spin form.

    An Ising model is the one residual sum h s + sum J s s with u = 1,
    w = 0 and c its offset; a `SquareSum` has u = 0 and w its weights, with
    constant residuals folded into c and identical ones merged.  States are
    columns of S, shape (n+1, reads), whose last row is the constant 1.
    `flips[i]`, shape (L, n+1), is -2 times the derivative of every residual
    in s_i, so flipping s_i changes R by delta = s_i * (flips[i] @ S).  The
    loop keeps X = 2R: the energy change is w @ ((X + delta) * delta) for a
    sum of squares (`squares`), since (R + delta)^2 - R^2 = (2R + delta)
    delta, and u @ delta for an Ising model.  Every read then takes the
    same update, with no mask: sign is -1 where the flip is accepted and +1
    where it is not, s_i and delta are multiplied by it, and X becomes
    (X + delta) - sign * delta, which is X on a rejected flip and
    X + 2 delta = 2R' on an accepted one.

    `bound`, the model's `_energy_bound`, caps the magnitude of every
    energy, energy change and residual, and of half of every residual
    change.  Below 2^52 the kernel runs in float64, whose matrix products
    use BLAS: every value it forms is then an integer below 2^53, which
    float64 holds exactly.  That includes X + delta = R + R', R' the
    residual after the flip, each (X + delta) * delta = R'^2 - R^2, and
    (X + delta) - sign * delta, which is 2R or 2R'; an Ising model's
    squares are formed only by `energies`, where they may round but enter
    with weight 0.  Otherwise it runs in int64, exact modulo 2^64, so only
    the energy changes and energies, compared and returned, must fit.
    """

    def __init__(self, model: IsingModel | SquareSum, bound: int):
        if isinstance(model, IsingModel):
            n, c = model.nvars, model.offset
            terms = {(i,): v for i, v in model.h.items()} | dict(model.J)
            residuals = [(1, 0, terms)] if terms else []
        else:
            n, c = model.nvars, 0
            merged: dict[frozenset, list] = {}
            for w, residual in model.terms:
                terms = residual.terms
                if residual.degree() == 0:
                    c += w * terms.get((), 0) ** 2
                else:
                    merged.setdefault(frozenset(terms.items()), [terms, 0])[1] += w
            residuals = [(0, w, terms) for terms, w in merged.values()]
        self.dtype = np.float64 if bound < 1 << 52 else np.int64
        self.squares = isinstance(model, SquareSum)
        self.nvars, self.offset = n, c
        self.u = np.array([u for u, _, _ in residuals], dtype=self.dtype)
        self.w = np.array([w for _, w, _ in residuals], dtype=self.dtype)
        self.constants = np.zeros((len(residuals), 1), dtype=self.dtype)
        self.flips = np.zeros((n, len(residuals), n + 1), dtype=self.dtype)
        for r, (_, _, terms) in enumerate(residuals):
            for m, v in terms.items():
                if not m:
                    self.constants[r] = v
                elif len(m) == 1:
                    self.flips[m[0], r, n] = -2 * v
                else:
                    self.flips[m[0], r, m[1]] = self.flips[m[1], r, m[0]] = -2 * v

    def states(self, spins: np.ndarray) -> np.ndarray:
        """S for +/-1 spins of shape (reads, n)."""
        S = np.ones((self.nvars + 1, len(spins)), dtype=self.dtype)
        S[: self.nvars] = spins.T
        return S

    def residuals(self, S: np.ndarray) -> np.ndarray:
        """R, shape (L, reads), evaluated afresh from the states S."""
        minus_twice = np.zeros((len(self.w), S.shape[1]), dtype=self.dtype)
        for i in range(self.nvars):
            # s_i times the part of flips[i] past column i counts every term once
            minus_twice += S[i] * (self.flips[i, :, i + 1 :] @ S[i + 1 :])
        return self.constants - minus_twice // 2

    def energies(self, X: np.ndarray) -> list[int]:
        """Energies of the states whose doubled residuals are X = 2R."""
        R = X // 2
        return (self.offset + (self.u @ R + self.w @ (R * R)).astype(np.int64)).tolist()

    def sweeper(
        self, S: np.ndarray, X: np.ndarray
    ) -> Callable[[list[int], np.ndarray, float], np.ndarray]:
        """The Metropolis step on the states S and doubled residuals X, as
        a function sweep(order, uniforms, neg_beta) that updates both in
        place.  Attempt k flips s_i, i = order[k], in every read whose
        uniform in row k of `uniforms` is below exp(neg_beta * dE), neg_beta
        a finite Python float.  It returns the buffer holding the
        energy changes dE of the last attempt.  Its buffers are allocated
        here, once.

        sign = copysign(1, uniform - exp(neg_beta * dE)) is -1 exactly
        where uniform < exp(neg_beta * dE).  A uniform must be negative or
        at least 2^-53: below an exponent of -745 exp underflows to 0.0,
        and 0.0 - 0.0 = +0.0 would reject.
        """
        rows, flips = list(S), list(self.flips)
        squares, w, u = self.squares, self.w, self.u
        delta, moved, change = np.empty_like(X), np.empty_like(X), np.empty_like(X)
        delta_e = np.empty(S.shape[1], dtype=self.dtype)
        sign = np.empty_like(delta_e)
        e, ones = np.empty(S.shape[1]), np.ones(S.shape[1])
        matmul, multiply, add, subtract = np.matmul, np.multiply, np.add, np.subtract
        dot, exp, copysign = np.dot, np.exp, np.copysign

        def sweep(order: list[int], uniforms: np.ndarray, neg_beta: float) -> np.ndarray:
            for i, uniform in zip(order, uniforms):
                row = rows[i]
                matmul(flips[i], S, out=delta)
                multiply(delta, row, out=delta)
                add(X, delta, out=moved)
                if squares:
                    # w (R + delta)^2 - w R^2 = w (2R + delta) delta
                    multiply(moved, delta, out=change)
                    dot(w, change, out=delta_e)
                else:
                    dot(u, delta, out=delta_e)
                multiply(delta_e, neg_beta, out=e)
                exp(e, out=e)
                subtract(uniform, e, out=e)
                # the int64 kernel takes the signs +-1.0 as +-1
                copysign(ones, e, out=sign, casting="unsafe")
                multiply(row, sign, out=row)
                multiply(delta, sign, out=delta)
                subtract(moved, delta, out=X)
            return delta_e

        return sweep


def _metropolis_states(
    kernel: _Kernel, reads: int, sweeps: int, betas: np.ndarray, seed: int
) -> tuple[list[list[int]], list[int]]:
    """Final spin states (reads x nvars) and their energies."""
    n = kernel.nvars
    gens = [_read_generator(seed, r) for r in range(reads)]
    perm_gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(_PERM_STREAM_KEY,)))
    )
    S = kernel.states(np.array([g.integers(0, 2, size=n) * 2 - 1 for g in gens]).reshape(reads, n))
    X = 2 * kernel.residuals(S)
    sweep = kernel.sweeper(S, X)
    # Generator.random fills doubles in stream order, so drawing `block`
    # sweeps' uniforms in one call gives each sweep the values it would get
    # from a call of its own
    block = max(1, _UNIFORM_BLOCK // max(1, reads * n))
    drawn = np.empty((reads, block * n))
    uniforms = np.empty((block, n, reads))
    # exp(neg_beta * dE) overflows to inf where a move lowers the energy
    # steeply, which accepts it, and underflows to 0.0 where it raises it
    # steeply, which rejects it
    with np.errstate(over="ignore", under="ignore"):
        for t, beta in enumerate(betas.tolist()):
            if t % block == 0:
                count = min(block, sweeps - t)
                for g, row in zip(gens, drawn):
                    g.random(out=row[: count * n])
                np.copyto(uniforms[:count], drawn[:, : count * n].T.reshape(count, n, reads))
                # 0.0 < exp(x) for every real x, but exp underflows to 0.0
                # below -745: as -1.0 a drawn 0.0 accepts every move
                np.copyto(uniforms, -1.0, where=uniforms == 0.0)
            sweep(perm_gen.permutation(n).tolist(), uniforms[t % block], -beta)
    return S[:n].T.astype(np.int64).tolist(), kernel.energies(X)


def anneal(
    model: IsingModel | SquareSum,
    reads: int = 1000,
    sweeps: int = 1000,
    beta_start: float | None = None,
    beta_end: float | None = None,
    seed: int = 0,
) -> SampleSet:
    """Seeded single-flip Metropolis annealing of an Ising model or of a
    sum of squared residuals over its own spins.

    Each read starts from a random spin state and runs `sweeps` full passes
    with a geometric inverse-temperature schedule; identical inputs give
    bit-identical results.  Each read draws the acceptance uniforms of
    several sweeps in one call, as many as keep all reads' uniforms within
    `_UNIFORM_BLOCK` doubles (at least one sweep).  The loop keeps every
    residual doubled, 2R, and applies an accepted or rejected flip alike as
    a +-1 sign, so one flip attempt is a fixed sequence of twelve unmasked
    numpy calls (eleven for an Ising model) on buffers allocated once per
    run.  Rejects a model whose `_energy_bound` is 2^62 or more: for an
    Ising model, absolute coefficients (the offset included) summing that
    high; for a `SquareSum`, a sum of w * A^2 that high, A the absolute
    coefficient sum of a residual.  Rejects inverse temperatures that are
    not positive and finite, NaN included, and a schedule between them
    that overflows to inf.  An n-spin Ising
    model holds a dense n x (n+1) flip matrix, sparse or not: a 3000-spin
    chain used +74 MB peak RSS, against +9 MB for a neighbour-list loop.
    """
    bound = _energy_bound(model)
    if bound >= 1 << 62:
        raise ValueError(
            "energy bound of 2^62 or more; energies and energy changes could overflow int64"
        )
    if reads <= 0 or sweeps <= 0:
        raise ValueError("reads and sweeps must be positive")
    b0, b1 = default_beta_range(model)
    beta_start = b0 if beta_start is None else beta_start
    beta_end = b1 if beta_end is None else beta_end
    for name, beta in (("beta_start", beta_start), ("beta_end", beta_end)):
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"inverse temperatures must be positive and finite, got {name}={beta}")
    if sweeps == 1:
        betas = np.array([beta_end])
    else:
        ratio = beta_end / beta_start
        betas = beta_start * ratio ** (np.arange(sweeps) / (sweeps - 1))
        if not np.isfinite(betas).all():
            raise ValueError(
                f"the schedule from beta_start={beta_start} to beta_end={beta_end} overflows"
            )

    S, energies = _metropolis_states(_Kernel(model, bound), reads, sweeps, betas, seed)
    counts: dict[tuple[int, ...], tuple[int, int]] = {}
    for row, e in zip(S, energies):
        key = tuple(row)
        prev = counts.get(key)
        counts[key] = (e, 1 if prev is None else prev[1] + 1)
    return SampleSet(domain=Domain.SPIN, samples=_sorted_samples(counts), reads=reads)


def write_samples(sampleset: SampleSet, fp: IO[str]) -> None:
    fp.write(sampleset.to_text())
