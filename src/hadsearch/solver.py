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
so memory stays bounded.

A sum of squared residuals (`SquareSum`, the energy `search` solves) is
zero exactly where every residual is, and no residual term links spins of
two connected components of its variable graph (the Williamson and
Baumert-Hall blocks, the Turyn sequences).  So its zero-energy set is a
join of two half enumerations (meet in the middle; Kharaghani and
Tayfeh-Rezaie, J. Combin. Des. 2005): each side's residual parts, slices
of the `SquareSum`'s residual array, are tabulated in int64 over its own
2^(n/2) or so assignments, and one sort of the columns pairs every left
assignment with each right one whose negated parts equal its own.  Where
that finds no zero state, every residual is zero, the spins form one
component, or a side's tables would pass 2^22 entries, the expansion is
enumerated as above.  Both run over the `nvars` spins the `SquareSum`
declares, the spins annealing reports too.

Annealing is single-flip Metropolis with a geometric inverse-temperature
ladder, vectorised over reads, on an Ising model (the path `solve` takes)
or a method's sum of squared residuals over its own logical spins (the
path `search` takes, with no ancillas and no penalty weight).  One kernel
serves both, since an Ising model is a single residual entering the
energy linearly; its flip matrices come from the residual array or the
Ising polynomial's blocks.  The state keeps every residual doubled,
X = 2R, and a flip attempt runs the same ten unmasked numpy calls on every
read (nine for an Ising model) into buffers allocated once per run, its
decision a sign, -1 to flip and +1 to keep (`_Kernel`).  A move is
accepted where its energy change dE is below the threshold
T = -ln(u) / beta, which holds exactly where u < exp(-beta dE) (Isakov et
al., Comput. Phys. Commun. 2015), so no exponential is taken per attempt.
After a full sweep that moves no read, the attempts that no read can
accept are passed over in a few array operations rather than run
(`_metropolis_states`).  Every read draws its start state and acceptance
uniforms from a stream derived from (seed, read index), a block of sweeps
in one call, and the flip orders come from one dedicated stream, so a
fixed seed gives byte-identical samples.  The uniforms become their
thresholds in place, in the one buffer they are drawn into.  Energies are
exact integers: the models `anneal` accepts keep every energy and energy
change below 2^62 in magnitude.  The accept/reject decision is the one
rounded step; see `_Kernel` for where it can differ from u < exp(-beta dE)
evaluated in floating point.

Both solvers return a `SampleSet`, which holds the distinct samples as
arrays (int8 values, int64 energies and read counts) in sample order, and
both build it through `_sample_set`, one lexsort of the rows: the
enumeration passes its decoded ground states, annealing its final states
grouped by `np.unique` with each row's bytes as one item.  No per-sample
Python object is made unless `samples` or `best()` asks for one, and
`to_text` writes the value strings through one byte lookup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .ising import IsingModel
from .polynom import Domain, MultilinearPoly, SquareSum, _max_abs_coeff

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

    def value_string(self) -> str:
        return "".join(["+" if v > 0 else "-" for v in self.values])


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Distinct samples as read-only arrays, in sample order.

    Row i of `values` (int8, shape (k, n)) is one assignment, with its
    energy `energies[i]` and read count `occurrences[i]` (int64, shape
    (k,)).  Sample order is ascending energy, then ascending value string,
    in which "+" (+1, or 1 in the boolean domain) precedes "-" and variable
    0 comes first.  Rows must be strictly ascending in that order, so no two
    are equal, every entry must be a value of the domain, and occurrences
    must be at least 1 and sum to `reads`.  `samples`, `best()` and
    `min_energy` read the arrays as Python ints.
    """

    domain: Domain
    values: np.ndarray
    energies: np.ndarray
    occurrences: np.ndarray
    reads: int

    def __post_init__(self):
        values, energies, occurrences = map(np.asarray, (self.values, self.energies,
                                                         self.occurrences))
        if values.ndim != 2 or not energies.shape == occurrences.shape == values.shape[:1]:
            raise ValueError("values must have shape (k, n), energies and occurrences (k,)")
        lo, hi = self.domain.values
        if not ((values == lo) | (values == hi)).all():
            raise ValueError(f"sample values must be {self.domain.value} values {self.domain.values}")
        # astype copies: the set owns its arrays
        values, energies, occurrences = (values.astype(np.int8), energies.astype(np.int64),
                                         occurrences.astype(np.int64))
        if (occurrences < 1).any() or int(occurrences.sum()) != self.reads:
            raise ValueError("sample occurrences must be at least 1 and sum to reads")
        # each row's sort keys must rise from the row before at the first
        # key that differs; an equal row has none
        rise = np.stack([(key[1:] > key[:-1]).astype(np.int8) - (key[1:] < key[:-1])
                         for key in _sort_keys(values, energies)], axis=1)
        first = rise[np.arange(len(rise)), np.argmax(rise != 0, axis=1)]
        if (first <= 0).any():
            raise ValueError("samples must be distinct and sorted by (energy, value string)")
        for name, array in (("values", values), ("energies", energies),
                            ("occurrences", occurrences)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return (self.domain is other.domain and self.reads == other.reads
                and np.array_equal(self.values, other.values)
                and np.array_equal(self.energies, other.energies)
                and np.array_equal(self.occurrences, other.occurrences))

    @property
    def samples(self) -> tuple[Sample, ...]:
        """Every sample as a `Sample` of Python ints, in sample order."""
        return tuple(map(Sample, map(tuple, self.values.tolist()), self.energies.tolist(),
                         self.occurrences.tolist()))

    @property
    def min_energy(self) -> int:
        return self.best().energy

    def best(self) -> Sample:
        if not len(self.values):
            raise ValueError("empty sample set")
        return Sample(tuple(self.values[0].tolist()), int(self.energies[0]),
                      int(self.occurrences[0]))

    def to_text(self) -> str:
        """One line per sample: energy, occurrences and value string."""
        k, n = self.values.shape
        if not k:
            return ""
        chars = np.empty((k, n + 1), dtype=np.uint8)
        chars[:, :n] = np.frombuffer(b"-+", dtype=np.uint8)[(self.values > 0).astype(np.intp)]
        chars[:, n] = ord("\n")
        lines = chars.tobytes().decode("ascii").splitlines(keepends=True)
        # rows in a run of equal energy and occurrences share one prefix
        e, o = self.energies, self.occurrences
        runs = [0, *(np.flatnonzero((e[1:] != e[:-1]) | (o[1:] != o[:-1])) + 1).tolist(), k]
        prefixes = [f"{e[a]} {o[a]} " for a in runs[:-1]]
        return "".join(p + p.join(lines[a:b]) for p, a, b in zip(prefixes, runs, runs[1:]))


def _sort_keys(values: np.ndarray, energies: np.ndarray) -> list[np.ndarray]:
    """The keys of sample order, first key first: the energies, then each
    row's value string as big-endian 64-bit words, with a bit set where
    the string has "-" and variable 0 in the highest bit of the first word."""
    k, n = values.shape
    packed = np.zeros((k, -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(values <= 0, axis=1)
    return [energies, *packed.view(">u8").T]


def _sample_set(domain: Domain, values: np.ndarray, energies: np.ndarray,
                occurrences: np.ndarray, reads: int) -> SampleSet:
    """The sample set of the distinct rows `values`, put in sample order."""
    order = np.lexsort(_sort_keys(values, energies)[::-1])  # lexsort's last key is its first
    return SampleSet(domain=domain, values=values[order], energies=energies[order],
                     occurrences=occurrences[order], reads=reads)


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
    more than `cap` variables or more than 63, the most an int64 state
    index holds, and instances whose absolute coefficients (the Ising
    offset included) sum to 2^63 or more, since their energies need not
    fit the int64 arithmetic.  States are enumerated 2^22 at a time, in
    two float64 buffers of 32 MB each while the absolute sum is
    below 2^53; past it, in one int64 and three float64 buffers of 32 MB
    each for the split transform (128 MB, the peak measured at 23 variables).

    A `SquareSum` gives the result, cap check and errors of its expansion
    enumerated over its `nvars` spins, by the join of `_zero_states` where
    that finds a zero state.  The join holds each side's spins and residual
    parts in at most 2^22 int64 entries (113 MB peak at two 17-spin sides
    and 15 residuals), and with all_ground a few int64 entries per zero
    state.
    """
    if isinstance(model, SquareSum):
        # past the cap, or where the tables may not fit int64, the enumeration decides
        if model.nvars <= cap and _energy_bound(model) < 1 << 63:
            states = _zero_states(model, all_ground)
            if states is not None and states.size:
                return _ground_samples(states, model.nvars, Domain.SPIN, 0)
        poly = MultilinearPoly._from_blocks(Domain.SPIN, model._expansion())
    else:
        poly = model.poly if isinstance(model, IsingModel) else model
    return _enumerate(poly, model.nvars, cap, all_ground)


def _enumerate(poly: MultilinearPoly, nvars: int, cap: int, all_ground: bool) -> SampleSet:
    """`exhaustive_min` of the polynomial `poly`, read off its canonical
    blocks, over variables 0..nvars-1."""
    if nvars > cap:
        raise ValueError(f"{nvars} variables exceed the exhaustive cap of {cap}")
    if nvars > 63:  # the most variables an int64 state index holds
        raise ValueError(f"{nvars} variables exceed the enumeration limit of 63")
    domain = poly.domain
    spin = domain is Domain.SPIN
    blocks = poly._blocks

    if nvars == 0:
        constant = int(blocks[0][1][0]) if blocks else 0
        return _ground_samples(np.zeros(1, dtype=np.int64), 0, domain, constant)
    # Every partial sum the transform forms, in any order, is a signed sum of
    # distinct coefficients: below 2^53 float64 (and its BLAS products) holds
    # them exactly; below 2^63 the split transform is exact.
    bound = poly.abs_coeff_sum()
    if bound >= 1 << 63:
        raise ValueError(
            "absolute coefficients sum to 2^63 or more; energies could overflow int64"
        )
    split = bound >= 1 << 53
    dtype = np.int64 if split else np.float64

    # A monomial's bitmask has bit i set for each of its variables i.  State
    # bit i set means s_i = +1 (spin) or q_i = 1 (boolean).  The low
    # `low_bits` bits of a state index the transformed vector; each
    # high-bit pattern is one chunk.
    masks, coeffs = [np.zeros(0, np.int64)], [np.zeros(0, dtype)]
    for idx, c in blocks:
        masks.append((1 << idx.astype(np.int64)).sum(axis=1))
        # s_i = -(-1)^bit_i, so a spin monomial is (-1)^|m| * (-1)^popcount(m & state)
        coeffs.append(c.astype(dtype) * (-1 if spin and idx.shape[1] % 2 else 1))
    masks, coeffs = np.concatenate(masks), np.concatenate(coeffs)
    low_bits = min(_CHUNK_BITS, nvars)
    low = masks & ((1 << low_bits) - 1)
    high = masks >> low_bits
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
    bits = ((states[:, None] >> np.arange(nvars)) & 1).astype(np.int8)
    values = 2 * bits - 1 if domain is Domain.SPIN else bits
    k = len(states)
    return _sample_set(domain, values, np.full(k, energy, dtype=np.int64),
                       np.ones(k, dtype=np.int64), k)


def _zero_states(model: SquareSum, all_ground: bool) -> np.ndarray | None:
    """The state indices of the model's spins at which all of its
    residuals vanish: every one with all_ground, otherwise the lowest (an
    empty array where there is none); None where the join does not apply.

    Weights are positive, so these are exactly the zero-energy states.  No
    quadratic term links two connected components of the residuals'
    variable graph, so with the components dealt to two sides each
    residual is R = c + L + R', L over the left spins and R' over the right
    ones, each side's parts one int64 table, and R = 0 joins c + L to equal
    values of -R'.  The tables are exact: the caller keeps sum of w * A^2,
    A a residual's absolute coefficient sum, below 2^63.  It does not
    apply where every residual is zero, where the spins form one
    component, or where a side's tables would exceed 2^_CHUNK_BITS entries.
    """
    D = model.coefficients.astype(np.int64, copy=False)
    D = D[D.reshape(len(D), -1).any(axis=1)]
    sides = _sides(D) if len(D) else None
    if sides is None or any((1 << len(s)) * (len(s) + len(D)) > 1 << _CHUNK_BITS
                            for s in sides):
        return None
    (left, left_states), (right, right_states) = (_side_table(D, s) for s in sides)
    left += D[:, -1, -1, None]
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


def _sides(D: np.ndarray) -> tuple[list[int], list[int]] | None:
    """The spins of `D`, residuals laid out as `SquareSum.coefficients`,
    dealt to two sides by connected component of the quadratic terms, the
    largest first, each to the side with fewer spins; None if only one."""
    nvars = D.shape[1] - 1
    label = list(range(nvars))
    for i, j in zip(*(a.tolist() for a in D[:, :nvars, :nvars].any(axis=0).nonzero())):
        if label[i] != label[j]:  # j's component joins i's
            label = [label[i] if x == label[j] else x for x in label]
    components: dict[int, list[int]] = {}
    for v, c in enumerate(label):
        components.setdefault(c, []).append(v)
    if len(components) < 2:
        return None
    sides: tuple[list[int], list[int]] = ([], [])
    for component in sorted(components.values(), key=len, reverse=True):
        min(sides, key=len).extend(component)
    return sorted(sides[0]), sorted(sides[1])


def _side_table(D: np.ndarray, side: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each residual's non-constant part in `D` (laid out as in `_sides`)
    over the spins `side` at every assignment of them, shape (L, 2^b), and
    each column's state index.  Column i sets s_side[t] = +1 where bit t of
    i is set.  The table grows one spin at a time: with spin t added it is
    [part - f, part + f], f the field of spin t, its linear coefficient plus
    its quadratic coefficients with the earlier spins times their values."""
    b = len(side)
    linear = D[:, side, -1]
    # the later spin's row, the earlier one's column
    quadratic = D[:, side][:, :, side].transpose(0, 2, 1).copy()
    spins = ((np.arange(1 << b) >> np.arange(b)[:, None]) & 1) * 2 - 1
    parts = np.zeros((len(D), 1), dtype=np.int64)
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
    blocks = model.poly._blocks if isinstance(model, IsingModel) else model._expansion()
    return 0.01 / max(1, _max_abs_coeff(blocks)), 10.0


def _read_generator(seed: int, read_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(read_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _energy_bound(model: IsingModel | SquareSum) -> int:
    """Bound on every |energy| and |energy change| of a model: an Ising
    model's absolute coefficient sum (offset included), and a `SquareSum`'s
    sum of w * A^2, A a residual's absolute coefficient sum, which bounds
    |R| and |(R + delta)^2 - R^2|."""
    if isinstance(model, IsingModel):
        return model.poly.abs_coeff_sum()
    return int((model.weights * np.abs(model.coefficients).sum(axis=(1, 2)) ** 2).sum())


class _Kernel:
    """Single-flip Metropolis moves on E = c + sum over r of
    (u_r R_r + w_r R_r^2), each R_r a quadratic spin form.

    An Ising model is the one residual sum h s + sum J s s with u = 1,
    w = 0 and c its offset; a `SquareSum` has u = 0 and w its weights, with
    constant residuals folded into c.  States are columns of S, shape
    (n+1, reads), whose last row is the constant 1.
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

    A flip is accepted where dE < T, T = -ln(u) / beta the attempt's
    threshold, in float64: dE - T is formed once per attempt, in place of
    exp(-beta dE) and its comparison with u.  In exact arithmetic the two
    rules are the same.  In float64 T rounds twice (the log, the division)
    where the exp rule rounds -beta dE and the exp, and dE itself rounds
    past 2^53 in the int64 kernel, as it did for the exp rule.  So a
    decision can differ from u < exp(-beta dE), computed in float64, only
    where dE lies within a few units in the last place of T, that is where
    u lies within an ulp or so of exp(-beta dE), and at dE = 0 for beta so
    large that T underflows to 0.0 (from about 4.5e307, for u next to 1).
    A drawn u = 0.0 has T = +inf and accepts every move, as under the
    reference loops' exponent floor of -700.  A seeded million draws on
    the Williamson k=9 schedule, dE within 2 of T, gave no difference.

    An attempt costs one (L, n+1) @ (n+1, reads) product and nine more
    calls (eight for an Ising model).  `changes` forms the dE of every
    spin in every read from one (n*L, n+1) @ (n+1, reads) product, for
    `_metropolis_states` to pass over a frozen state's idle attempts.
    """

    def __init__(self, model: IsingModel | SquareSum, bound: int):
        self.dtype = np.float64 if bound < 1 << 52 else np.int64
        self.squares = isinstance(model, SquareSum)
        n = self.nvars = model.nvars
        if self.squares:
            C = model.coefficients
            # a constant residual adds w c^2 to the offset
            varying = C.reshape(len(C), -1)[:, :-1].any(axis=1)
            self.offset = int((model.weights[~varying] * C[~varying, n, n] ** 2).sum())
            C, w = C[varying], model.weights[varying]
            u = np.zeros(len(C))
            self.constants = C[:, n, n, None].astype(self.dtype)
            # row i < n of C + C^T is the derivative of R in s_i
            self.flips = (-2 * (C + C.transpose(0, 2, 1))[:, :n]).transpose(1, 0, 2).astype(
                self.dtype, order="C")
        else:
            # the one residual h s + sum J s s, if any, its blocks scattered
            # into place: flips[i] holds -2 h_i in column n, -2 J_ij in column j
            blocks = [(idx, -2 * coefs.astype(np.int64))
                      for idx, coefs in model.poly._blocks if idx.shape[1]]
            L, self.offset = (1 if blocks else 0), model.offset
            self.flips = np.zeros((n, L, n + 1), self.dtype)
            for idx, coefs in blocks:
                i, j = idx[:, 0], idx[:, -1]
                if idx.shape[1] == 1:
                    self.flips[i, 0, n] = coefs
                else:
                    self.flips[i, 0, j] = self.flips[j, 0, i] = coefs
            u, w = np.ones(L), np.zeros(L)
            self.constants = np.zeros((L, 1), self.dtype)
        self.u, self.w = u.astype(self.dtype), w.astype(self.dtype)

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

    def changes(self, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The energy change of flipping each spin of each read, shape
        (n, reads), equal to the dE that an attempt of `sweeper` forms."""
        n, L = self.flips.shape[:2]
        delta = (self.flips.reshape(n * L, n + 1) @ S).reshape(n, L, S.shape[1])
        delta *= S[:n, None]
        if self.squares:
            return self.w @ ((X + delta) * delta)
        return self.u @ delta

    def sweeper(
        self, S: np.ndarray, X: np.ndarray
    ) -> Callable[[list[int], np.ndarray], np.ndarray]:
        """The Metropolis step on the states S and doubled residuals X, as
        a function sweep(order, thresholds) that updates both in place.
        Attempt k flips s_i, i = order[k], in every read whose energy change
        dE is below its threshold in row k of `thresholds` (float64, shape
        (len(order), reads)).  It returns the buffer holding the energy
        changes of the last attempt.  Its buffers are allocated here, once.

        sign = copysign(1, dE - threshold) is -1 exactly where dE is below
        the threshold: dE - threshold is +0.0 where they are equal, and
        -inf where the threshold is +inf.
        """
        rows, flips = list(S), list(self.flips)
        squares, w, u = self.squares, self.w, self.u
        delta, moved, change = np.empty_like(X), np.empty_like(X), np.empty_like(X)
        delta_e = np.empty(S.shape[1], dtype=self.dtype)
        sign = np.empty_like(delta_e)
        e, ones = np.empty(S.shape[1]), np.ones(S.shape[1])
        multiply, add, subtract = np.multiply, np.add, np.subtract
        dot, copysign = np.dot, np.copysign

        def sweep(order: list[int], thresholds: np.ndarray) -> np.ndarray:
            # each call's last positional argument is its output
            for i, threshold in zip(order, thresholds):
                row = rows[i]
                dot(flips[i], S, delta)
                multiply(delta, row, delta)
                add(X, delta, moved)
                if squares:
                    # w (R + delta)^2 - w R^2 = w (2R + delta) delta
                    multiply(moved, delta, change)
                    dot(w, change, delta_e)
                else:
                    dot(u, delta, delta_e)
                subtract(delta_e, threshold, e)
                # the int64 kernel takes the signs +-1.0 as +-1
                copysign(ones, e, sign, casting="unsafe")
                multiply(row, sign, row)
                multiply(delta, sign, delta)
                subtract(moved, delta, X)
            return delta_e

        return sweep


def _first_move(
    changes: np.ndarray, orders: np.ndarray, thresholds: np.ndarray
) -> tuple[int, int] | None:
    """(sweep, attempt) of the first attempt, in the sweep orders `orders`
    (shape (m, n)) and their thresholds (shape (m, n, reads)), at which some
    read of a state whose energy changes are `changes` (shape (n, reads))
    may flip, or None where no attempt can.

    It looks over windows of 1, 2, 4, ... sweeps, so a move found soon
    costs little more than the sweeps it passes over.  e = dE - T is formed
    as the kernel forms it, and every e <= 0 counts, +0.0 included, which
    the kernel rejects unless its own dE is -0.0.  So no attempt passed
    over is one the kernel would accept, and a flagged one it rejects only
    costs running it.
    """
    # the kernel's subtraction casts an int64 dE to float64 just so
    changes = changes.astype(np.float64, copy=False)
    t, span = 0, 1
    while t < len(orders):
        window = slice(t, t + span)
        e = changes[orders[window]]
        hits = (np.subtract(e, thresholds[window], out=e) <= 0).any(axis=2)
        first = int(hits.argmax())
        if hits.flat[first]:
            sweep, attempt = divmod(first, orders.shape[1])
            return t + sweep, attempt
        t, span = t + span, 2 * span
    return None


def _metropolis_states(
    kernel: _Kernel, reads: int, sweeps: int, betas: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Final spin states (int8, reads x nvars) and their energies (int64).

    A full sweep that leaves every read where it was proves the state
    frozen: until some read flips, each spin's energy change stays what it
    is, so `_first_move` finds, in the rest of the block, the next attempt
    that some read can accept, and the kernel runs from there to the end
    of that sweep.  Where there is none, the rest of the block is passed
    over.  Each attempt passed over would have kept every read, so the
    samples are those of running them all.
    """
    n = kernel.nvars
    gens = [_read_generator(seed, r) for r in range(reads)]
    perm_gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(_PERM_STREAM_KEY,)))
    )
    starts = np.array([g.integers(0, 2, size=n) for g in gens]).reshape(reads, n)
    S = kernel.states(starts * 2 - 1)
    X = 2 * kernel.residuals(S)
    sweep = kernel.sweeper(S, X)
    # Generator.random fills doubles in stream order, so drawing `block`
    # sweeps' uniforms in one call gives each sweep the values it would get
    # from a call of its own; Generator.permuted shuffles the rows of a
    # block in turn, each as Generator.permutation(n) would
    block = max(1, _UNIFORM_BLOCK // max(1, reads * n))
    drawn = np.empty((reads, block * n))
    # the state as the last sweep left it; attempts passed over keep it
    last, frozen = S.tobytes(), False
    # ln(0.0) is -inf, so a drawn 0.0 gets the threshold +inf and accepts
    # every move.  -ln(u) / beta overflows to +inf only where beta is below
    # about 2e-307, where exp(-beta dE) rounds to 1.0 and accepts every move
    # too
    with np.errstate(divide="ignore", over="ignore"):
        for t0 in range(0, sweeps, block):
            count = min(block, sweeps - t0)
            for g, row in zip(gens, drawn):
                g.random(out=row[: count * n])
            # each read's uniforms become its thresholds -ln(u) / beta in
            # place, in the read's own row; the kernel reads them transposed,
            # one (n, reads) slice per sweep
            uniforms = drawn[:, : count * n].reshape(reads, count, n)
            np.log(uniforms, out=uniforms)
            np.divide(uniforms, -betas[t0 : t0 + count, None], out=uniforms)
            thresholds = uniforms.transpose(1, 2, 0)
            orders = perm_gen.permuted(np.broadcast_to(np.arange(n), (count, n)), axis=1)
            order_lists = orders.tolist()
            t = 0
            while t < count:
                k = 0
                if frozen:
                    move = _first_move(kernel.changes(S, X), orders[t:], thresholds[t:])
                    if move is None:
                        break
                    t, k = t + move[0], move[1]
                sweep(order_lists[t][k:], thresholds[t, k:])
                state = S.tobytes()
                frozen, last = n > 0 and state == last, state
                t += 1
    return S[:n].T.astype(np.int8, order="C"), np.array(kernel.energies(X), dtype=np.int64)


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
    bit-identical results.  The step, its threshold rule and the pass over
    frozen stretches are those of the module docstring, `_Kernel` and
    `_metropolis_states`.  Rejects a model whose `_energy_bound` is 2^62 or
    more: for an Ising model, absolute coefficients (the offset included)
    summing that high; for a `SquareSum`, a sum of w * A^2 that high, A the
    absolute coefficient sum of a residual.  Rejects inverse temperatures
    that are not positive and finite, NaN included, and a schedule between
    them that overflows to inf.  An n-spin Ising model
    holds a dense n x (n+1) flip matrix, sparse or not, its blocks
    scattered into it in place: a 3000-spin chain at 10 reads and 2 sweeps
    used +75 MB peak RSS, of which the matrix is 72 MB.  A run
    keeps one scratch buffer, whose uniforms become the thresholds in
    place: 2 MB, or one sweep's n x reads doubles where that is more.  The
    check for a frozen state keeps a copy of the states, and the lookahead
    holds the energy changes, n x reads doubles, and their differences
    with a window of thresholds, at most the size of that buffer.  A
    1500-spin chain with unit fields and couplings, at 200 reads and 20
    sweeps from beta 1 to 10, where the lookahead runs 12 times, peaked
    at 31.4 MB of traced memory: its 18.0 MB flip matrix and 13.4 MB for
    the run.
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

    states, energies = _metropolis_states(_Kernel(model, bound), reads, sweeps, betas, seed)
    # one void item per row, its n bytes, which np.unique sorts as strings
    # (a view cannot make the zero-byte items of a spinless model);
    # `_sample_set` puts the groups in sample order
    rows = np.ndarray(reads, np.dtype((np.void, states.shape[1])), states)
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    return _sample_set(Domain.SPIN, states[first], energies[first], counts, reads)


def write_samples(sampleset: SampleSet, fp: IO[str]) -> None:
    fp.write(sampleset.to_text())
