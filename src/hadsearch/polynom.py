"""Exact multilinear polynomial algebra over indexed binary variables.

A polynomial is a mapping from monomials to integer coefficients, tagged with
the domain of its variables: spin (values in {-1,+1}) or boolean ({0,1}).
A monomial is a strictly ascending tuple of variable indices; the empty tuple
is the constant monomial.  Multiplication reduces idempotently per domain
(s*s = 1 for spin, q*q = q for boolean), so no monomial ever repeats a
variable.  Coefficients are arbitrary-precision Python ints and every
operation is exact; zero coefficients are never stored, and the zero
polynomial has no terms.

Validation happens once, at the boundary: the public constructor checks
every monomial, takes every index and coefficient through `operator.index`,
and rejects two keys that name the same monomial; `read_poly` checks each
line as it parses it.

A polynomial holds its terms in one form, canonical blocks: one per degree
present, by ascending degree, each an (n, d) index array of its monomials
in lexicographic row order with their coefficient array beside it, int64
or, where a value may not fit, dtype object holding Python ints.  Every
polynomial is made by `_from_blocks`, which stores the blocks unchecked.
The constructor, `read_poly`, the algebra (`add`, `scale`, `mul`), the
residual builders and `IsingModel` gather a term dict first and turn it
into blocks with `_canonical_blocks`, the one conversion, which drops zero
coefficients; `SquareSum.expand`, the two transforms and `quadratize` make
blocks directly.  The writers, the transforms, `quadratize` and the solvers
read the blocks, as do `degree()`, `nvars` and `abs_coeff_sum()`, so
`build`, from the residuals to the written files, builds no term dict.
`terms`, `sorted_terms()` and the methods that read terms one by one build
them from the blocks on each call and keep nothing.  `nvars` is the count
the file declared where `read_poly` made the polynomial, the input's count
for a transform's result, and otherwise one past the largest index used.

Where terms that name the same monomial are summed, one keyed sum does it:
`_keyed_sums` takes one key per term, its indices as base-b digits (int64
where b^width < 2^63, Python ints past it), and returns the distinct keys
in ascending order, which is canonical order, with their sums; `_digits`
turns the keys back into index columns.

The two domain transforms are value-preserving under the bijection
s = 2q - 1 (s=+1 <-> q=1): `spin_to_boolean` substitutes s_i = 2q_i - 1 and
`boolean_to_spin` substitutes q_i = (1 + s_i)/2, the latter scaled by 2^D
(D the degree) and required to divide back exactly.  Both sum each term
over its sub-monomials, one output degree at a time, as one keyed sum of
every block's subsets (`_subset_sums`), whose sums are the result's blocks
as they stand.  `SquareSum`, an energy sum of w * R^2 over quadratic spin
residuals, holds them as one coefficient array and expands them by the
same keyed sum.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

Monomial = tuple[int, ...]
Assignment = Mapping[int, int]


class Domain(enum.Enum):
    SPIN = "spin"
    BOOLEAN = "boolean"

    @property
    def values(self) -> tuple[int, int]:
        return (-1, 1) if self is Domain.SPIN else (0, 1)


def _canonical_monomial(vars_: Iterable[int]) -> Monomial:
    """The sorted tuple of the indices `vars_`, each taken through
    `operator.index` (a Python or numpy int, never a float); a negative or
    repeated index is rejected."""
    try:
        m = tuple(sorted(map(operator.index, vars_)))
    except TypeError:
        raise ValueError(f"non-integer variable index in monomial {vars_!r}") from None
    if not m or (m[0] >= 0 and len(set(m)) == len(m)):
        return m
    if any(v < 0 for v in m):
        raise ValueError(f"negative variable index in monomial {m}")
    raise ValueError(f"repeated variable in monomial {m}")


class MultilinearPoly:
    """Immutable multilinear polynomial with exact integer coefficients,
    held as its canonical blocks alone.

    The blocks are set once, at construction, and never change; `terms`,
    `sorted_terms()` and everything that reads terms one by one build them
    from the blocks on each call and keep nothing.  `nvars` is the count a
    file declared where `read_poly` built the polynomial, and otherwise one
    past the largest index used, computed on first use.  Equality and
    hashing read only the domain and the terms, not `nvars`."""

    __slots__ = ("domain", "_blocks", "_nvars")

    def __init__(self, domain: Domain, terms: Mapping[Iterable[int], int] | None = None):
        """Validate `terms`: each monomial is sorted and checked for negative,
        repeated or non-integer indices, each coefficient must be an integer,
        two keys must not name the same monomial once sorted, and zero
        coefficients are dropped after these checks.  Code in this package
        that builds its terms canonical hands them to `_canonical_blocks`
        and `_from_blocks` unchecked instead."""
        clean: dict[Monomial, int] = {}
        for m, c in (terms or {}).items():
            try:
                c = operator.index(c)  # a Python or numpy int; never rounds
            except TypeError:
                raise ValueError(
                    f"non-integer coefficient {c!r} for monomial {tuple(m)}"
                ) from None
            m = _canonical_monomial(m)
            if m in clean:
                raise ValueError(f"duplicate term for monomial {m}")
            clean[m] = c
        self.domain, self._blocks, self._nvars = domain, _canonical_blocks(clean), None

    @classmethod
    def _from_blocks(
        cls, domain: Domain, blocks: list[tuple[np.ndarray, np.ndarray]], nvars: int | None = None
    ) -> "MultilinearPoly":
        """Take ownership of `blocks` unchecked: canonical blocks as
        `_canonical_blocks` gives them, every coefficient nonzero, over
        `nvars` variables, or one past the largest index used if None."""
        poly = cls.__new__(cls)
        poly.domain, poly._blocks, poly._nvars = domain, blocks, nvars
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain: Domain) -> "MultilinearPoly":
        return cls(domain)

    @classmethod
    def constant(cls, domain: Domain, value: int) -> "MultilinearPoly":
        return cls(domain, {(): value})

    @classmethod
    def variable(cls, domain: Domain, index: int, coeff: int = 1) -> "MultilinearPoly":
        return cls(domain, {(index,): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        """A new term dict, built from the blocks."""
        return dict(self.sorted_terms())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return [term for idx, coefs in self._blocks
                for term in zip(map(tuple, idx.tolist()), coefs.tolist())]

    def coeff(self, monomial: Iterable[int]) -> int:
        return self.terms.get(_canonical_monomial(monomial), 0)

    def is_zero(self) -> bool:
        return not self._blocks

    def degree(self) -> int:
        return self._blocks[-1][0].shape[1] if self._blocks else 0

    def variables(self) -> set[int]:
        return {v for idx, _ in self._blocks for v in idx.ravel().tolist()}

    @property
    def nvars(self) -> int:
        """Dense variable count: as declared, else one past the largest index used."""
        if self._nvars is None:
            # the last index of a (sorted) monomial is its largest
            last = (int(idx[:, -1].max()) for idx, _ in self._blocks if idx.shape[1])
            self._nvars = max(last, default=-1) + 1
        return self._nvars

    def abs_coeff_sum(self) -> int:
        return sum(sum(map(abs, coefs.tolist())) for _, coefs in self._blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.domain is other.domain and self.sorted_terms() == other.sorted_terms()

    def __hash__(self):
        return hash((self.domain, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        terms = self.sorted_terms()
        shown = ", ".join(f"{m}: {c}" for m, c in terms[:6])
        more = "" if len(terms) <= 6 else f", ... {len(terms)} terms"
        return f"MultilinearPoly({self.domain.value}, {{{shown}{more}}})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_domain(self, other: "MultilinearPoly") -> None:
        if self.domain is not other.domain:
            raise ValueError(
                f"domain mismatch: {self.domain.value} vs {other.domain.value}"
            )

    def add(self, other: "MultilinearPoly") -> "MultilinearPoly":
        self._require_same_domain(other)
        out = self.terms
        for m, c in other.sorted_terms():
            out[m] = out.get(m, 0) + c
        return MultilinearPoly._from_blocks(self.domain, _canonical_blocks(out))

    def scale(self, factor: int) -> "MultilinearPoly":
        try:
            factor = operator.index(factor)  # a numpy int would wrap at 2^63
        except TypeError:
            raise ValueError(f"non-integer scale factor {factor!r}") from None
        terms = {m: c * factor for m, c in self.sorted_terms()}
        return MultilinearPoly._from_blocks(self.domain, _canonical_blocks(terms))

    def neg(self) -> "MultilinearPoly":
        return self.scale(-1)

    def sub(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self.add(other.neg())

    def mul(self, other: "MultilinearPoly") -> "MultilinearPoly":
        """Distributed product with idempotent reduction per domain."""
        self._require_same_domain(other)
        spin = self.domain is Domain.SPIN
        out: dict[Monomial, int] = {}
        right = other.sorted_terms()
        for m1, c1 in self.sorted_terms():
            s1 = set(m1)
            for m2, c2 in right:
                # s_i*s_i = 1 drops shared variables; q_i*q_i = q_i keeps them
                m = tuple(sorted(s1 ^ set(m2) if spin else s1 | set(m2)))
                out[m] = out.get(m, 0) + c1 * c2
        return MultilinearPoly._from_blocks(self.domain, _canonical_blocks(out))

    def square(self) -> "MultilinearPoly":
        return self.mul(self)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Assignment) -> int:
        """Exact value at a total assignment over this polynomial's variables.

        Extra variables in the assignment are ignored; a missing variable or
        a value outside the domain is rejected.
        """
        allowed = self.domain.values
        cache: dict[int, int] = {}
        for v in self.variables():
            if v not in assignment:
                raise ValueError(f"assignment missing variable {v}")
            val = assignment[v]
            if val not in allowed:
                raise ValueError(
                    f"value {val} for variable {v} outside {self.domain.value} domain"
                )
            cache[v] = val
        total = 0
        for m, c in self.sorted_terms():
            prod = c
            for v in m:
                prod *= cache[v]
            total += prod
        return total

    # -- domain transforms -------------------------------------------------

    def spin_to_boolean(self) -> "MultilinearPoly":
        """Substitute s_i = 2 q_i - 1 and reduce.  Value-preserving."""
        if self.domain is not Domain.SPIN:
            raise ValueError("spin_to_boolean requires a spin polynomial")
        # prod_{v in m} (2 q_v - 1) = sum_{S within m} 2^|S| (-1)^(|m|-|S|) q_S
        return _substitute(
            self, Domain.BOOLEAN, lambda d, k: (1 << k) * (-1 if (d - k) % 2 else 1), shift=0
        )

    def boolean_to_spin(self) -> "MultilinearPoly":
        """Substitute q_i = (1 + s_i)/2; the halves must cancel to integers."""
        if self.domain is not Domain.BOOLEAN:
            raise ValueError("boolean_to_spin requires a boolean polynomial")
        # prod_{v in m} (1 + s_v)/2 = 2^-|m| sum_{S within m} s_S; scale by 2^D
        top = self.degree()
        return _substitute(self, Domain.SPIN, lambda d, k: 1 << (top - d), shift=top)


@dataclass(frozen=True)
class SquareSum:
    """Spin energy sum of w * R^2 over `terms`, pairs (w, R) of a positive
    integer weight and a quadratic spin residual over `nvars` variables.

    The residuals are laid out once in `coefficients`, shape (L, n+1, n+1)
    for n = `nvars`: R_r's coefficient of s_i s_j (i < j) at [r, i, j], of
    s_i at [r, i, n], its constant at [r, n, n], 0 elsewhere, beside the
    L `weights`.  Both are int64 where the weights and sum of w * A^2 (A a
    residual's absolute coefficient sum; it bounds every energy, energy
    change and expanded coefficient) are below 2^63, else dtype object."""

    nvars: int
    terms: tuple[tuple[int, MultilinearPoly], ...]
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Take `nvars` and every weight through `operator.index`, as the
        polynomial constructor takes coefficients, and store Python ints, so
        a float or `Fraction` is rejected and a numpy int never wraps."""
        try:
            n = operator.index(self.nvars)
        except TypeError:
            raise ValueError(f"non-integer nvars {self.nvars!r}") from None
        side, terms, bound = n + 1, [], 0
        parts = [([], [], []) for _ in range(3)]  # per degree: rows, index arrays, coefficients
        for r, (w, residual) in enumerate(self.terms):
            try:
                w = operator.index(w)
            except TypeError:
                raise ValueError(f"non-integer residual weight {w!r}") from None
            terms.append((w, residual))
            if w <= 0:
                raise ValueError(f"residual weight must be positive, got {w}")
            if residual.domain is not Domain.SPIN or residual.degree() > 2:
                raise ValueError("residuals must be quadratic spin polynomials")
            size = 0  # the residual's absolute coefficient sum
            for idx, coefs in residual._blocks:
                rows, indices, values = parts[idx.shape[1]]
                coefs = coefs.tolist()
                rows += [r] * len(coefs)
                indices.append(idx)
                values += coefs
                size += sum(map(abs, coefs))
            bound += w * size**2
        weights = [w for w, _ in terms]
        dtype = np.int64 if max([bound, *weights]) < 1 << 63 else object
        coefficients = np.zeros((len(terms), side, side), dtype)
        for d, (rows, indices, values) in enumerate(parts):  # [r, i, j], n for an index missing
            if rows:
                columns = np.concatenate(indices).T if d else ()
                if d and columns[-1].max() >= n:
                    raise ValueError(f"residual uses variables past nvars {n}")
                coefficients[(rows, *columns, *[n] * (2 - d))] = values
        for name, value in (("nvars", n), ("terms", tuple(terms)), ("weights", np.array(
                weights, dtype)), ("coefficients", coefficients)):
            object.__setattr__(self, name, value)

    def expand(self) -> MultilinearPoly:
        """The energy as one spin polynomial, held as canonical blocks."""
        return MultilinearPoly._from_blocks(Domain.SPIN, self._expansion())

    def _expansion(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The energy's canonical blocks: w * c1 * c2, doubled where the
        terms differ, summed into m1 m2 (s_i s_i = 1) over every pair of
        terms c1 m1, c2 m2 of a residual; zero sums dropped.  A term is a
        nonzero entry of `coefficients`, two ascending indices with n for
        none; a pair's four, put in order, cancel where met twice.  Keyed by
        five base-(n+1) digits, its degree (at most n), then its indices,
        each product sums into its canonical place (`_keyed_sums`), in the
        arrays' dtype."""
        n, side = self.nvars, self.nvars + 1
        flat = np.flatnonzero(self.coefficients)
        c = self.coefficients.ravel()[flat]
        r, slot = np.divmod(flat, side * side)
        # pair k <= l of the terms of one residual
        count = np.searchsorted(r, r, side="right") - np.arange(len(r))
        first = np.repeat(np.arange(len(r)), count)
        second = first + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
        coef = self.weights[r[first]] * c[first] * c[second]
        coef[first != second] *= 2
        kind = _key_kind(side, 5)
        a, b = (x.astype(kind, copy=False) for x in np.divmod(slot, side))
        a1, a2, b1, b2 = a[first], a[second], b[first], b[second]
        inner, outer = np.maximum(a1, a2), np.minimum(b1, b2)
        x = (np.minimum(a1, a2), np.minimum(inner, outer), np.maximum(inner, outer),
             np.maximum(b1, b2))
        twice = [False, *(x[j] == x[j + 1] for j in range(3)), False]
        kept = [(x[j] < n) & ~(twice[j] | twice[j + 1]) for j in range(4)]
        key, degree = np.zeros(len(first), kind), np.zeros(len(first), kind)
        for xj, kj in zip(x, kept):
            key = np.where(kj, key * side + xj, key)
            degree += kj
        key, sums = _keyed_sums(key + degree * side**4, coef)
        nonzero = sums != 0
        digits, sums = _digits(key[nonzero], side, 5).astype(np.int64, copy=False), sums[nonzero]
        ends = np.searchsorted(digits[0], np.arange(6))
        return [(digits[5 - d :, lo:hi].T, sums[lo:hi])
                for d, (lo, hi) in enumerate(zip(ends, ends[1:])) if hi > lo]

    def residual_values(self, values: Sequence[int]) -> list[int]:
        """Each residual at the +/-1 assignment `values` (index i is variable i)."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        s = np.array([*values, 1])
        if len(bad := np.flatnonzero(abs(s) != 1)):
            raise ValueError(f"value {values[bad[0]]} for variable {bad[0]} outside spin domain")
        return (self.coefficients @ s.astype(np.int64) @ s.astype(np.int64)).tolist()


def _max_abs_coeff(blocks: list[tuple[np.ndarray, np.ndarray]]) -> int:
    """The largest |coefficient| of the canonical `blocks` of degree >= 1,
    or 0, from each block's extremes as Python ints (int64 -2^63 has none)."""
    return max((max(int(c.max()), -int(c.min())) for idx, c in blocks if idx.shape[1]), default=0)


def _canonical_blocks(terms: Mapping[Monomial, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The terms `terms`, each key an ascending tuple of distinct
    non-negative indices and each value an int, as canonical blocks, zero
    coefficients dropped: one block per degree present, by ascending
    degree, each an (n, d) index array of its monomials in lexicographic
    row order with their coefficient array beside it.  The index arrays are
    views of one array, as are the coefficient arrays, each int64 where
    every value fits and dtype object past it."""
    keys = sorted(sorted(filter(terms.get, terms)), key=len)  # stable: lex in a degree
    idx = _int_array(list(itertools.chain.from_iterable(keys)))
    coefs = _int_array(list(map(terms.__getitem__, keys)))
    blocks, lo, at = [], 0, 0
    for d, group in itertools.groupby(keys, len):
        count = len(list(group))
        blocks.append((idx[at:at + count * d].reshape(count, d), coefs[lo:lo + count]))
        lo, at = lo + count, at + count * d
    return blocks


def _int_array(values: list[int]) -> np.ndarray:
    """`values` as an int64 array where every one fits, else as dtype
    object, which keeps Python ints."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


def _key_kind(base: int, width: int) -> type:
    """The dtype of keys of `width` base-`base` digits: int64 where
    base^width is below 2^63, else object, which keeps Python ints."""
    return np.int64 if base**width < 1 << 63 else object


def _keyed_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct `keys` in ascending order and, beside them, the sum of
    the `values` of each key, zero sums included, in the values' dtype.
    The one place where terms are grouped: a key is a term's indices as
    digits, so its sum is its canonical coefficient."""
    keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(keys), values.dtype)
    np.add.at(sums, inverse, values)
    return keys, sums


def _digits(keys: np.ndarray, base: int, width: int) -> np.ndarray:
    """The (width, count) array of the `width` base-`base` digits of each
    of `keys`, most significant first, in the keys' dtype."""
    return np.stack([keys // base ** (width - 1 - j) % base for j in range(width)])


def _substitute(
    poly: MultilinearPoly, domain: Domain, weight: Callable[[int, int], int], shift: int
) -> MultilinearPoly:
    """The polynomial over `domain` whose coefficient of S is the subset sum
    of S (`_subset_sums`) divided by 2^shift, which must divide every sum
    exactly; zero sums are dropped, and the result is over the input's
    `nvars` variables.  Each degree's sums come out in canonical order, so
    they are the result's blocks; the top block's index array is the
    input's own."""
    top = poly.degree()
    low = (1 << shift) - 1
    blocks = []
    for k, cols, sums in _subset_sums(poly, weight):
        if shift:
            bad = (sums & low).nonzero()[0]
            if len(bad):
                m = tuple(cols[:, bad[0]].tolist())
                raise ValueError(
                    f"non-integral coefficient {sums[bad[0]]}/2^{shift} for monomial {m}: "
                    "input is not an integral image of a spin polynomial"
                )
            sums = sums >> shift
        if not 0 < k == top:  # the top block maps c * m to c * weight(k, k) * m, never zero
            kept = sums.nonzero()[0]
            cols, sums = cols.take(kept, axis=1), sums[kept]
        if len(sums):
            blocks.append((cols.T, sums))
    return MultilinearPoly._from_blocks(domain, blocks, poly.nvars)


def _subset_sums(
    poly: MultilinearPoly, weight: Callable[[int, int], int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """For each k = 0, 1, ..., D (D the degree of `poly`), the distinct
    k-subsets S of its monomials and the sum of c * weight(|m|, k) over its
    terms c * m with S within m, zero sums included: yields k, the subsets
    as the columns of a (k, count) index array in lexicographic order, and
    the sums as an array beside them.

    One degree k is reduced at a time, so memory is that of one degree's
    arrays.  Each block of degree d >= k, its index array transposed to
    the (d, n) array M of its n monomials, keys all its k-subsets as their
    indices in base-nvars digits, one row M[combos[:, j]] at a time, combos
    the (C(d, k), k) array of the k-combinations of range(d); its
    coefficients times weight(d, k) are tiled C(d, k) times beside them.
    `_keyed_sums` sums the keys of every block and `_digits` turns them
    back into index columns.  The constant is a plain sum, and the top
    block, the only one holding D-subsets, is its own D-subsets in order,
    so it is passed through.

    Every |weight(d, k)| is at most 2^D, so every product and partial sum
    is at most abs_coeff_sum * 2^D in magnitude: the arithmetic is int64
    where that bound is below 2^63, and Python ints (dtype object) past it,
    on the same code path.  Index arrays keep their dtype.
    """
    top, base = poly.degree(), poly.nvars
    dtype = np.int64 if poly.abs_coeff_sum() << top < 1 << 63 else object
    const = 0
    blocks = []  # (index columns, coefficients) of each block of degree >= 1
    for idx, coefs in poly._blocks:
        coefs = coefs.astype(dtype, copy=False)
        d = idx.shape[1]
        const += int(coefs.sum()) * weight(d, 0)
        if d:
            blocks.append((idx.T, coefs))
    yield 0, np.empty((0, 1), np.int64), np.array([const], dtype)
    for k in range(1, top):
        kind = _key_kind(base, k)
        keys, scaled = [], []
        for cols, coefs in blocks:
            d = len(cols)
            if d >= k:
                count = math.comb(d, k)
                combos = np.fromiter(
                    itertools.chain.from_iterable(itertools.combinations(range(d), k)),
                    np.intp, count=count * k,
                ).reshape(count, k)
                key = np.zeros((count, cols.shape[1]), kind)
                for j in range(k):
                    key = key * base + cols[combos[:, j]].astype(kind, copy=False)
                keys.append(key.ravel())
                scaled.append(np.tile(coefs * weight(d, k), count))
        keys, sums = _keyed_sums(np.concatenate(keys), np.concatenate(scaled))
        yield k, _digits(keys, base, k).astype(blocks[-1][0].dtype, copy=False), sums
    if top:
        cols, coefs = blocks[-1]
        yield top, cols, coefs * weight(top, top)


# -- text format ------------------------------------------------------------
#
# line 1: `domain spin|boolean`
# line 2: `nvars <N>`
# then one term per line: `<coeff> <i1> <i2> ...` (ascending indices;
# the constant term has no indices), by degree then lexicographic.  Each
# block is one `%` of its line template, repeated once per term, over the
# block's flat argument tuple; the file is written in one call.
# `#` begins a comment.


def write_poly(poly: MultilinearPoly, fp: IO[str]) -> None:
    chunks = [f"domain {poly.domain.value}\nnvars {poly.nvars}\n"]
    for idx, coefs in poly._blocks:
        line = "%d" + " %d" * idx.shape[1] + "\n"
        chunks.append(line * len(coefs) % tuple(np.column_stack((coefs, idx)).ravel().tolist()))
    fp.write("".join(chunks))


def poly_to_text(poly: MultilinearPoly) -> str:
    import io

    buf = io.StringIO()
    write_poly(poly, buf)
    return buf.getvalue()


def read_poly(fp: IO[str]) -> MultilinearPoly:
    """Parse the text format over the `nvars` variables it declares; reject
    a non-integer token, a negative `nvars` or an index past it."""
    lines = (line.split() for line in _content_lines(fp))
    try:
        head = next(lines)
    except StopIteration:
        raise ValueError("empty polynomial file") from None
    if len(head) != 2 or head[0] != "domain" or head[1] not in ("spin", "boolean"):
        raise ValueError(f"bad domain line: {' '.join(head)!r}")
    domain = Domain.SPIN if head[1] == "spin" else Domain.BOOLEAN
    try:
        nv = next(lines)
    except StopIteration:
        raise ValueError("missing nvars line") from None
    if len(nv) != 2 or nv[0] != "nvars" or (nvars := _parse_int(nv[1], " ".join(nv))) < 0:
        raise ValueError(f"bad nvars line: {' '.join(nv)!r}")
    terms: dict[Monomial, int] = {}
    for tok in lines:
        line = " ".join(tok)
        coeff = _parse_int(tok[0], line)
        m = _canonical_monomial(_parse_int(v, line) for v in tok[1:])
        if m and m[-1] >= nvars:
            raise ValueError(f"variable {m[-1]} out of range for nvars {nvars}")
        if m in terms:
            raise ValueError(f"duplicate term for monomial {m}")
        terms[m] = coeff
    return MultilinearPoly._from_blocks(domain, _canonical_blocks(terms), nvars)


def load_poly(path) -> MultilinearPoly:
    with open(path, encoding="utf-8") as fp:
        return read_poly(fp)


def save_poly(poly: MultilinearPoly, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        write_poly(poly, fp)


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _parse_int(token: str, line: str) -> int:
    """An integer token of a model file line (polynomial or Ising): ASCII
    digits with an optional leading minus, as the writers emit them, and
    no more digits than the interpreter converts."""
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(
            f"non-integer value in {line!r}; solvers take the exact integer model"
        )
    try:
        return int(token)
    except ValueError:
        quoted = line if len(line) <= 60 else line[:60] + "..."
        raise ValueError(
            f"integer of {len(token.lstrip('-'))} digits in {quoted!r} exceeds the "
            f"{sys.get_int_max_str_digits()}-digit conversion limit"
        ) from None


def _content_lines(fp: IO[str]) -> Iterator[str]:
    """The non-blank lines of a model or matrix file, stripped, with `#`
    comments removed; every text parser reads through this."""
    for raw in fp:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line
