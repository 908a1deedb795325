"""Reduction of k-body boolean polynomials to equivalent 2-body form.

Each round picks a variable pair, replaces it with a fresh ancilla variable
in every monomial that contains both members (the bare pair monomial
included), and adds the penalty

    delta * (q_i q_j - 2 q_i q_a - 2 q_j q_a + 3 q_a)

which vanishes exactly when q_a = q_i q_j and costs at least delta
otherwise.  A single global delta = 2 * abs_coeff_sum(original) is used for
all rounds, so minimising the reduced polynomial over the ancillas recovers
the original value at every assignment of the original variables.

The pair of a round is the one held by the most degree >= 3 monomials, the
lexicographically smallest on a tie.  `select_pair` and `substitute_pair`
state one round on an immutable polynomial.  `quadratize` makes exactly the
same rounds in bulk: it keeps the degree >= 3 monomials as rows of an index
matrix, with a pair-count matrix whose `argmax` is the next pair and a
packed incidence matrix that yields the pair's holders, so a round is a
fixed number of numpy calls over all of its holders.  numpy sees only
variable indices and counts; every coefficient stays a Python int.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .polynom import Domain, Monomial, MultilinearPoly


@dataclass(frozen=True)
class AncillaMap:
    """Ancilla bookkeeping for one quadratization: (ancilla, pair) per round."""

    entries: tuple[tuple[int, tuple[int, int]], ...] = ()
    delta: int = 0

    def __post_init__(self):
        seen_pairs = set()
        for a, (i, j) in self.entries:
            if i >= j:
                raise ValueError(f"pair {(i, j)} must be ordered i < j")
            if (i, j) in seen_pairs:
                raise ValueError(f"pair {(i, j)} substituted twice")
            seen_pairs.add((i, j))

    @property
    def ancillas(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.entries)

    def pair_of(self, ancilla: int) -> tuple[int, int]:
        for a, pair in self.entries:
            if a == ancilla:
                return pair
        raise KeyError(ancilla)


def compute_delta(poly: MultilinearPoly) -> int:
    """Penalty weight: twice the absolute coefficient sum of the input."""
    if poly.domain is not Domain.BOOLEAN:
        raise ValueError("compute_delta requires a boolean polynomial")
    return 2 * poly.abs_coeff_sum()


def select_pair(poly: MultilinearPoly) -> tuple[int, int]:
    """Pair occurring in the most degree ≥ 3 monomials; lexicographic tie-break."""
    if poly.degree() < 3:
        raise ValueError("select_pair requires degree >= 3")
    counts: Counter[tuple[int, int]] = Counter()
    for m in poly.terms:
        if len(m) >= 3:
            counts.update(itertools.combinations(m, 2))
    best = max(counts.values())
    return min(pair for pair, n in counts.items() if n == best)


def _penalty(i: int, j: int, ancilla: int, delta: int) -> tuple[tuple[Monomial, int], ...]:
    """The terms of delta * (q_i q_j - 2 q_i q_a - 2 q_j q_a + 3 q_a), i < j."""
    return (
        ((i, j), delta),
        (tuple(sorted((i, ancilla))), -2 * delta),
        (tuple(sorted((j, ancilla))), -2 * delta),
        ((ancilla,), 3 * delta),
    )


def substitute_pair(
    poly: MultilinearPoly, i: int, j: int, ancilla: int, delta: int
) -> MultilinearPoly:
    """Replace {i,j} by {ancilla} wherever both occur, then add the penalty."""
    if poly.domain is not Domain.BOOLEAN:
        raise ValueError("substitute_pair requires a boolean polynomial")
    if i == j:
        raise ValueError("pair members must be distinct")
    if i > j:
        i, j = j, i
    if ancilla in poly.variables() or ancilla in (i, j):
        raise ValueError(f"ancilla {ancilla} already in use")
    if delta <= 0:
        raise ValueError("delta must be positive")
    out: dict[Monomial, int] = {}
    for m, c in poly.terms.items():
        if i in m and j in m:
            m = tuple(sorted((set(m) - {i, j}) | {ancilla}))
        out[m] = out.get(m, 0) + c
    for m, c in _penalty(i, j, ancilla, delta):
        out[m] = out.get(m, 0) + c
    return MultilinearPoly(Domain.BOOLEAN, out)


def quadratize(poly: MultilinearPoly) -> tuple[MultilinearPoly, AncillaMap]:
    """Reduce to degree <= 2 by repeated pair substitution with one global delta.

    The rounds are exactly those of looping `select_pair` and
    `substitute_pair` until the degree is at most 2, but each round is a
    fixed number of numpy calls over all of its holders (the degree >= 3
    monomials that contain its pair).

    numpy holds only variable indices and pair counts, over local ids: the
    variables of the degree >= 3 monomials renumbered in ascending order,
    then the ancillas in allocation order.  Local order is global order, so
    a pair's lexicographic rank is the same in both.  Three structures are
    kept; the last two grow by doubling as ancillas are added:

    - `rows`, an int64 index matrix: one degree >= 3 monomial per row,
      right-aligned and padded with -1 on the left;
    - `count`, a symmetric pair-count matrix: count[u, v] is the number of
      degree >= 3 monomials that hold {u, v}.  `argmax` returns the first
      maximum in row-major order, which is the lexicographically smallest
      of the most-held pairs;
    - `inc`, a variable x monomial incidence matrix with its bits packed
      along the monomials, so the holders of (u, v) are the set bits of
      inc[u] & inc[v].

    A round on (u, v) cuts u and v out of every holder row with one mask and
    appends the ancilla a.  The bincount of the rest variables x comes off
    the (u, x) and (v, x) counts and, over the holders that stay degree
    >= 3, goes onto the (x, a) counts; pairs inside the rest keep their
    counts.  A holder whose rest is one variable x becomes the quadratic
    term (x, a) and leaves the count matrix.  It keeps its incidence bit
    for x, which is harmless: a pair needs two bits to hold a row.

    The arithmetic is exact: coefficients never enter numpy.  They stay
    Python ints in `coef` and in the `terms` dict, where the bare-pair merge
    and the penalty terms are summed by plain int addition.  A count is at
    most the number of rows, so int32 holds it.

    Memory is sized by the local ids, never by the largest index: 8 bytes
    per entry of the index matrix, one bit per slot and row of incidence,
    and 4 bytes of count per pair of slots, the slots being the local ids
    with room to grow.  One cubic term at index 10^6 allocates a few
    hundred bytes.  The count matrix is quadratic in the local ids: a few
    hundred at the paper's orders, but 10^4 variables in degree >= 3
    monomials would need at least 400 MB.  Peak traced memory on the Turyn
    n=16 boolean energy (16600 degree >= 3 monomials, 326 rounds, 379 local
    ids) is about 4.2 MB.

    Ancilla indices are fresh: allocation starts one past the largest input
    index and follows substitution order.
    """
    if poly.domain is not Domain.BOOLEAN:
        raise ValueError("quadratize requires a boolean polynomial")
    if poly.is_zero():
        raise ValueError("cannot quadratize the zero polynomial")
    delta = compute_delta(poly)
    source = poly._terms
    groups = poly._canonical_groups()
    high = [group for group in groups if len(group[0]) >= 3]
    terms = {m: source[m] for group in groups if len(group[0]) < 3 for m in group}

    def add(m: Monomial, c: int) -> None:
        # terms[m] += c, dropping a zero sum as MultilinearPoly does
        c += terms.get(m, 0)
        if c:
            terms[m] = c
        else:
            del terms[m]

    entries: list[tuple[int, tuple[int, int]]] = []
    a = poly.nvars  # larger than every index in use, so m + (a,) stays sorted
    if high:
        coef = [source[m] for group in high for m in group]  # by row
        rows, glob = _index_rows(high)
        nrows, width = rows.shape
        la = len(glob)  # the local id of ancilla a
        cap = 2 * la
        count = _pair_counts(rows, la, cap)
        inc = _incidence(rows, la, cap)
        while True:
            best = int(count.argmax())
            u, v = divmod(best, cap)
            if not count[u, v]:
                break
            if la == cap:
                cap *= 2
                count = np.pad(count, ((0, cap - la), (0, cap - la)))
                inc = np.pad(inc, ((0, cap - la), (0, 0)))
            both = inc[u] & inc[v]
            inc[u] ^= both
            inc[v] ^= both
            bits = np.unpackbits(both, count=nrows).view(bool)
            hold = bits.nonzero()[0]
            held = rows[hold]
            rest = held[(held != u) & (held != v)].reshape(len(hold), width - 2)
            lost = np.bincount(rest.ravel() + 1, minlength=cap + 1)[1:].astype(np.int32)
            count[u] -= lost
            count[v] -= lost
            count[:, u] = count[u]
            count[:, v] = count[v]
            count[u, v] = count[v, u] = 0
            single = rest[:, -2] < 0  # the rest is one variable, x
            done = hold[single]
            x = rest[single, -1]  # distinct, as each such holder is {u, v, x}
            lost[x] -= 1  # so this takes 1 from each: now the gain of (x, a)
            count[la] = lost
            count[:, la] = lost
            bits[done] = False
            inc[la] = np.packbits(bits)
            held[:, 1:-1] = rest  # held is a copy, its pad column stays -1
            held[:, -1] = la
            rows[hold] = held
            xs = map(glob.__getitem__, x.tolist())
            terms.update(zip(zip(xs, itertools.repeat(a)), map(coef.__getitem__, done.tolist())))
            pair = (glob[u], glob[v])
            if pair in terms:
                add((a,), terms.pop(pair))
            for m, c in _penalty(*pair, a, delta):
                add(m, c)
            entries.append((a, pair))
            glob.append(a)
            a += 1
            la += 1
    quadratic = MultilinearPoly._from_canonical(Domain.BOOLEAN, terms)
    return quadratic, AncillaMap(entries=tuple(entries), delta=delta)


def _index_rows(groups: list[list[Monomial]]) -> tuple[np.ndarray, list[int]]:
    """The monomials of the degree groups `groups` as rows of local ids,
    right-aligned and padded with -1 on the left, one column wider than the
    top degree so that every rest of a cut keeps a pad; and the global index
    of each local id."""
    width = len(groups[-1][0]) + 1
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(groups)),
        dtype=np.int64, count=sum(len(group) * len(group[0]) for group in groups),
    )
    variables, local = np.unique(flat, return_inverse=True)
    rows = np.full((sum(map(len, groups)), width), -1, dtype=np.int64)
    start = at = 0
    for group in groups:
        n, d = len(group), len(group[0])
        rows[start:start + n, width - d:] = local[at:at + n * d].reshape(n, d)
        start += n
        at += n * d
    return rows, variables.tolist()


def _pair_counts(rows: np.ndarray, nv: int, cap: int) -> np.ndarray:
    """The symmetric cap x cap count of the pairs held by `rows`, whose
    nv local ids ascend along each row."""
    upper = np.zeros((nv, nv), dtype=np.int32)  # the pairs (lo, hi), lo < hi
    for k in range(1, rows.shape[1]):
        lo, hi = rows[:, :-k].ravel(), rows[:, k:].ravel()  # k columns apart
        real = lo >= 0
        upper += np.bincount(lo[real] * nv + hi[real], minlength=nv * nv).reshape(nv, nv)
    count = np.zeros((cap, cap), dtype=np.int32)
    count[:nv, :nv] = upper + upper.T
    return count


def _incidence(rows: np.ndarray, nv: int, cap: int) -> np.ndarray:
    """The cap x len(rows) incidence of the local ids in `rows`, its bits
    packed along the rows."""
    at = rows >= 0
    bits = np.zeros((nv, len(rows)), dtype=bool)
    bits[rows[at], np.nonzero(at)[0]] = True
    inc = np.zeros((cap, (len(rows) + 7) // 8), dtype=np.uint8)
    inc[:nv] = np.packbits(bits, axis=1)
    return inc
