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
fixed number of numpy calls over all of its holders.  The rounds only
record what they made; the output's canonical blocks are assembled once,
after the last round, with one lexsort.  Its coefficient arrays are int64
where 7 * abs_coeff_sum, a bound on every output coefficient, is below
2^63, and dtype object, which holds Python ints, past it.
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

    A round records its pair, the holders it closed and their x; `_assemble`
    turns the records into the output blocks.  A count is at most the
    number of rows, so int32 holds it.

    Memory is sized by the local ids, never by the largest index: 8 bytes
    per entry of the index matrix, one bit per slot and row of incidence,
    and 4 bytes of count per pair of slots, the slots being the local ids
    with room to grow.  One cubic term at index 10^6 allocates a few
    hundred bytes.  The count matrix is quadratic in the local ids: a few
    hundred at the paper's orders, but 10^4 variables in degree >= 3
    monomials would need at least 400 MB.  Peak traced memory on the Turyn
    n=16 boolean energy (16600 degree >= 3 monomials, 326 rounds, 379 local
    ids), its blocks built beforehand, is about 4.2 MB.

    Ancilla indices are fresh: allocation starts at the input's `nvars`
    (one past its largest index, or the count its file declared) and
    follows substitution order.  An input of degree <= 2 is returned as it
    is, with no ancillas.
    """
    if poly.domain is not Domain.BOOLEAN:
        raise ValueError("quadratize requires a boolean polynomial")
    if poly.is_zero():
        raise ValueError("cannot quadratize the zero polynomial")
    delta = compute_delta(poly)
    blocks = poly._blocks
    high = [block for block in blocks if block[0].shape[1] >= 3]
    if not high:
        return poly, AncillaMap(delta=delta)
    rows, variables = _index_rows([idx for idx, _ in high])
    nrows, width = rows.shape
    la = len(variables)  # the local id of the next ancilla
    cap = 2 * la
    count = _pair_counts(rows, la, cap)
    inc = _incidence(rows, la, cap)
    pairs, xs, dones = [], [], []
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
        pairs.append((u, v))
        xs.append(x)
        dones.append(done)
        la += 1
    return _assemble(blocks, variables, poly.nvars, delta, pairs, xs, dones)


def _assemble(
    blocks: list[tuple[np.ndarray, np.ndarray]], variables: np.ndarray, first: int, delta: int,
    pairs: list[tuple[int, int]], xs: list[np.ndarray], dones: list[np.ndarray],
) -> tuple[MultilinearPoly, AncillaMap]:
    """The reduced polynomial's blocks and the ancilla map, from the input
    blocks `blocks` and the rounds: round r made ancilla first + r from the
    local pair pairs[r], and turned the rows dones[r] into the quadratics
    (x, a), x the local ids xs[r].

    Each term is one of: an input term of degree <= 2; a quadratic (x, a),
    with the coefficient of its row's input monomial; a penalty term.  Two
    of them share a monomial only where a round's pair was a quadratic term
    already, the bare pair: a penalty pair (i, a) or (j, a) is held by no
    row, so it is never selected, and each ancilla's terms are made in its
    own round.  The bare pair's coefficient c moves to the ancilla's linear
    term, 3 delta + c, and the pair keeps the penalty's delta.  Every
    coefficient is thus nonzero and at most 3 delta + delta/2 in magnitude,
    as |c| <= abs_coeff_sum = delta/2, so the coefficient arrays are int64
    where 7 delta/2 < 2^63 and dtype object past it."""
    dtype = np.int64 if 7 * delta // 2 < 1 << 63 else object
    rounds = len(pairs)
    index = np.int64 if first + rounds <= 1 << 63 else object
    glob = np.concatenate((variables.astype(index), np.array(range(first, first + rounds), index)))
    ancillas = glob[len(variables):]
    i, j = glob[np.array(pairs)].T
    coef = np.concatenate([coefs for idx, coefs in blocks if idx.shape[1] >= 3]).astype(dtype)
    by_degree = {idx.shape[1]: (idx, coefs.astype(dtype)) for idx, coefs in blocks}
    pair_idx, pair_coefs = by_degree.get(2, (np.empty((0, 2), index), np.empty(0, dtype)))
    penalty = np.full(rounds, -2 * delta, dtype)
    lo = np.concatenate((pair_idx[:, 0], glob[np.concatenate(xs)], i, i, j))
    hi = np.concatenate((pair_idx[:, 1], np.repeat(ancillas, list(map(len, xs))),
                         j, ancillas, ancillas))
    coefs = np.concatenate((pair_coefs, coef[np.concatenate(dones)],
                            np.full(rounds, delta, dtype), penalty, penalty))
    order = np.lexsort((hi, lo))
    lo, hi, coefs = lo[order], hi[order], coefs[order]
    # a bare pair sorts just before the equal penalty pair (i, j), as the
    # sort is stable; its coefficient goes to that round's ancilla
    bare = ((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])).nonzero()[0]
    linear = np.full(rounds, 3 * delta, dtype)
    linear[order[bare + 1] - (len(coefs) - 3 * rounds)] += coefs[bare]  # round of (i, j)
    kept = np.ones(len(coefs), bool)
    kept[bare] = False
    entries = tuple(zip(ancillas.tolist(), zip(i.tolist(), j.tolist())))
    out = [by_degree[0]] if 0 in by_degree else []
    if 1 in by_degree:  # every input index is below every ancilla
        idx, coefs1 = by_degree[1]
        ancillas, linear = np.concatenate((idx[:, 0], ancillas)), np.concatenate((coefs1, linear))
    out.append((ancillas.reshape(-1, 1), linear))
    out.append((np.column_stack((lo[kept], hi[kept])), coefs[kept]))
    return MultilinearPoly._from_blocks(Domain.BOOLEAN, out), AncillaMap(entries, delta)


def _index_rows(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the index arrays `blocks` as rows of local ids,
    right-aligned and padded with -1 on the left, one column wider than the
    top degree so that every rest of a cut keeps a pad; and the global index
    of each local id."""
    width = blocks[-1].shape[1] + 1
    variables, local = np.unique(np.concatenate([idx.ravel() for idx in blocks]),
                                 return_inverse=True)
    rows = np.full((sum(map(len, blocks)), width), -1, dtype=np.int64)
    start = at = 0
    for idx in blocks:
        n, d = idx.shape
        rows[start:start + n, width - d:] = local[at:at + n * d].reshape(n, d)
        start += n
        at += n * d
    return rows, variables


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
