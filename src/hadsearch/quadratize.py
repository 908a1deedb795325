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
same rounds, but keeps one mutable term dict, a pair -> count table over the
degree >= 3 monomials and, per pair, the set of monomials that hold it; a
round then touches only the holders of its pair, the bare pair and the
penalty terms, instead of copying and recounting every term.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass

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
    `substitute_pair` until the degree is at most 2, but the pair counts are
    kept incrementally: a round pops the degree >= 3 monomials that hold its
    pair (and the bare pair monomial), re-inserts them with the pair
    replaced by the ancilla, adds the penalty, and updates the counts of
    only the monomials it inserted or removed.  The pair with the highest
    count comes off a heap of (-count, pair) entries; an entry whose count
    is stale is re-pushed with the current count, or dropped, when it
    reaches the top.

    Ancilla indices are fresh: allocation starts one past the largest input
    index and follows substitution order.
    """
    if poly.domain is not Domain.BOOLEAN:
        raise ValueError("quadratize requires a boolean polynomial")
    if poly.is_zero():
        raise ValueError("cannot quadratize the zero polynomial")
    delta = compute_delta(poly)
    terms = poly.terms
    counts: dict[tuple[int, int], int] = {}
    holders: dict[tuple[int, int], set[Monomial]] = {}
    # (-count, pair) entries; a pair's entries hold at least its current
    # count, and an entry above it is re-pushed when it reaches the top
    heap: list[tuple[int, tuple[int, int]]] = []
    counts_before: dict[tuple[int, int], int] = {}

    def track(m: Monomial, step: int) -> None:
        # count (step=1) or uncount (step=-1) a degree >= 3 monomial
        for pair in itertools.combinations(m, 2):
            n = counts.get(pair, 0)
            counts_before.setdefault(pair, n)
            if n + step:
                counts[pair] = n + step
            else:
                del counts[pair]
            if step > 0:
                holders.setdefault(pair, set()).add(m)
            else:
                holders[pair].discard(m)

    def add(m: Monomial, c: int) -> None:
        # terms[m] += c, dropping a zero sum as MultilinearPoly does
        old = terms.get(m, 0)
        new = old + c
        if new:
            terms[m] = new
        else:
            del terms[m]
        if len(m) >= 3 and (old == 0) != (new == 0):
            track(m, 1 if new else -1)

    def push_increases() -> None:
        for pair, n in counts_before.items():
            if counts.get(pair, 0) > n:
                heapq.heappush(heap, (-counts[pair], pair))
        counts_before.clear()

    for m in terms:
        if len(m) >= 3:
            track(m, 1)
    push_increases()
    next_index = poly.nvars
    entries: list[tuple[int, tuple[int, int]]] = []
    while counts:
        while True:
            top, pair = heap[0]
            n = counts.get(pair, 0)
            if n == -top:
                break
            if n:
                heapq.heapreplace(heap, (-n, pair))
            else:
                heapq.heappop(heap)
        i, j = pair
        a = next_index  # larger than every index in use, so m + (a,) stays sorted
        rewritten = []
        for m in list(holders[pair]):
            track(m, -1)
            rewritten.append((tuple(v for v in m if v != i and v != j) + (a,), terms.pop(m)))
        if pair in terms:
            rewritten.append(((a,), terms.pop(pair)))
        for m, c in rewritten + list(_penalty(i, j, a, delta)):
            add(m, c)
        push_increases()
        entries.append((a, pair))
        next_index += 1
    return MultilinearPoly(Domain.BOOLEAN, terms), AncillaMap(entries=tuple(entries), delta=delta)
