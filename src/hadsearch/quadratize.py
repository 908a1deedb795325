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
same rounds, but gives each degree >= 3 monomial a stable id and keeps one
table from a pair to the ids that hold it; a round then touches only the
pairs of its holders, the bare pair and the penalty terms, instead of
copying and recounting every term.
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
    `substitute_pair` until the degree is at most 2.  Each degree >= 3
    monomial keeps a stable id, and `holders` maps a pair to the ids that
    hold it, so a pair's count is the size of its set.  A round on (i, j)
    rewrites each holder m to (m - {i, j}) + (a,): it leaves the holders of
    (i, x) and (j, x) for x in the rest, joins those of (x, a), and leaves
    the pairs inside the rest alone, whose counts do not change.  A rest of
    one variable x becomes the quadratic term (x, a).  Only pairs with the
    new ancilla gain count, so only they are pushed on a heap of
    (-count, pair) entries; an entry whose count is stale is re-pushed with
    the current count, or dropped, when it reaches the top.

    Ancilla indices are fresh: allocation starts one past the largest input
    index and follows substitution order.
    """
    if poly.domain is not Domain.BOOLEAN:
        raise ValueError("quadratize requires a boolean polynomial")
    if poly.is_zero():
        raise ValueError("cannot quadratize the zero polynomial")
    delta = compute_delta(poly)
    terms: dict[Monomial, int] = {}  # the degree <= 2 terms
    mono: list[Monomial] = []  # by id, the degree >= 3 monomials
    coef: list[int] = []
    holders: dict[tuple[int, int], set[int]] = {}
    for m, c in poly._terms.items():
        if len(m) < 3:
            terms[m] = c
            continue
        k = len(mono)
        for pair in itertools.combinations(m, 2):
            ids = holders.get(pair)
            if ids is None:
                holders[pair] = {k}
            else:
                ids.add(k)
        mono.append(m)
        coef.append(c)
    heap = [(-len(ids), pair) for pair, ids in holders.items()]
    heapq.heapify(heap)

    def add(m: Monomial, c: int) -> None:
        # terms[m] += c, dropping a zero sum as MultilinearPoly does
        c += terms.get(m, 0)
        if c:
            terms[m] = c
        else:
            del terms[m]

    a = poly.nvars  # larger than every index in use, so m + (a,) stays sorted
    entries: list[tuple[int, tuple[int, int]]] = []
    while heap:
        top, pair = heap[0]
        n = len(holders[pair])
        if n != -top:
            if n:
                heapq.heapreplace(heap, (-n, pair))
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)  # a pair has one entry, and is never chosen again
        i, j = pair
        grown: dict[tuple[int, int], set[int]] = {}
        for k in holders.pop(pair):
            m = mono[k]
            p = m.index(i)
            q = m.index(j, p + 1)
            rest = m[:p] + m[p + 1:q] + m[q + 1:]
            for x in rest:
                holders[(i, x) if i < x else (x, i)].discard(k)
                holders[(j, x) if j < x else (x, j)].discard(k)
            if len(rest) >= 2:
                mono[k] = rest + (a,)
                for x in rest:
                    ids = grown.get((x, a))
                    if ids is None:
                        grown[(x, a)] = {k}
                    else:
                        ids.add(k)
            else:
                terms[rest + (a,)] = coef[k]
        holders.update(grown)
        for pair_a, ids in grown.items():
            heapq.heappush(heap, (-len(ids), pair_a))
        if pair in terms:
            add((a,), terms.pop(pair))
        for m, c in _penalty(i, j, a, delta):
            add(m, c)
        entries.append((a, pair))
        a += 1
    quadratic = MultilinearPoly._from_canonical(Domain.BOOLEAN, terms)
    return quadratic, AncillaMap(entries=tuple(entries), delta=delta)
