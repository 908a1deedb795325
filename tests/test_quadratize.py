import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadsearch import cli
from hadsearch.constructions import turyn_energy, williamson_energy
from hadsearch.polynom import Domain, MultilinearPoly, poly_to_text
from hadsearch.quadratize import (
    AncillaMap,
    compute_delta,
    quadratize,
    select_pair,
    substitute_pair,
)
from hadsearch.solver import exhaustive_min

from conftest import data_poly, polynomials, random_poly

BOOL = Domain.BOOLEAN


def bpoly(terms):
    return MultilinearPoly(BOOL, terms)


class TestComputeDelta:
    def test_reference_turyn_energy(self):
        p = data_poly("turyn4_ekq_reference.poly")
        assert p.abs_coeff_sum() == 908
        assert compute_delta(p) == 1816

    def test_williamson_k3_energy(self):
        p = williamson_energy(3).spin_to_boolean()
        assert p.abs_coeff_sum() == 26976
        assert compute_delta(p) == 53952

    def test_higher_order_block_energies(self):
        for k, delta in ((5, 681600), (7, 3355968), (9, 10545408)):
            assert compute_delta(williamson_energy(k).spin_to_boolean()) == delta

    def test_zero_polynomial(self):
        assert compute_delta(MultilinearPoly.zero(BOOL)) == 0

    def test_spin_rejected(self):
        with pytest.raises(ValueError):
            compute_delta(MultilinearPoly.zero(Domain.SPIN))


class TestSelectPair:
    def test_shared_pair_wins(self):
        p = bpoly({(0, 1, 2): 1, (0, 1, 3): 1})
        assert select_pair(p) == (0, 1)

    def test_tie_break_lexicographic(self):
        assert select_pair(bpoly({(0, 1, 2): 1})) == (0, 1)

    def test_williamson_k3_first_pair(self):
        # independent frequency count over the degree->=3 monomials
        p = williamson_energy(3).spin_to_boolean()
        best_pair, best_count = None, -1
        for pair in itertools.combinations(range(8), 2):
            count = sum(
                1 for m in p.terms if len(m) >= 3 and set(pair) <= set(m)
            )
            if count > best_count or (count == best_count and pair < best_pair):
                best_pair, best_count = pair, count
        assert best_pair == (0, 1)
        assert select_pair(p) == (0, 1)

    def test_quadratic_input_rejected(self):
        with pytest.raises(ValueError):
            select_pair(bpoly({(0, 1): 1}))


class TestSubstitutePair:
    def test_reference_first_round(self):
        p = data_poly("turyn4_ekq_reference.poly")
        out = substitute_pair(p, 0, 1, 5, 1816)
        assert out.coeff((5,)) == 5464
        assert out.coeff((0, 5)) == -3632
        assert out.coeff((1, 5)) == -3632
        assert out.coeff((0, 1)) == 1816
        assert out.coeff((2, 5)) == -32  # cubic -32 q0 q1 q2 collapses onto the ancilla

    def test_vacuous_substitution_adds_penalty_only(self):
        p = bpoly({(2, 3): 7})
        out = substitute_pair(p, 0, 1, 4, 10)
        expected = bpoly({(2, 3): 7, (0, 1): 10, (0, 4): -20, (1, 4): -20, (4,): 30})
        assert out == expected

    def test_used_ancilla_rejected(self):
        p = bpoly({(0, 1, 2): 1})
        with pytest.raises(ValueError):
            substitute_pair(p, 0, 1, 2, 10)

    def test_penalty_vanishes_exactly_on_consistent_states(self):
        p = bpoly({(0, 1): 1})
        out = substitute_pair(p, 0, 1, 2, 50)
        min_original = min(
            p.evaluate({0: a, 1: b}) for a, b in itertools.product((0, 1), repeat=2)
        )
        for q0, q1 in itertools.product((0, 1), repeat=2):
            good = out.evaluate({0: q0, 1: q1, 2: q0 * q1})
            assert good == p.evaluate({0: q0, 1: q1})
            bad = out.evaluate({0: q0, 1: q1, 2: 1 - q0 * q1})
            assert bad >= min_original + 50 - p.abs_coeff_sum()


def _min_over_all(p: MultilinearPoly) -> int:
    return exhaustive_min(p, cap=24).min_energy


class TestQuadratize:
    def test_already_quadratic_unchanged(self):
        p = bpoly({(0, 1): 3, (0,): -1})
        out, amap = quadratize(p)
        assert out == p
        assert amap.entries == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quadratize(MultilinearPoly.zero(BOOL))

    def test_williamson_k3_full_reduction_matches_golden(self):
        p = williamson_energy(3).spin_to_boolean()
        out, amap = quadratize(p)
        assert out == data_poly("williamson3_e2q_golden.poly")
        assert amap.delta == 53952
        assert amap.entries == ((8, (0, 1)), (9, (2, 3)), (10, (4, 5)), (11, (6, 7)))

    def test_williamson_k5_reduction_size(self):
        # 12 logical + 12 ancilla variables; the pair schedule itself is
        # implementation-defined, the count is not
        out, amap = quadratize(williamson_energy(5).spin_to_boolean())
        assert len(amap.entries) == 12
        assert out.degree() == 2
        assert out.nvars == 24

    def test_ancillas_fresh_and_sequential(self, rng):
        p = random_poly(rng, BOOL, max_vars=5, max_degree=4, max_terms=8)
        if p.degree() < 3:
            p = p.add(bpoly({(0, 1, 2, 3): 5}))
        out, amap = quadratize(p)
        n = p.nvars
        assert [a for a, _ in amap.entries] == list(range(n, n + len(amap.entries)))
        assert out.degree() <= 2

    def test_turyn_n14_peak_memory(self):
        # twice the 5.2 MB peak of the per-pair holder sets, measured at the
        # same point, bounds the count and incidence matrices
        p = turyn_energy(14).spin_to_boolean()
        tracemalloc.start()
        try:
            _, amap = quadratize(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(amap.entries) == 232
        assert peak < 2 * 5_200_000

    def test_incidence_count_strictly_decreases(self):
        p = williamson_energy(3).spin_to_boolean()
        delta = compute_delta(p)

        def incidences(poly):
            return sum(len(m) for m in poly.terms if len(m) >= 3)

        nxt = p.nvars
        while p.degree() > 2:
            before = incidences(p)
            i, j = select_pair(p)
            p = substitute_pair(p, i, j, nxt, delta)
            nxt += 1
            assert incidences(p) < before

    def test_spectrum_preserved_on_random_instances(self, rng):
        for _ in range(25):
            p = random_poly(rng, BOOL, max_vars=5, max_degree=4, max_terms=8)
            if p.is_zero():
                continue
            reduced, amap = quadratize(p)
            n = p.nvars
            total = n + len(amap.entries)
            assert reduced.degree() <= 2
            # min over ancilla completions equals the original value pointwise
            for bits in range(1 << n):
                base = {i: (bits >> i) & 1 for i in range(n)}
                original = p.evaluate(base)
                best = None
                for ext in range(1 << len(amap.entries)):
                    full = dict(base)
                    for t, (a, _) in enumerate(amap.entries):
                        full[a] = (ext >> t) & 1
                    val = reduced.evaluate(full)
                    best = val if best is None else min(best, val)
                assert best == original
                # the consistent completion achieves it
                full = dict(base)
                for a, (i, j) in amap.entries:
                    full[a] = full[i] * full[j]
                assert reduced.evaluate(full) == original

    def test_penalty_activation_gap(self, rng):
        # any state with one inconsistent ancilla sits above the worst
        # consistent energy plus the guaranteed margin
        for _ in range(10):
            p = random_poly(rng, BOOL, max_vars=4, max_degree=4, max_terms=6)
            if p.degree() < 3:
                continue
            reduced, amap = quadratize(p)
            margin = amap.delta - p.abs_coeff_sum()
            assert margin > 0
            n = p.nvars
            ground = min(
                p.evaluate({i: (b >> i) & 1 for i in range(n)}) for b in range(1 << n)
            )
            for bits in range(1 << n):
                full = {i: (bits >> i) & 1 for i in range(n)}
                for a, (i, j) in amap.entries:
                    full[a] = full[i] * full[j]
                broken = dict(full)
                first = amap.entries[0][0]
                broken[first] = 1 - broken[first]
                assert reduced.evaluate(broken) >= ground + margin


def reference_quadratize(p: MultilinearPoly) -> tuple[MultilinearPoly, AncillaMap]:
    """The plain loop: one select_pair + substitute_pair round until degree <= 2."""
    delta = compute_delta(p)
    entries = []
    nxt = p.nvars
    while p.degree() > 2:
        pair = select_pair(p)
        p = substitute_pair(p, *pair, nxt, delta)
        entries.append((nxt, pair))
        nxt += 1
    return p, AncillaMap(entries=tuple(entries), delta=delta)


class TestIncrementalMatchesReference:
    """quadratize runs each round in bulk over index, count and incidence
    matrices; the rounds must be exactly those of the reference loop."""

    def assert_same(self, p):
        assert quadratize(p) == reference_quadratize(p)

    @settings(max_examples=200, deadline=None)
    @given(p=polynomials(BOOL, max_vars=8, coeffs=st.integers(-50, 50)))
    def test_random_polynomials(self, p):
        assume(not p.is_zero())
        self.assert_same(p)

    @settings(max_examples=150, deadline=None)
    @given(p=polynomials(BOOL, max_vars=10, coeffs=st.integers(-50, 50),
                         max_degree=8, max_terms=30))
    def test_deep_rewrites(self, p):
        # degrees up to 8 take a holder through several rounds, and later
        # rounds pick pairs that contain earlier ancillas
        assume(not p.is_zero())
        self.assert_same(p)

    def test_later_round_picks_an_ancilla_pair(self):
        # round 1 rewrites both quartics to (2, 3, 5) and (2, 4, 5); the pair
        # (2, 5) they share now outcounts every pair of original variables
        p = bpoly({(0, 1, 2, 3): 1, (0, 1, 2, 4): 1, (2, 4): 3})
        out, amap = quadratize(p)
        assert amap.entries == ((5, (0, 1)), (6, (2, 5)))
        assert out.coeff((3, 6)) == 1
        assert out.coeff((4, 6)) == 1
        assert out.coeff((2, 4)) == 3
        self.assert_same(p)

    def test_holder_rewritten_three_times(self):
        # q0..q4 becomes (2, 3, 4, 5), then (4, 5, 6), then the quadratic
        # (6, 7); round 2 also closes the cubic (2, 3, 4) to (4, 6)
        p = bpoly({(0, 1, 2, 3, 4): 3, (2, 3, 4): 5, (0, 1, 3): -2})
        delta = compute_delta(p)
        out, amap = quadratize(p)
        assert amap.entries == ((5, (0, 1)), (6, (2, 3)), (7, (4, 5)))
        assert out.coeff((6, 7)) == 3
        assert out.coeff((4, 6)) == 5
        assert out.coeff((3, 5)) == -2
        assert out.coeff((4, 5)) == delta
        self.assert_same(p)

    def test_bare_pair_beside_higher_monomials(self):
        # round 1 takes (0, 1): both cubics and the bare q0 q1 hold it
        p = bpoly({(0, 1, 2): 3, (0, 1, 3): -2, (0, 1): 5, (2, 3, 4): 1})
        delta = compute_delta(p)
        out, amap = quadratize(p)
        assert amap.entries[0] == (5, (0, 1))
        # the bare pair merges into the ancilla's penalty term
        assert out.coeff((5,)) == 5 + 3 * delta
        assert out.coeff((0, 1)) == delta
        self.assert_same(p)

    def test_bare_pair_made_by_an_earlier_round(self):
        # round 1 rewrites q0 q1 q2 to the bare pair (2, 5); round 2 takes
        # (2, 5), held by (2, 3, 5) and (2, 4, 5), and merges that rewritten
        # bare pair into ancilla 6's penalty term
        p = bpoly({(0, 1, 2): -7, (0, 1, 2, 3): 1, (0, 1, 2, 4): 1})
        delta = compute_delta(p)
        out, amap = quadratize(p)
        assert amap.entries[:2] == ((5, (0, 1)), (6, (2, 5)))
        assert out.coeff((6,)) == -7 + 3 * delta
        assert out.coeff((2, 5)) == delta
        self.assert_same(p)

    @pytest.mark.parametrize("degrees", [(5,), (6,), (5, 6)])
    def test_more_ancillas_than_the_first_capacity(self, degrees):
        # every monomial of these degrees on 12 variables: the matrices start
        # with room for 2 * 12 local ids and must grow past it
        rng = random.Random(sum(degrees))
        p = bpoly({m: rng.choice((-3, -1, 1, 2)) for d in degrees
                   for m in itertools.combinations(range(12), d)})
        out, amap = quadratize(p)
        assert len(amap.entries) > 12
        assert (out, amap) == reference_quadratize(p)

    def test_one_monomial_of_degree_12(self):
        # rewritten ten times, each round taking the two lowest indices left
        p = bpoly({tuple(range(12)): 5, (0, 1): 2})
        out, amap = quadratize(p)
        assert [a for a, _ in amap.entries] == list(range(12, 22))
        assert amap.entries[:2] == ((12, (0, 1)), (13, (2, 3)))
        assert out.coeff((20, 21)) == 5
        assert out.degree() == 2
        self.assert_same(p)

    def test_only_degree_two_and_lower(self):
        p = bpoly({(0, 1): 3, (2,): -1, (): 4, (1, 5): 7})
        out, amap = quadratize(p)
        assert out == p and amap.entries == ()
        assert amap.delta == 30
        self.assert_same(p)

    def test_equal_counts_broken_lexicographically(self):
        # round 1: (0, 1), (0, 2), (1, 2) and (3, 4) are each held twice, and
        # (0, 1) is the smallest.  Round 2: (2, 9) and (3, 4) are held twice;
        # (2, 9) comes first although 9 > 4
        p = bpoly({(0, 1, 2, 5): 1, (0, 1, 2, 6): 2, (3, 4, 7): 3, (3, 4, 8): 4})
        out, amap = quadratize(p)
        assert amap.entries == ((9, (0, 1)), (10, (2, 9)), (11, (3, 4)))
        assert out.coeff((5, 10)) == 1 and out.coeff((6, 10)) == 2
        assert out.coeff((7, 11)) == 3 and out.coeff((8, 11)) == 4
        self.assert_same(p)

    def test_sparse_indices_allocate_nothing_per_index(self):
        # nvars is 10^6, but only four variables are in use, three in the cubic
        p = bpoly({(0, 500_000, 999_999): 3, (7,): -1})
        tracemalloc.start()
        try:
            out, amap = quadratize(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert amap.entries == ((1_000_000, (0, 500_000)),)
        assert out.coeff((999_999, 1_000_000)) == 3
        self.assert_same(p)

    @pytest.mark.parametrize("terms", [
        {(0, 1, 2**64): 3, (2,): 1},  # a row index past int64
        {(0, 1, 2): 3, (2**64,): -1, (1, 2**64): 5},  # the ancilla past int64
        {(0, 1, 2): 3, (2**63 - 2,): 1},  # the ancilla is 2^63 - 1
        {(0, 1, 2): 3, (2**63 - 1,): 1},  # the ancilla is 2^63
    ])
    def test_indices_past_int64(self, terms):
        p = bpoly(terms)
        out, amap = quadratize(p)
        expected, expected_map = reference_quadratize(p)
        assert poly_to_text(out) == poly_to_text(expected)
        assert (out, amap) == (expected, expected_map)
        assert all(type(v) is int for m in out.terms for v in m)

    def test_turyn_n8(self):
        self.assert_same(turyn_energy(8).spin_to_boolean())

    def test_williamson_k9(self):
        self.assert_same(williamson_energy(9).spin_to_boolean())


# Every output coefficient is at most 7 * abs_coeff_sum in magnitude (an
# ancilla's 3 delta plus a bare pair's coefficient): 2^63 - 1 at LAST_INT64,
# and 2^63 + 6 one above it, as 7 does not divide 2^63.
LAST_INT64 = (2**63 - 1) // 7


class TestOutputArithmetic:
    """quadratize assembles its output as blocks, int64 where 7 *
    abs_coeff_sum < 2^63 and Python ints past it; both sides equal the
    reference loop and give Python ints."""

    @pytest.mark.parametrize("acs, exact", [(LAST_INT64, True), (LAST_INT64 + 1, False)],
                             ids=["int64", "object"])
    def test_int64_boundary(self, acs, exact):
        # the bare pair (0, 1) moves to the ancilla: 3 delta + acs - 2
        p = bpoly({(0, 1, 2): 1, (0, 1): acs - 2, (3,): -1})
        for q in (p, p.neg()):
            assert 7 * q.abs_coeff_sum() == (2**63 - 1 if exact else 2**63 + 6)
            out, amap = quadratize(q)
            dtypes = {coefs.dtype for _, coefs in out._blocks}
            assert dtypes == {np.dtype(np.int64 if exact else object)}
            text = poly_to_text(out)
            expected, expected_map = reference_quadratize(q)
            assert text == poly_to_text(expected)
            assert (out, amap) == (expected, expected_map)
            assert all(type(c) is int for c in out.terms.values())
            assert out.coeff((4,)) == 6 * acs + (acs - 2 if q is p else 2 - acs)


class TestBuildChainBlocks:
    def test_no_term_dict_is_built(self):
        # ek_q, e2_q and e2_s pass from layer to layer as blocks, and
        # `terms` builds a dict from them on each call
        ek_q, e2_q, e2_s, model, amap = cli._build_chain(turyn_energy(8))
        for p in (ek_q, e2_q, e2_s):
            terms = p.terms
            assert all(type(c) is int and c for c in terms.values())
            assert terms == MultilinearPoly(p.domain, terms).terms
        assert (e2_q, amap) == reference_quadratize(ek_q)


def value_table(p: MultilinearPoly, nvars: int) -> np.ndarray:
    """Value of a boolean polynomial at every state; bit v of the index is q_v."""
    states = np.arange(1 << nvars, dtype=np.int64)
    out = np.zeros(1 << nvars, dtype=np.int64)
    for m, c in p.terms.items():
        mask = sum(1 << v for v in m)
        out += c * ((states & mask) == mask)
    return out


class TestSpectrumProperty:
    @settings(max_examples=100, deadline=None)
    @given(p=polynomials(BOOL, max_vars=6, coeffs=st.integers(-50, 50), max_degree=4, max_terms=10))
    def test_min_over_ancillas_is_original_value(self, p):
        assume(not p.is_zero())
        reduced, amap = quadratize(p)
        n = p.nvars
        k = len(amap.entries)
        assume(n + k <= 18)
        original = value_table(p, n)
        table = value_table(reduced, n + k)
        # ancillas are n .. n+k-1, the high bits of the state index
        assert np.array_equal(table.reshape(1 << k, 1 << n).min(axis=0), original)
        # the consistent completion a = q_i q_j reaches the original value
        full = np.arange(1 << n, dtype=np.int64)
        for a, (i, j) in amap.entries:
            full |= ((full >> i) & (full >> j) & 1) << a
        assert np.array_equal(table[full], original)


class TestAncillaMap:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            AncillaMap(entries=((5, (0, 1)), (6, (0, 1))), delta=2)

    def test_unordered_pair_rejected(self):
        with pytest.raises(ValueError):
            AncillaMap(entries=((5, (1, 0)),), delta=2)
