import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadsearch import solver

from hadsearch.constructions import turyn_energy, williamson_energy
from hadsearch.ising import IsingModel, from_quadratic
from hadsearch.polynom import Domain, MultilinearPoly
from hadsearch.quadratize import quadratize
from hadsearch.solver import Sample, SampleSet, anneal, exhaustive_min

from conftest import polynomials


def random_ising(rng: random.Random, nvars: int) -> IsingModel:
    h = {i: rng.randint(-9, 9) for i in range(nvars)}
    h = {i: c for i, c in h.items() if c}
    J = {}
    for i, j in itertools.combinations(range(nvars), 2):
        if rng.random() < 0.4:
            c = rng.randint(-9, 9)
            if c:
                J[(i, j)] = c
    return IsingModel(nvars=nvars, h=h, J=J, offset=rng.randint(-5, 5))


class TestExhaustive:
    def test_block_search_energy_min_zero(self):
        sset = exhaustive_min(williamson_energy(3))
        assert sset.min_energy == 0

    def test_sequence_search_energy_min_zero(self):
        sset = exhaustive_min(turyn_energy(4), all_ground=True)
        assert sset.min_energy == 0
        assert len(sset.samples) >= 1

    def test_constant_polynomial(self):
        sset = exhaustive_min(MultilinearPoly.constant(Domain.SPIN, 7))
        assert sset.min_energy == 7
        assert sset.samples[0].values == ()

    def test_cap_rejection_reports_count(self):
        p = MultilinearPoly(Domain.SPIN, {tuple(range(2)): 1, (27,): 1})
        with pytest.raises(ValueError, match="28"):
            exhaustive_min(p, cap=26)

    def test_boolean_domain(self):
        p = MultilinearPoly(Domain.BOOLEAN, {(0,): -3, (0, 1): 2})
        sset = exhaustive_min(p, all_ground=True)
        assert sset.min_energy == -3
        assert [s.values for s in sset.samples] == [(1, 0)]

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            m = random_ising(rng, 8)
            sset = exhaustive_min(m, all_ground=True)
            energies = {}
            for bits in range(1 << 8):
                a = {i: 2 * ((bits >> i) & 1) - 1 for i in range(8)}
                energies[tuple(a[i] for i in range(8))] = m.energy(a)
            best = min(energies.values())
            grounds = {v for v, e in energies.items() if e == best}
            assert sset.min_energy == best
            assert {s.values for s in sset.samples} == grounds

    def test_ising_input(self):
        m = IsingModel(nvars=2, J={(0, 1): 1})
        sset = exhaustive_min(m, all_ground=True)
        assert sset.min_energy == -1
        assert {s.values for s in sset.samples} == {(-1, 1), (1, -1)}

    def test_coefficient_sum_past_int64_rejected(self):
        # the true minimum -(2^63 + 1) at (-1, -1) does not fit int64
        p = MultilinearPoly(Domain.SPIN, {(0,): 2**62, (1,): 2**62, (0, 1): -1})
        with pytest.raises(ValueError, match="int64"):
            exhaustive_min(p)

    def test_ising_offset_counts_toward_int64_bound(self):
        m = IsingModel(nvars=1, h={0: 1}, offset=2**63 - 1)
        with pytest.raises(ValueError, match="int64"):
            exhaustive_min(m)

    @pytest.mark.parametrize("domain, terms, ground", [
        (Domain.SPIN, {(0,): 2**62, (1,): 2**62 - 1}, (-1, -1)),
        (Domain.BOOLEAN, {(): -(2**62), (0, 1): -(2**62 - 1)}, (1, 1)),
    ])
    def test_largest_exact_coefficient_sum(self, domain, terms, ground):
        sset = exhaustive_min(MultilinearPoly(domain, terms), all_ground=True)
        assert sset.min_energy == -(2**63 - 1)
        assert [s.values for s in sset.samples] == [ground]


def brute_force_grounds(poly: MultilinearPoly) -> tuple[int, list[tuple[int, ...]]]:
    """Minimum and minimizing assignments in state order (bit i = variable i)."""
    lo, hi = poly.domain.values
    n = poly.nvars
    energies = []
    for state in range(1 << n):
        values = tuple(hi if (state >> i) & 1 else lo for i in range(n))
        energies.append((poly.evaluate(dict(enumerate(values))), values))
    best = min(e for e, _ in energies)
    return best, [v for e, v in energies if e == best]


class TestTransformMatchesBruteForce:
    """The chunked transforms agree with term-by-term evaluation.

    Chunk bits of 3 split up to ten variables into as many as 128 chunks,
    so the high-bit folding runs as well as the single-chunk path.
    """

    @pytest.mark.parametrize("chunk_bits", [22, 3])
    @pytest.mark.parametrize("domain", [Domain.SPIN, Domain.BOOLEAN])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_min_ground_set_and_first_ground(self, chunk_bits, domain, data):
        # twelve coefficients of magnitude <= 2^59 keep the sum below 2^63
        coeffs = st.one_of(st.integers(-50, 50), st.integers(-(2**59), 2**59))
        poly = data.draw(polynomials(domain, max_vars=10, coeffs=coeffs))
        best, grounds = brute_force_grounds(poly)
        with mock.patch.object(solver, "_CHUNK_BITS", chunk_bits):
            every = exhaustive_min(poly, all_ground=True)
            first = exhaustive_min(poly)
        assert every.min_energy == best
        assert sorted(s.values for s in every.samples) == sorted(grounds)
        assert every.reads == len(grounds)
        assert [s.values for s in first.samples] == [grounds[0]]
        assert first.min_energy == best


class TestAnneal:
    def test_zero_coupling_model_reports_offset(self):
        m = IsingModel(nvars=3, offset=42)
        sset = anneal(m, reads=5, sweeps=3, seed=1)
        assert all(s.energy == 42 for s in sset.samples)
        assert sset.reads == 5

    def test_spinless_model_reports_offset_once(self):
        sset = anneal(IsingModel(nvars=0, offset=42), reads=5, sweeps=3, seed=1)
        assert sset.to_text() == "42 5 \n"

    def test_single_pair_ground_state(self):
        m = IsingModel(nvars=2, J={(0, 1): 1})
        sset = anneal(m, reads=100, sweeps=20, seed=3)
        assert sset.min_energy == -1
        best = sset.best()
        assert best.values[0] != best.values[1]

    def test_deterministic_rerun(self):
        m = IsingModel(nvars=4, h={0: 2}, J={(0, 1): -3, (2, 3): 1})
        a = anneal(m, reads=40, sweeps=30, seed=7)
        b = anneal(m, reads=40, sweeps=30, seed=7)
        assert a == b
        assert a.to_text() == b.to_text()

    def test_never_undercuts_exhaustive(self, rng):
        for _ in range(10):
            m = random_ising(rng, 10)
            exact = exhaustive_min(m).min_energy
            sset = anneal(m, reads=8, sweeps=50, seed=5)
            assert sset.min_energy >= exact

    def test_quadratized_ground_states_have_consistent_ancillas(self):
        reduced, amap = quadratize(williamson_energy(3).spin_to_boolean())
        model = from_quadratic(reduced.boolean_to_spin())
        sset = anneal(model, reads=60, sweeps=300, seed=2)
        assert sset.min_energy == 0
        for s in sset.samples:
            if s.energy != 0:
                continue
            bits = [(v + 1) // 2 for v in s.values]
            for a, (i, j) in amap.entries:
                assert bits[a] == bits[i] * bits[j]

    def test_zero_reads_rejected(self):
        m = IsingModel(nvars=1, h={0: 1})
        with pytest.raises(ValueError):
            anneal(m, reads=0, sweeps=5, seed=0)
        with pytest.raises(ValueError):
            anneal(m, reads=5, sweeps=0, seed=0)

    def test_coefficient_sum_past_int64_bound_rejected(self):
        # a flip changes the energy by twice a local field of up to 2^62
        m = IsingModel(nvars=1, h={0: 2**62})
        with pytest.raises(ValueError, match="int64"):
            anneal(m, reads=1, sweeps=1, seed=0)

    def test_offset_counts_toward_int64_bound(self):
        m = IsingModel(nvars=1, h={0: 1}, offset=2**62 - 1)
        with pytest.raises(ValueError, match="int64"):
            anneal(m, reads=1, sweeps=1, seed=0)

    def test_largest_exact_coefficient_sum(self):
        m = IsingModel(nvars=2, h={0: 2**62 - 2}, J={(0, 1): 1})
        sset = anneal(m, reads=20, sweeps=10, seed=0)
        for s in sset.samples:
            assert s.energy == m.energy(dict(enumerate(s.values)))
        assert sset.min_energy == -(2**62 - 1)


class TestSampleSet:
    def test_occurrence_sum_enforced(self):
        s = Sample(values=(1,), energy=0, occurrences=2)
        with pytest.raises(ValueError):
            SampleSet(domain=Domain.SPIN, samples=(s,), reads=3)

    def test_sort_order_enforced(self):
        a = Sample(values=(1,), energy=1, occurrences=1)
        b = Sample(values=(-1,), energy=0, occurrences=1)
        with pytest.raises(ValueError):
            SampleSet(domain=Domain.SPIN, samples=(a, b), reads=2)

    def test_export_format(self):
        a = Sample(values=(-1, 1), energy=-2, occurrences=3)
        b = Sample(values=(1, -1), energy=5, occurrences=1)
        sset = SampleSet(domain=Domain.SPIN, samples=(a, b), reads=4)
        assert sset.to_text() == "-2 3 -+\n5 1 +-\n"
