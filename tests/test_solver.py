import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hadsearch import cli, solver

from hadsearch.constructions import (
    enumerate_prototypes,
    extended_residuals,
    turyn_energy,
    turyn_residuals,
    williamson_energy,
    williamson_residuals,
)
from hadsearch.ising import IsingModel, from_quadratic
from hadsearch.polynom import Domain, MultilinearPoly, SquareSum
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

    @pytest.mark.parametrize("excess", [-1, 1, 2**63 - 1 - 2**53],
                             ids=["last-float64", "first-int64", "last-int64"])
    @pytest.mark.parametrize("domain", [Domain.SPIN, Domain.BOOLEAN])
    def test_float64_edge(self, domain, excess):
        # absolute coefficients sum to 2^53 - 1, 2^53 + 1 or 2^63 - 1; the
        # minimum is minus that sum, which float64 cannot hold past the first
        if domain is Domain.SPIN:
            poly = MultilinearPoly(domain, {(0,): 2**52, (1,): 2**52 + excess})
            ground = (-1, -1)
        else:
            poly = MultilinearPoly(domain, {(): -(2**52), (0, 1): -(2**52 + excess)})
            ground = (1, 1)
        assert poly.abs_coeff_sum() == 2**53 + excess
        best, grounds = brute_force_grounds(poly)
        assert (best, grounds) == (-(2**53 + excess), [ground])
        for every in (True, False):
            sset = exhaustive_min(poly, all_ground=every)
            assert sset.min_energy == best
            assert [s.values for s in sset.samples] == grounds


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
    so the high-bit folding runs as well as the single-chunk path.  Chunk
    bits of 5 put a chunk boundary where no radix boundary falls.
    """

    @pytest.mark.parametrize("chunk_bits", [22, 5, 3])
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


def reference_walsh_hadamard(a: np.ndarray) -> None:
    """In-place unnormalised Walsh-Hadamard transform of a power-of-two vector."""
    buf = np.empty(a.size // 2, dtype=a.dtype)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0, :], pairs[:, 1, :]
        diff = buf.reshape(-1, h)
        np.subtract(x, y, out=diff)
        x += y
        y[...] = diff
        h *= 2


def reference_subset_sum(a: np.ndarray) -> None:
    """In-place zeta transform: a[x] becomes the sum of a[m] over masks m within x."""
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        pairs[:, 1, :] += pairs[:, 0, :]
        h *= 2


@st.composite
def transform_inputs(draw):
    """A vector of 2^0 to 2^12 entries, with the dtype exhaustive_min would
    pick for it: absolute values summing below 2^53 or below 2^63."""
    bits = draw(st.integers(0, 12))
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    top = (2**53 if dtype is np.float64 else 2**63) >> 12
    magnitude = draw(st.sampled_from([9, top - 1]))
    return dtype, draw(arrays(np.int64, 1 << bits, elements=st.integers(-magnitude, magnitude)))


class TestTransformMatchesButterflies:
    """`_transform` (float64) and `_split_transform` (int64, past 2^53) equal
    the one-bit-per-pass butterflies they replaced."""

    @pytest.mark.parametrize("block, reference", [
        (solver._SYLVESTER, reference_walsh_hadamard),
        (solver._ZETA, reference_subset_sum),
    ], ids=["sylvester", "zeta"])
    @settings(max_examples=80, deadline=None)
    @given(case=transform_inputs())
    def test_equal_on_every_bit_count(self, block, reference, case):
        dtype, values = case
        expected = values.copy()
        reference(expected)
        if dtype is np.float64:
            got = solver._transform(values.astype(dtype), block, np.empty(values.size))
        else:
            spares = [np.empty(values.size) for _ in range(3)]
            got = solver._split_transform(values.copy(), block, *spares)
        assert got.dtype == dtype
        assert np.array_equal(got.astype(np.int64), expected)

    @pytest.mark.parametrize("block, reference", [
        (solver._SYLVESTER, reference_walsh_hadamard),
        (solver._ZETA, reference_subset_sum),
    ], ids=["sylvester", "zeta"])
    def test_split_on_a_wide_vector_near_the_bound(self, block, reference):
        # 2^16 entries whose absolute values sum just below 2^63: a low
        # half much wider than 26 bits would sum past float64's exact range
        rng = np.random.default_rng(0)
        values = rng.integers(2**46, 2**47, size=1 << 16) * rng.choice([-1, 1], size=1 << 16)
        assert int(np.abs(values).sum()) < 2**63
        expected = values.copy()
        reference(expected)
        spares = [np.empty(values.size) for _ in range(3)]
        got = solver._split_transform(values.copy(), block, *spares)
        assert np.array_equal(got, expected)


def outcome(call):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def separable_square_sums(draw):
    """A `SquareSum` over up to ten spins whose quadratic terms stay within
    blocks of them, and whether its residuals were made to vanish at a
    drawn assignment (otherwise their constants are drawn)."""
    nvars = draw(st.integers(1, 10))
    block = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
    pairs = [(i, j) for i, j in itertools.combinations(range(nvars), 2) if block[i] == block[j]]
    monomials = st.sampled_from([(i,) for i in range(nvars)] + pairs)
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-(2**26), 2**26))
    x = dict(enumerate(draw(st.lists(st.sampled_from([-1, 1]), min_size=nvars, max_size=nvars))))
    planted = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        residual = MultilinearPoly(Domain.SPIN, draw(st.dictionaries(monomials, coeffs, max_size=6)))
        constant = -residual.evaluate(x) if planted else draw(st.integers(-3, 3))
        terms.append((draw(st.integers(1, 3)),
                      MultilinearPoly(Domain.SPIN, {**residual.terms, (): constant})))
    return SquareSum(nvars, tuple(terms)), planted


PAPER_SQUARE_SUMS = {
    **{f"W{k}": (williamson_residuals, k) for k in (3, 5, 7, 9, 11)},
    **{f"T{n}": (turyn_residuals, n) for n in (4, 6, 8)},
}


class TestSquareSumJoin:
    """`exhaustive_min` of a `SquareSum` equals `exhaustive_min` of its
    expansion, for both `all_ground` values, errors included: by the join
    of two half enumerations where a zero state exists and the residuals
    split, by enumerating the expansion otherwise."""

    @staticmethod
    def check(model, **kwargs) -> tuple[object, int]:
        """The expansion's result (or error), and how often the `SquareSum`
        path enumerated the expansion; it never builds the expanded
        polynomial, nor calls `exhaustive_min` again."""
        calls = 0
        for every in (True, False):
            expected = outcome(lambda: exhaustive_min(model.expand(), all_ground=every, **kwargs))
            with (mock.patch.object(solver, "_enumerate", wraps=solver._enumerate) as spy,
                  mock.patch.object(SquareSum, "expand", side_effect=AssertionError),
                  mock.patch.object(solver, "exhaustive_min", side_effect=AssertionError)):
                got = outcome(lambda: exhaustive_min(model, all_ground=every, **kwargs))
            assert got == expected
            calls += spy.call_count
        return expected, calls

    @pytest.mark.parametrize("name", PAPER_SQUARE_SUMS)
    def test_paper_instances_join(self, name):
        build, size = PAPER_SQUARE_SUMS[name]
        sset, enumerations = self.check(build(size))
        assert sset.min_energy == 0 and enumerations == 0

    @pytest.mark.parametrize("index", range(12))
    def test_every_n8_m2_prototype(self, index):
        proto = list(enumerate_prototypes(8, 2))[index]
        sset, enumerations = self.check(extended_residuals(proto))
        failing = index in (2, 3, 4, 5, 10)
        # no zero state: the expansion is enumerated and reports the minimum
        assert sset.min_energy == (4 if failing else 0)
        assert enumerations == (2 if failing else 0)

    @pytest.mark.parametrize("chunk_bits", [22, 5])
    @settings(max_examples=80, deadline=None)
    @given(case=separable_square_sums())
    def test_separable_models(self, chunk_bits, case):
        model, planted = case
        # chunk bits of 5 send sides of more than two spins to enumeration
        with mock.patch.object(solver, "_CHUNK_BITS", chunk_bits):
            sset, _ = self.check(model)
        if planted and isinstance(sset, SampleSet):
            assert sset.min_energy == 0

    def test_connected_model_enumerates(self):
        # R = s0 s1 + s1 s2 vanishes where s0 = -s2, but links all three spins
        model = SquareSum(3, ((2, MultilinearPoly(Domain.SPIN, {(0, 1): 1, (1, 2): 1})),))
        assert solver._zero_states(model, 3, True) is None
        sset, enumerations = self.check(model)
        assert sset.min_energy == 0 and enumerations == 2

    def test_spins_the_energy_drops_are_dropped(self):
        # (s1 s3 - s0 s3)^2 = (s1 - s0)^2: the expansion has two variables
        model = SquareSum(4, (
            (1, MultilinearPoly(Domain.SPIN, {(0,): 1, (1,): -1})),
            (1, MultilinearPoly(Domain.SPIN, {(1, 3): 1, (0, 3): -1})),
        ))
        sset, enumerations = self.check(model)
        # the first in state order, bit i set where s_i = +1
        assert [s.values for s in sset.samples] == [(-1, -1)] and enumerations == 0
        every = exhaustive_min(model, all_ground=True)
        assert [s.values for s in every.samples] == [(1, 1), (-1, -1)]

    def test_cap_applies_to_the_expansion_first(self):
        model = SquareSum(30, tuple((1, MultilinearPoly(Domain.SPIN, {(i,): 1, (): -1}))
                                    for i in range(30)))
        with mock.patch.object(solver, "_zero_states", side_effect=AssertionError):
            with pytest.raises(ValueError, match="30 variables exceed the exhaustive cap of 26"):
                exhaustive_min(model)

    @pytest.mark.parametrize("nvars", [16, 26])
    def test_lowest_zero_state_holds_no_pairs(self, nvars):
        # (s0 + ... + s_{n-1})^2 is zero at C(n, n/2) states, 10.4M at 26
        # spins; the lowest sets spins 0..n/2-1 to +1
        model = SquareSum(nvars, ((1, MultilinearPoly(Domain.SPIN, {(i,): 1 for i in range(nvars)})),))
        if nvars == 16:
            sset, enumerations = self.check(model)
            assert len(sset.samples) == 1 and enumerations == 0
        tracemalloc.start()
        try:
            sset = exhaustive_min(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.values for s in sset.samples] == [(1,) * (nvars // 2) + (-1,) * (nvars // 2)]
        assert peak < 8 << 20

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_column_ids_equal_exactly_where_columns_are(self, data):
        rows, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
        values = st.sampled_from([0, 1, -1, 2**61, -(2**61), 2**62 - 1, -(2**62 - 1)])
        table = data.draw(arrays(np.int64, (rows, width), elements=values))
        ids = solver._column_ids(table).tolist()
        columns = [tuple(c) for c in table.T.tolist()]
        for (a, ka), (b, kb) in itertools.product(zip(columns, ids), repeat=2):
            assert (a == b) == (ka == kb)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bound", ["beta_start", "beta_end"])
    def test_non_finite_inverse_temperature_rejected(self, bound, value):
        m = IsingModel(nvars=2, J={(0, 1): 1})
        with pytest.raises(ValueError, match=f"got {bound}={value}$"):
            anneal(m, reads=2, sweeps=3, seed=0, **{bound: value})

    def test_schedule_overflow_rejected(self):
        # the ratio 1e600 overflows, and with it every beta past the first
        m = IsingModel(nvars=2, J={(0, 1): 1})
        with pytest.raises(ValueError, match="overflows"):
            anneal(m, reads=2, sweeps=3, beta_start=1e-300, beta_end=1e300, seed=0)

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


def spin(terms) -> MultilinearPoly:
    return MultilinearPoly(Domain.SPIN, terms)


class TestAnnealResiduals:
    def test_energies_are_exact_spin_energies(self):
        residuals = turyn_residuals(6)
        energy = residuals.expand()
        sset = anneal(residuals, reads=30, sweeps=40, seed=4)
        assert sset.reads == 30
        for s in sset.samples:
            assert len(s.values) == residuals.nvars == 13
            assert s.energy == energy.evaluate(dict(enumerate(s.values)))

    def test_reaches_ground_on_williamson_k5(self):
        sset = anneal(williamson_residuals(5), reads=20, sweeps=60, seed=1)
        assert sset.min_energy == 0

    def test_constant_residuals_fold_and_identical_ones_merge(self):
        # Williamson R_0 is the constant 0, and R_d = R_(k-d)
        residuals = williamson_residuals(9)
        kernel = solver._Kernel(residuals, solver._energy_bound(residuals))
        assert kernel.offset == 0
        assert kernel.w.tolist() == [18] * 4
        assert kernel.u.tolist() == [0] * 4

    def test_deterministic_rerun(self):
        residuals = williamson_residuals(7)
        a = anneal(residuals, reads=10, sweeps=20, seed=3)
        assert a.to_text() == anneal(residuals, reads=10, sweeps=20, seed=3).to_text()

    def test_beta_range_reads_the_expanded_energy(self):
        residuals = SquareSum(2, ((3, spin({(0,): 2, (1,): 1, (): 5})),))
        # 3 * (2 s0 + s1 + 5)^2 expands with largest non-constant term 60 s0
        assert solver.default_beta_range(residuals) == (0.01 / 60, 10.0)

    def test_first_rejected_bound(self):
        # 1 * (2^30 s0 + (2^30 - 1) s1)^2 + (2^32 - 1) * s0^2 reaches 2^62
        residuals = SquareSum(2, (
            (1, spin({(0,): 2**30, (1,): 2**30 - 1})),
            (2**32 - 1, spin({(0,): 1})),
        ))
        with pytest.raises(ValueError, match="int64"):
            anneal(residuals, reads=1, sweeps=1, seed=0)

    def test_largest_accepted_bound(self):
        # as above with the second weight one lower: the bound is 2^62 - 1
        residuals = SquareSum(2, (
            (1, spin({(0,): 2**30, (1,): 2**30 - 1})),
            (2**32 - 2, spin({(0,): 1})),
        ))
        energy = residuals.expand()
        sset = anneal(residuals, reads=40, sweeps=5, beta_start=1e-30, beta_end=1e-30, seed=0)
        energies = {s.energy for s in sset.samples}
        for s in sset.samples:
            assert s.energy == energy.evaluate(dict(enumerate(s.values)))
        # at an infinite temperature every state shows up, the top one at 2^62 - 1
        assert energies == {2**62 - 1, 2**32 - 1}

    def test_cli_search_anneals_logical_spins(self, tmp_path):
        out = tmp_path / "w5"
        assert cli.main(["search", "--method", "williamson", "--k", "5", "--solver", "anneal",
                         "--reads", "20", "--sweeps", "60", "--seed", "1",
                         "--out", str(out)]) == 0
        energy = williamson_energy(5)
        for line in (out / "samples.txt").read_text().splitlines():
            e, _, values = line.split()
            assert len(values) == 12
            spins = {i: 1 if ch == "+" else -1 for i, ch in enumerate(values)}
            assert int(e) == energy.evaluate(spins)


def quadratic_polys(nvars: int, coeffs):
    return st.dictionaries(
        st.frozensets(st.integers(0, nvars - 1), max_size=2), coeffs, max_size=8
    ).map(lambda terms: spin({tuple(sorted(m)): c for m, c in terms.items()}))


@st.composite
def annealable_models(draw, ising: bool):
    """Small Ising models or sums of squares, some past float64's exact range."""
    nvars = draw(st.integers(1, 6))
    coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2**28), 2**28))
    if ising:
        return from_quadratic(draw(quadratic_polys(nvars, coeffs)), nvars=nvars)
    terms = draw(st.lists(st.tuples(st.integers(1, 5), quadratic_polys(nvars, coeffs)),
                          min_size=1, max_size=4))
    # repeated residuals exercise the merge
    return SquareSum(nvars, tuple(terms + terms[: draw(st.integers(0, len(terms)))]))


class TestKernelProperty:
    """The step `_metropolis_states` runs, `_Kernel.sweeper`, keeps X = 2R,
    reports each attempt's exact energy change and flips exactly the reads
    that the Metropolis rule of the reference loops accepts, on both kernel
    kinds."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_incremental_state_matches_full_evaluation(self, data):
        for ising in (True, False):
            model = data.draw(annealable_models(ising))
            bound = solver._energy_bound(model)
            assume(bound < 2**62)
            kernel = solver._Kernel(model, bound)
            assert kernel.squares is not ising
            self.check_steps(kernel, model.to_polynomial() if ising else model.expand(), data)

    @staticmethod
    def check_steps(kernel, energy, data):
        n = kernel.nvars
        reads = data.draw(st.integers(1, 4))
        spins = st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
        S = kernel.states(np.array(data.draw(st.lists(spins, min_size=reads, max_size=reads))))
        X = 2 * kernel.residuals(S)
        sweep = kernel.sweeper(S, X)

        def exact(S):
            return [energy.evaluate(dict(enumerate(col))) for col in S[:n].T.astype(int).tolist()]

        before = exact(S)
        # -1.0 is a drawn 0.0, as `_metropolis_states` passes it on
        uniforms = st.lists(st.sampled_from((-1.0, 2.0**-53, 0.25, 0.5, 1 - 2.0**-53)),
                            min_size=reads, max_size=reads)
        neg_betas = st.sampled_from((-0.0, -1e-9, -0.01, -1.0, -1e300))
        steps = st.tuples(st.integers(0, n - 1), uniforms, neg_betas)
        for i, uniform, neg_beta in data.draw(st.lists(steps, max_size=10)):
            start, trial = S.copy(), S.copy()
            trial[i] *= -1
            proposed = exact(trial)
            changes = [p - b for p, b in zip(proposed, before)]
            with np.errstate(over="ignore", under="ignore"):
                delta_e = sweep([i], np.array([uniform]), neg_beta).tolist()
                exponent = np.maximum(neg_beta * np.array(changes, dtype=float), -700.0)
                accept = (np.maximum(uniform, 0.0) < np.exp(exponent)).tolist()
            assert [int(d) for d in delta_e] == changes
            after = exact(S)
            assert after == [p if a else b for p, b, a in zip(proposed, before, accept)]
            assert np.array_equal(S, np.where(accept, trial, start))
            assert np.array_equal(X, 2 * kernel.residuals(S))
            assert kernel.energies(X) == after
            before = after


def reference_metropolis(model: IsingModel, reads: int, sweeps: int, betas, seed: int):
    """The Ising-only Metropolis loop that the residual kernel replaced:
    final states (reads x nvars) and energies."""
    n = model.nvars
    h = np.zeros(n, dtype=np.int64)
    for i, c in model.h.items():
        h[i] = c
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), c in model.J.items():
        neighbors[i].append((j, c))
        neighbors[j].append((i, c))
    nbr_idx = [np.array([x for x, _ in nb], dtype=np.int64) for nb in neighbors]
    nbr_val = [np.array([v for _, v in nb], dtype=np.int64) for nb in neighbors]

    gens = [solver._read_generator(seed, r) for r in range(reads)]
    perm_gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(solver._PERM_STREAM_KEY,))))
    S = np.stack([g.integers(0, 2, size=n).astype(np.int64) * 2 - 1 for g in gens])
    for t in range(sweeps):
        order = perm_gen.permutation(n)
        uniforms = np.stack([g.random(n) for g in gens])
        beta = betas[t]
        for step, i in enumerate(order):
            if nbr_idx[i].size:
                field = h[i] + (S[:, nbr_idx[i]] * nbr_val[i]).sum(axis=1)
            else:
                field = np.full(reads, h[i], dtype=np.int64)
            delta_e = -2 * S[:, i] * field
            accept = (delta_e <= 0) | (
                uniforms[:, step] < np.exp(np.clip(-beta * delta_e.astype(np.float64), -700.0, 0.0))
            )
            S[accept, i] *= -1

    energies = np.full(reads, model.offset, dtype=np.int64)
    energies += S @ h
    for (i, j), c in model.J.items():
        energies += c * S[:, i] * S[:, j]
    return S, energies


@pytest.fixture(scope="module")
def paper_ising_models():
    def chain(energy):
        return from_quadratic(quadratize(energy.spin_to_boolean())[0].boolean_to_spin())

    return {"W7": chain(williamson_energy(7)), "W9": chain(williamson_energy(9)),
            "T6": chain(turyn_energy(6)), "T12": chain(turyn_energy(12))}


class TestIsingMatchesReferenceLoop:
    @pytest.mark.parametrize("name", ["W7", "W9", "T6", "T12"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_states_and_energies(self, paper_ising_models, name, seed):
        model = paper_ising_models[name]
        reads, sweeps = 12, 30
        b0, b1 = solver.default_beta_range(model)
        betas = b0 * (b1 / b0) ** (np.arange(sweeps) / (sweeps - 1))
        S, energies = reference_metropolis(model, reads, sweeps, betas, seed)
        counts = {}
        for row, e in zip(S.tolist(), energies.tolist()):
            prev = counts.get(tuple(row), (e, 0))
            counts[tuple(row)] = (e, prev[1] + 1)
        expected = sorted(
            (Sample(values=v, energy=e, occurrences=c) for v, (e, c) in counts.items()),
            key=lambda s: (s.energy, s.value_string()),
        )
        got = anneal(model, reads=reads, sweeps=sweeps, seed=seed)
        assert got == SampleSet(domain=Domain.SPIN, samples=tuple(expected), reads=reads)


def reference_residual_metropolis(kernel, reads: int, sweeps: int, betas, seed: int):
    """The kernel loop before uniforms were drawn in blocks and the state
    became 2R: per-sweep uniforms, and the residuals R updated by a
    proposal that forms R + R + delta and u @ delta.  Final states
    (reads x nvars) and energies."""
    n = kernel.nvars
    gens = [solver._read_generator(seed, r) for r in range(reads)]
    perm_gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(solver._PERM_STREAM_KEY,))))
    S = kernel.states(np.array([g.integers(0, 2, size=n) * 2 - 1 for g in gens]).reshape(reads, n))
    R = kernel.residuals(S)
    drawn = np.empty((reads, n))
    for t in range(sweeps):
        order = perm_gen.permutation(n)
        for g, row in zip(gens, drawn):
            g.random(out=row)
        uniforms = drawn.T.copy()
        neg_beta = -betas[t]
        for step, i in enumerate(order):
            delta = kernel.flips[i] @ S
            delta *= S[i]
            change = R + R
            change += delta
            change *= delta
            delta_e = kernel.w @ change + kernel.u @ delta
            exponent = neg_beta * delta_e
            np.minimum(exponent, 0.0, out=exponent)
            np.maximum(exponent, -700.0, out=exponent)
            accept = uniforms[step] < np.exp(exponent, out=exponent)
            np.add(R, delta, out=R, where=accept)
            np.negative(S[i], out=S[i], where=accept)
    energies = kernel.offset + (kernel.u @ R + kernel.w @ (R * R)).astype(np.int64)
    return S[:n].T.astype(np.int64).tolist(), energies.tolist()


def int64_square_sum() -> SquareSum:
    """A sum of squares with energy bound in [2^52, 2^62): the int64 kernel."""
    residuals = SquareSum(3, (
        (3, spin({(0,): 2**26, (1,): 2**26 - 5, (0, 2): 7, (): 3})),
        (2, spin({(1, 2): 2**23, (2,): -(2**22), (0,): 1})),
    ))
    assert 2**52 <= solver._energy_bound(residuals) < 2**62
    return residuals


class TestResidualMatchesReferenceLoop:
    """`anneal` equals the per-sweep, residual-state loop it replaced, also
    when the uniforms of a run span several blocks and end in a partial one."""

    @pytest.fixture(scope="class")
    def models(self, paper_ising_models):
        return {"W7": williamson_residuals(7), "W9": williamson_residuals(9),
                "T6": turyn_residuals(6), "T12": turyn_residuals(12),
                "int64": int64_square_sum(),
                **{f"{name} Ising": m for name, m in paper_ising_models.items()}}

    @pytest.mark.parametrize("block_sweeps", [None, 4], ids=["default-block", "4-sweep-block"])
    @pytest.mark.parametrize("name", ["W7", "W9", "T6", "T12", "int64",
                                      "W7 Ising", "W9 Ising", "T6 Ising", "T12 Ising"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_sample_set(self, models, name, seed, block_sweeps):
        model = models[name]
        reads, sweeps = 7, 33
        kernel = solver._Kernel(model, solver._energy_bound(model))
        b0, b1 = solver.default_beta_range(model)
        betas = b0 * (b1 / b0) ** (np.arange(sweeps) / (sweeps - 1))
        states, energies = reference_residual_metropolis(kernel, reads, sweeps, betas, seed)
        counts = {}
        for row, e in zip(states, energies):
            prev = counts.get(tuple(row), (e, 0))
            counts[tuple(row)] = (e, prev[1] + 1)
        expected = sorted(
            (Sample(values=v, energy=e, occurrences=c) for v, (e, c) in counts.items()),
            key=lambda s: (s.energy, s.value_string()),
        )
        # 33 sweeps in blocks of 4: eight full blocks, then one of a single sweep
        block = solver._UNIFORM_BLOCK if block_sweeps is None else block_sweeps * reads * model.nvars
        with mock.patch.object(solver, "_UNIFORM_BLOCK", block):
            got = anneal(model, reads=reads, sweeps=sweeps, seed=seed)
        assert got == SampleSet(domain=Domain.SPIN, samples=tuple(expected), reads=reads)


class ZeroingGenerator:
    """A read's generator whose doubles are 0.0 at every 7th position of
    its stream, however many a call draws."""

    def __init__(self, gen: np.random.Generator):
        self.gen, self.drawn = gen, 0

    def integers(self, *args, **kwargs):
        return self.gen.integers(*args, **kwargs)

    def random(self, out: np.ndarray) -> np.ndarray:
        self.gen.random(out=out)
        out[-self.drawn % 7 :: 7] = 0.0
        self.drawn += out.size
        return out


class TestZeroUniforms:
    """A drawn 0.0 accepts every move, as under the reference loop's
    exponent floor of -700, also where exp(-beta dE) underflows to 0.0
    (exponents below -745, which beta 1 to 10 reaches on these models)."""

    @pytest.fixture(scope="class")
    def models(self, paper_ising_models):
        return {"int64": int64_square_sum(), "T12 Ising": paper_ising_models["T12"]}

    @pytest.mark.parametrize("block_sweeps", [None, 4], ids=["default-block", "4-sweep-block"])
    @pytest.mark.parametrize("name", ["int64", "T12 Ising"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_sample_set_as_reference(self, models, name, seed, block_sweeps):
        model = models[name]
        reads, sweeps, b0, b1 = 7, 33, 1.0, 10.0
        kernel = solver._Kernel(model, solver._energy_bound(model))
        betas = b0 * (b1 / b0) ** (np.arange(sweeps) / (sweeps - 1))
        real = solver._read_generator
        block = solver._UNIFORM_BLOCK if block_sweeps is None else block_sweeps * reads * model.nvars
        with mock.patch.object(solver, "_read_generator",
                               lambda seed, r: ZeroingGenerator(real(seed, r))):
            states, energies = reference_residual_metropolis(kernel, reads, sweeps, betas, seed)
            with mock.patch.object(solver, "_UNIFORM_BLOCK", block):
                got = anneal(model, reads=reads, sweeps=sweeps, beta_start=b0, beta_end=b1,
                             seed=seed)
        counts = {}
        for row, e in zip(states, energies):
            prev = counts.get(tuple(row), (e, 0))
            counts[tuple(row)] = (e, prev[1] + 1)
        expected = sorted(
            (Sample(values=v, energy=e, occurrences=c) for v, (e, c) in counts.items()),
            key=lambda s: (s.energy, s.value_string()),
        )
        assert got == SampleSet(domain=Domain.SPIN, samples=tuple(expected), reads=reads)


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

    @pytest.mark.parametrize("domain", [Domain.SPIN, Domain.BOOLEAN])
    def test_ground_samples_equal_constructed_ones(self, domain):
        sset = solver._ground_samples(np.array([6, 0, 5, 3]), 3, domain, -4)
        lo, hi = domain.values
        expected = [Sample(values=tuple(hi if (s >> i) & 1 else lo for i in range(3)),
                           energy=-4, occurrences=1) for s in (3, 5, 6, 0)]
        assert list(sset.samples) == expected
        assert [s.value_string() for s in sset.samples] == ["++-", "+-+", "-++", "---"]
        assert [s.value_string() for s in expected] == ["++-", "+-+", "-++", "---"]

    def test_export_format(self):
        a = Sample(values=(-1, 1), energy=-2, occurrences=3)
        b = Sample(values=(1, -1), energy=5, occurrences=1)
        sset = SampleSet(domain=Domain.SPIN, samples=(a, b), reads=4)
        assert sset.to_text() == "-2 3 -+\n5 1 +-\n"
