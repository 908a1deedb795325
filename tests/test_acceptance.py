"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything asserts exact integer equality; the only tolerances are the
stated wall-clock budgets.
"""

import itertools
import random
import time

import numpy as np
import pytest

from hadsearch import cli
from hadsearch import constructions as cons
from hadsearch import hadamard as hm
from hadsearch.ising import IsingModel, from_quadratic
from hadsearch.polynom import Domain, MultilinearPoly
from hadsearch.quadratize import compute_delta, quadratize, substitute_pair
from hadsearch.solver import anneal, exhaustive_min

from conftest import data_poly, random_poly


def ok(label: str) -> None:
    print(f"\nACCEPTANCE {label}: PASS")


class TestCriterion1GoldenExpansion:
    def test_block_search_energy_matches_golden(self):
        start = time.perf_counter()
        energy = cons.williamson_energy(3)
        golden = data_poly("williamson3_eks_golden.poly")
        assert energy == golden
        assert energy.coeff((0, 1)) == 96
        assert energy.coeff((0, 1, 2, 3)) == 48
        assert energy.coeff(()) == 192
        assert time.perf_counter() - start < 1.0
        ok("1 golden expansion, order-12 block search")


class TestCriterion2GoldenTransformChain:
    def test_boolean_image_and_delta(self):
        start = time.perf_counter()
        ek_q = cons.williamson_energy(3).spin_to_boolean()
        golden = data_poly("williamson3_ekq_golden.poly")
        assert ek_q == golden
        assert ek_q.coeff((0, 1)) == 960
        assert ek_q.coeff((1,)) == -480
        assert ek_q.coeff(()) == 864
        assert compute_delta(ek_q) == 53952
        assert time.perf_counter() - start < 1.0
        ok("2 golden transform chain + delta 53,952")


class TestCriterion3ReferenceSubstitutionRound:
    def test_first_round_on_reference_fixture(self):
        fixture = data_poly("turyn4_ekq_reference.poly")
        assert fixture.abs_coeff_sum() == 908
        assert compute_delta(fixture) == 1816
        out = substitute_pair(fixture, 0, 1, 5, 1816)
        assert out.coeff((5,)) == 5464
        assert out.coeff((0, 5)) == -3632
        assert out.coeff((1, 5)) == -3632
        assert out.coeff((0, 1)) == 1816
        ok("3 reference substitution round (delta 1,816)")


SEARCH_TARGETS = [
    ("williamson", {"--k": 3}, 12),
    ("williamson", {"--k": 5}, 20),
    ("williamson", {"--k": 7}, 28),
    ("williamson", {"--k": 9}, 36),
    ("baumert-hall", {"--k": 3}, 36),
    ("baumert-hall", {"--k": 5}, 60),
    ("baumert-hall", {"--k": 7}, 84),
    ("baumert-hall", {"--k": 9}, 108),
    ("turyn", {"--n": 4}, 44),
    ("turyn", {"--n": 6}, 68),
    ("extended-turyn", {"--n": 8, "--m": 2}, 92),
]


class TestCriterion4EndToEndOrders:
    def test_all_orders_verify(self, tmp_path):
        start = time.perf_counter()
        for method, params, order in SEARCH_TARGETS:
            out = tmp_path / f"{method}-{order}"
            args = ["search", "--method", method, "--out", str(out)]
            for flag, value in params.items():
                args += [flag, str(value)]
            code = cli.main(args)
            assert code == 0, f"{method} order {order} search failed"
            H = hm.load_matrix(out / "matrix.txt")
            assert H.shape == (order, order)
            is_h, D = hm.verify(H)
            assert is_h
            assert np.array_equal(D, order * np.eye(order, dtype=np.int64))
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        ok(f"4 end-to-end orders 12..108 in {elapsed:.1f}s")

    def test_largest_block_search_reduction_constants(self):
        # schedule-independent facts of the order-108 reduction
        reduced, amap = quadratize(cons.williamson_energy(9).spin_to_boolean())
        assert amap.delta == 10545408
        assert len(amap.entries) == 40
        model = from_quadratic(reduced.boolean_to_spin())
        assert model.nvars == 60
        assert model.offset == 316483200
        ok("4a order-108 reduction constants")

    def test_ancilla_space_sanity_run_k9(self):
        # the one non-exhaustive search: anneal the quadratized 60-spin model
        # (params tuned so the fixed seed reaches the ground state)
        reduced, amap = quadratize(cons.williamson_energy(9).spin_to_boolean())
        model = from_quadratic(reduced.boolean_to_spin())
        sset = anneal(model, reads=1200, sweeps=300, seed=0)
        assert sset.min_energy == 0
        logical = cons.williamson_variable_count(9)
        energy = cons.williamson_energy(9)
        hits = 0
        for s in sset.samples:
            if s.energy != 0:
                break
            hits += s.occurrences
            bits = [(v + 1) // 2 for v in s.values]
            for a, (i, j) in amap.entries:
                assert bits[a] == bits[i] * bits[j]
            assert energy.evaluate(dict(enumerate(s.values[:logical]))) == 0
        assert hits >= 1
        ok(f"4b ancilla-space sanity run (k=9): {hits} ground reads")


REFERENCE_PROTOTYPE = "++****+-/+-****+-/+-****-+/+-****+"
REFERENCE_COMPLETION = (-1, 1, -1, 1, 1, 1, 1, 1, -1, 1, 1, 1, -1, -1, -1, -1)


class TestCriterion5ExtendedReproduction:
    def test_reference_completion_found_and_verified(self):
        proto = cons.PrototypeSpec.from_line(REFERENCE_PROTOTYPE, m=2)
        energy = cons.extended_energy(proto)
        assert energy.nvars == 16
        sset = exhaustive_min(energy, cap=16, all_ground=True)
        assert sset.min_energy == 0
        assert REFERENCE_COMPLETION in {s.values for s in sset.samples}
        X, Y, Z, W = proto.quadruple().values(REFERENCE_COMPLETION)
        seeds = cons.seed_sequences(*cons.t_sequences(*cons.base_sequences(X, Y, Z, W)))
        H = hm.goethals_seidel(*[hm.circulant(s) for s in seeds])
        is_h, _ = hm.verify(H)
        assert is_h and H.shape == (92, 92)
        ok("5 extended completion reproduced; order 92 verified")


class TestCriterion6QuadratizationSpectrum:
    def test_double_exhaustion_on_random_instances(self):
        start = time.perf_counter()
        rng = random.Random(20240131)
        checked = 0
        while checked < 200:
            poly = random_poly(
                rng, Domain.BOOLEAN, max_vars=6, max_degree=4, max_terms=10,
                coeff_range=(-50, 50),
            )
            if poly.is_zero():
                continue
            checked += 1
            reduced, amap = quadratize(poly)
            original = exhaustive_min(poly, cap=6)
            extended = exhaustive_min(reduced, cap=26, all_ground=True)
            assert extended.min_energy == original.min_energy
            for s in extended.samples:
                values = dict(enumerate(s.values))
                for a, (i, j) in amap.entries:
                    assert values[a] == values[i] * values[j]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        ok(f"6 spectrum preserved on 200 random reductions in {elapsed:.1f}s")


class TestCriterion7TransformBijection:
    def test_round_trip_and_pointwise_values(self):
        rng = random.Random(7)
        for _ in range(500):
            poly = random_poly(rng, Domain.SPIN, max_vars=6, max_degree=4, max_terms=8)
            image = poly.spin_to_boolean()
            assert image.boolean_to_spin() == poly
            for _ in range(100):
                bits = {i: rng.randint(0, 1) for i in range(6)}
                spins = {i: 2 * b - 1 for i, b in bits.items()}
                assert poly.evaluate(spins) == image.evaluate(bits)
        ok("7 transform bijection on 500 polynomials x 100 points")


class TestCriterion8PipelineOracle:
    def test_every_ground_state_passes_pipeline_postconditions(self):
        for n in (4, 6):
            sset = exhaustive_min(cons.turyn_energy(n), all_ground=True)
            assert sset.min_energy == 0
            for s in sset.samples:
                X, Y, Z, W = cons.normalized_turyn_quadruple(n).values(list(s.values))
                A, B, C, D = cons.base_sequences(X, Y, Z, W)
                for r in range(1, 2 * n - 1):
                    assert sum(cons.nac_values(q, r) for q in (A, B, C, D)) == 0
                T = cons.t_sequences(A, B, C, D)
                for pos in range(3 * n - 1):
                    assert sum(1 for t in T if t[pos] != 0) == 1
                seeds = cons.seed_sequences(*T)
                for r in range(1, 3 * n - 1):
                    assert sum(cons.nac_values(q, r) for q in seeds) == 0
        ok("8 pipeline postconditions for every ground state (n=4, 6)")


class TestCriterion9SolverConsistency:
    def test_anneal_never_undercuts_and_is_parallel_deterministic(self):
        rng = random.Random(99)
        for idx in range(50):
            h = {i: rng.randint(-9, 9) for i in range(12)}
            h = {i: c for i, c in h.items() if c}
            J = {}
            for i, j in itertools.combinations(range(12), 2):
                if rng.random() < 0.3:
                    c = rng.randint(-9, 9)
                    if c:
                        J[(i, j)] = c
            model = IsingModel(nvars=12, h=h, J=J, offset=rng.randint(-5, 5))
            exact = exhaustive_min(model).min_energy
            sset = anneal(model, reads=16, sweeps=150, seed=idx)
            assert sset.min_energy >= exact
            if idx < 5:
                # every read has its own (seed, read index) stream, so the
                # reads of a smaller batch are the first reads of a larger one
                head = anneal(model, reads=6, sweeps=150, seed=idx)
                counts = {s.values: s.occurrences for s in sset.samples}
                assert all(counts.get(s.values, 0) >= s.occurrences for s in head.samples)
        ok("9 anneal consistency on 50 instances; reads independent of batch size")
