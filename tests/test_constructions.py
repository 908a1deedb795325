import itertools
from unittest import mock

import numpy as np
import pytest

from hadsearch import constructions as cons
from hadsearch.hadamard import circulant
from hadsearch.polynom import Domain, MultilinearPoly, SquareSum
from hadsearch.solver import exhaustive_min

from conftest import data_poly, williamson_offset_residuals

SPIN = Domain.SPIN


def spoly(terms):
    return MultilinearPoly(SPIN, terms)


def seq(*entries):
    """Symbolic sequence from +/-1 ints and ('v', i) / ('-v', i) markers."""
    out = []
    for e in entries:
        if e == 1:
            out.append(cons.plus())
        elif e == -1:
            out.append(cons.minus())
        else:
            sign, i = e
            out.append(cons.SymEntry(sign, i))
    return out


class TestNac:
    def test_constant_sequence_profile(self):
        x = seq(1, 1, 1, -1)
        values = [cons.nac(x, r).coeff(()) for r in range(4)]
        assert values == [4, 1, 0, -1]

    def test_symbolic_profile(self):
        w = seq(1, (1, 3), (1, 4))
        assert cons.nac(w, 0) == spoly({(): 3})
        assert cons.nac(w, 1) == spoly({(3,): 1, (3, 4): 1})
        assert cons.nac(w, 2) == spoly({(4,): 1})

    def test_profile_with_negated_shared_variable(self):
        y = seq(1, (1, 0), (-1, 0), -1)
        assert cons.nac(y, 0) == spoly({(): 4})
        assert cons.nac(y, 1) == spoly({(0,): 2, (): -1})
        assert cons.nac(y, 2) == spoly({(0,): -2})
        assert cons.nac(y, 3) == spoly({(): -1})

    def test_profile_with_two_variables(self):
        z = seq(1, (1, 1), (1, 2), 1)
        assert cons.nac(z, 1) == spoly({(1,): 1, (2,): 1, (1, 2): 1})
        assert cons.nac(z, 2) == spoly({(1,): 1, (2,): 1})
        assert cons.nac(z, 3) == spoly({(): 1})

    def test_zero_beyond_length(self):
        x = seq(1, -1, 1)
        assert cons.nac(x, 3).is_zero()
        assert cons.nac(x, 7).is_zero()

    def test_weighted_lag_sum_vanishes_at_top_lag(self):
        # at the top lag the four contributions cancel identically
        quad = cons.normalized_turyn_quadruple(4)
        parts = [
            cons.nac(list(s), 3).scale(w)
            for s, w in zip((quad.X, quad.Y, quad.Z, quad.W), (1, 1, 2, 2))
        ]
        total = MultilinearPoly.zero(SPIN)
        for p in parts:
            total = total.add(p)
        assert total.is_zero()


class TestWilliamsonEnergy:
    def test_variable_counts(self):
        for k, expect in ((3, 8), (5, 12), (7, 16), (9, 20), (11, 24)):
            assert cons.williamson_variable_count(k) == expect
            if k <= 7:
                assert cons.williamson_energy(k).nvars == expect

    def test_k3_matches_golden_expansion(self):
        assert cons.williamson_energy(3) == data_poly("williamson3_eks_golden.poly")

    def test_k3_value_at_all_plus_one(self):
        # 4 pair terms at 96, 6 quadruple terms at 48, constant 192
        p = cons.williamson_energy(3)
        assert p.evaluate({i: 1 for i in range(8)}) == 4 * 96 + 6 * 48 + 192

    def test_k3_is_scaled_square_of_offdiagonal_symbol(self):
        v = spoly({(): 4, (0, 1): 2, (2, 3): 2, (4, 5): 2, (6, 7): 2})
        assert cons.williamson_energy(3) == v.square().scale(6)

    def test_k9_leading_terms(self):
        p = cons.williamson_energy(9)
        assert p.coeff((0, 1)) == 432
        assert p.coeff((0, 2)) == 432
        assert p.coeff((0, 3)) == 288
        assert p.coeff((18, 19)) == 720
        assert p.coeff((16, 17, 18, 19)) == 432
        assert p.coeff(()) == 5760

    @pytest.mark.parametrize("k", range(3, 14, 2))
    def test_each_distinct_residual_once(self, k):
        """(k-1)/2 pairwise distinct non-constant residuals of weight 2k:
        the oracle's R_1..R_(k-1)/2, whose R_0 is 0 and R_d equals R_(k-d),
        with the same expansion."""
        residuals = cons.williamson_residuals(k)
        oracle = williamson_offset_residuals(k)
        polys = [r for _, r in residuals.terms]
        assert [w for w, _ in residuals.terms] == [2 * k] * ((k - 1) // 2)
        assert all(r.degree() == 2 for r in polys)
        assert len(set(polys)) == len(polys)
        R = [r for _, r in oracle.terms]
        assert R[0].is_zero()
        assert all(R[d] == R[k - d] for d in range(1, k))
        assert polys == R[1 : (k + 1) // 2]
        assert residuals.expand() == oracle.expand()

    def test_higher_orders_match_golden_expansions(self):
        for k in (5, 7, 9):
            assert cons.williamson_energy(k) == data_poly(f"williamson{k}_eks_golden.poly")

    def test_k5_boolean_image_matches_golden(self):
        image = cons.williamson_energy(5).spin_to_boolean()
        assert image == data_poly("williamson5_ekq_golden.poly")

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            cons.williamson_energy(4)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            cons.williamson_energy(1)

    def test_symbolic_matches_numeric_oracle(self, rng):
        # independent numeric oracle: build the circulant blocks and compute
        # sum of squared deviations of A^T A + ... from 4k I
        for k in (3, 5):
            p = cons.williamson_energy(k)
            n = cons.williamson_variable_count(k)
            for _ in range(20):
                values = [rng.choice((-1, 1)) for _ in range(n)]
                rows = cons.williamson_first_rows(k, values)
                V = sum(
                    np.asarray(circulant(r)).T @ np.asarray(circulant(r)) for r in rows
                )
                target = V - 4 * k * np.eye(k, dtype=np.int64)
                assert p.evaluate(dict(enumerate(values))) == int((target * target).sum())


def reference_autocorrelation_energy(seqs) -> MultilinearPoly:
    """Reference expansion: the square of each lag's weighted sum of
    `nac(...).scale(w)`, accumulated with `add`."""
    energy = MultilinearPoly.zero(SPIN)
    for r in range(1, max(len(s) for s in seqs)):
        lag = MultilinearPoly.zero(SPIN)
        for s, w in zip(seqs, (1, 1, 2, 2)):
            lag = lag.add(cons.nac(s, r).scale(w))
        energy = energy.add(lag.square())
    return energy


def weighted_lag_energy(X, Y, Z, W) -> int:
    """Numeric oracle: sum over lags r >= 1 of the squared weighted
    autocorrelation sum."""
    return sum(
        sum(w * cons.nac_values(s, r) for s, w in zip((X, Y, Z, W), (1, 1, 2, 2))) ** 2
        for r in range(1, len(X))
    )


class TestTurynEnergy:
    def test_symbolic_matches_numeric_oracle(self, rng):
        for n in (4, 6, 8):
            p = cons.turyn_energy(n)
            quad = cons.normalized_turyn_quadruple(n)
            for _ in range(20):
                values = [rng.choice((-1, 1)) for _ in range(p.nvars)]
                expect = weighted_lag_energy(*quad.values(values))
                assert p.evaluate(dict(enumerate(values))) == expect

    def test_n8_matches_golden_expansion(self):
        assert cons.turyn_energy(8) == data_poly("turyn8_eks_golden.poly")

    def test_matches_reference_expansion(self):
        for n in range(4, 13, 2):
            quad = cons.normalized_turyn_quadruple(n)
            assert cons.turyn_energy(n) == reference_autocorrelation_energy(quad.sequences())

    def test_variable_counts(self):
        assert cons.turyn_energy(4).nvars == 5
        assert cons.turyn_energy(6).nvars == 13
        assert cons.normalized_turyn_quadruple(8).free_variable_count == 21

    def test_ground_set_n4(self):
        sset = exhaustive_min(cons.turyn_energy(4), all_ground=True)
        assert sset.min_energy == 0
        assert [s.values for s in sset.samples] == [(-1, -1, -1, 1, 1)]

    def test_ground_states_are_exactly_the_tt_sequences(self):
        # both directions, exhaustively, for the smallest size
        p = cons.turyn_energy(4)
        for bits in range(1 << 5):
            values = [2 * ((bits >> i) & 1) - 1 for i in range(5)]
            energy = p.evaluate(dict(enumerate(values)))
            X, Y, Z, W = cons.normalized_turyn_quadruple(4).values(values)
            assert (energy == 0) == cons.check_tt(X, Y, Z, W)

    def test_n6_ground_states_exist_and_check(self):
        sset = exhaustive_min(cons.turyn_energy(6), all_ground=True)
        assert sset.min_energy == 0
        assert len(sset.samples) > 0
        for s in sset.samples:
            X, Y, Z, W = cons.normalized_turyn_quadruple(6).values(list(s.values))
            assert cons.check_tt(X, Y, Z, W)

    def test_odd_or_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            cons.turyn_energy(5)
        with pytest.raises(ValueError):
            cons.turyn_energy(2)

    def test_known_n8_solution_reaches_zero(self):
        # a known TT(8) quadruple laid out in the normalized variable order:
        # X middles, then Y, Z, W free entries
        values = [-1, 1, -1, 1] + [-1, 1, 1, 1, 1] + [-1, -1, 1, 1, 1, -1] + [-1, -1, -1, -1, -1, 1]
        p = cons.turyn_energy(8)
        assert p.nvars == 21
        assert p.evaluate(dict(enumerate(values))) == 0
        X, Y, Z, W = cons.normalized_turyn_quadruple(8).values(values)
        assert cons.check_tt(X, Y, Z, W)


REFERENCE_PROTOTYPE = "++****+-/+-****+-/+-****-+/+-****+"
REFERENCE_COMPLETION = (
    -1, 1, -1, 1,      # X middles
    1, 1, 1, 1,        # Y middles
    -1, 1, 1, 1,       # Z middles
    -1, -1, -1, -1,    # W middles
)


def reference_prototype_lines(n: int, m: int) -> list[str]:
    """Prototype lines by building the filled sides of every end filling
    through `SymEntry.value` and checking the high lags one by one."""
    quad = cons.normalized_turyn_quadruple(n)
    ends = [
        [e if p < m or p >= n - m else None for p, e in enumerate(seq)]
        for seq in quad.sequences()
    ]
    free = sorted({e.var for side in ends for e in side if e is not None and e.var is not None})
    lines = []
    for fill in itertools.product((1, -1), repeat=len(free)):
        values = dict(zip(free, fill))
        sides = [tuple(None if e is None else e.value(values) for e in side) for side in ends]
        if all(
            sum(w * sum(side[t] * side[t + r] for t in range(len(side) - r))
                for side, w in zip(sides, cons.TT_WEIGHTS)) == 0
            for r in range(n - m, n)
        ):
            lines.append(cons.PrototypeSpec(n, m, *sides).to_line())
    return lines


class TestPrototypes:
    def test_reference_prototype_passes_filter(self):
        proto = cons.PrototypeSpec.from_line(REFERENCE_PROTOTYPE, m=2)
        assert cons.prototype_filter(proto)

    def test_all_plus_ends_fail_at_top_lag(self):
        # m=1, all filled ends +1: lag-7 sum is 1 + 1 + 2 + 0 = 4
        proto = cons.PrototypeSpec(
            n=8, m=1,
            X=(1,) + (None,) * 6 + (1,),
            Y=(1,) + (None,) * 6 + (1,),
            Z=(1,) + (None,) * 6 + (1,),
            W=(1,) + (None,) * 6,
        )
        assert not cons.prototype_filter(proto)

    def test_enumeration_contains_reference_and_matches_brute_force(self):
        protos = list(cons.enumerate_prototypes(8, 2))
        lines = [p.to_line() for p in protos]
        assert REFERENCE_PROTOTYPE in lines
        assert len(lines) == len(set(lines))

        # independent recount: enumerate the five free end values directly
        def lag_sum(sides, r):
            total = 0
            for side, w in zip(sides, (1, 1, 2, 2)):
                total += w * sum(
                    side[t] * side[t + r] for t in range(max(0, len(side) - r))
                )
            return total

        count = 0
        for y1, z1, z6, w1, w6 in itertools.product((1, -1), repeat=5):
            X = [1, 1, 0, 0, 0, 0, 1, -1]
            Y = [1, y1, 0, 0, 0, 0, -y1, -1]
            Z = [1, z1, 0, 0, 0, 0, z6, 1]
            W = [1, w1, 0, 0, 0, 0, w6]
            if all(lag_sum((X, Y, Z, W), r) == 0 for r in (6, 7)):
                count += 1
        assert len(protos) == count

    def test_enumeration_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            list(cons.enumerate_prototypes(8, 0))
        with pytest.raises(ValueError):
            list(cons.enumerate_prototypes(8, 4))

    def test_m1_pins_everything_to_one_candidate(self):
        protos = list(cons.enumerate_prototypes(8, 1))
        assert len(protos) <= 1
        assert protos and protos[0].X[0] == 1 and protos[0].X[7] == -1

    def test_wider_ends_match_brute_force(self):
        # m=3 exercises the general free-slot layout (interior end positions)
        protos = list(cons.enumerate_prototypes(8, 3))
        lines = {p.to_line() for p in protos}
        assert len(lines) == len(protos)

        def lag_sum(sides, r):
            total = 0
            for side, w in zip(sides, (1, 1, 2, 2)):
                total += w * sum(
                    side[t] * side[t + r] for t in range(max(0, len(side) - r))
                )
            return total

        count = 0
        for fill in itertools.product((1, -1), repeat=13):
            x2, x5, y1, y2, y5, z1, z2, z5, z6, w1, w2, w5, w6 = fill
            X = [1, 1, x2, 0, 0, x5, 1, -1]
            Y = [1, y1, y2, 0, 0, y5, -y1, -1]
            Z = [1, z1, z2, 0, 0, z5, z6, 1]
            W = [1, w1, w2, 0, 0, w5, w6]
            if all(lag_sum((X, Y, Z, W), r) == 0 for r in (5, 6, 7)):
                count += 1
        assert len(protos) == count

    @pytest.mark.parametrize("chunk", [1 << 14, 7])
    def test_enumeration_matches_reference_loop(self, chunk):
        # a chunk of 7 fillings puts block boundaries inside every (n, m)
        with mock.patch.object(cons, "_FILL_CHUNK", chunk):
            for n, m in ((4, 1), (6, 1), (6, 2), (8, 1), (8, 2), (8, 3), (10, 2), (10, 3)):
                got = [p.to_line() for p in cons.enumerate_prototypes(n, m)]
                assert got == reference_prototype_lines(n, m), (n, m)

    def test_line_round_trip(self):
        proto = cons.PrototypeSpec.from_line(REFERENCE_PROTOTYPE, m=2)
        assert proto.to_line() == REFERENCE_PROTOTYPE


def residual_instances():
    for k in (3, 5, 7, 9, 11):
        yield f"W{k}", cons.williamson_residuals(k), None
    for n in range(4, 16, 2):
        yield f"T{n}", cons.turyn_residuals(n), cons.normalized_turyn_quadruple(n)
    for i, proto in enumerate(cons.enumerate_prototypes(8, 2)):
        yield f"X8/{i}", cons.extended_residuals(proto), proto.quadruple()


class TestResiduals:
    def test_residual_values_agree_with_expansion(self, rng):
        for name, residuals, quad in residual_instances():
            energy = residuals.expand()
            assert energy.nvars == residuals.nvars, name
            for _ in range(5):
                values = [rng.choice((-1, 1)) for _ in range(residuals.nvars)]
                R = residuals.residual_values(values)
                weighted = sum(w * r * r for (w, _), r in zip(residuals.terms, R))
                assert weighted == energy.evaluate(dict(enumerate(values))), name
                if quad is not None:  # the numeric Turyn lag sums
                    seqs = quad.values(values)
                    lags = [sum(w * cons.nac_values(q, r) for q, w in zip(seqs, cons.TT_WEIGHTS))
                            for r in range(1, quad.n)]
                    assert R == lags, name

    def test_unchecked_terms_equal_validated_ones(self):
        """Residuals are built unchecked from canonical keys; building every
        residual's blocks through the validating constructor instead gives
        the same residuals and energies, term order included."""
        def instances():
            for name, residuals, _ in residual_instances():
                yield name, residuals
            yield "W13", cons.williamson_residuals(13)
            yield "T16", cons.turyn_residuals(16)
            for m in (1, 3):
                for i, proto in enumerate(cons.enumerate_prototypes(8, m)):
                    yield f"X8/{m}/{i}", cons.extended_residuals(proto)

        def terms(residuals):
            return ([(w, list(r.terms.items())) for w, r in residuals.terms],
                    list(residuals.expand().terms.items()))

        fast = {name: terms(residuals) for name, residuals in instances()}
        validating = lambda terms: MultilinearPoly(Domain.SPIN, terms)._blocks
        with mock.patch.object(cons, "_canonical_blocks", validating):
            checked = {name: terms(residuals) for name, residuals in instances()}
        assert len(fast) > 30 and fast == checked

    def test_energies_are_the_expansions(self):
        assert cons.williamson_energy(5) == cons.williamson_residuals(5).expand()
        assert cons.turyn_energy(8) == cons.turyn_residuals(8).expand()
        proto = next(cons.enumerate_prototypes(8, 2))
        assert cons.extended_energy(proto) == cons.extended_residuals(proto).expand()

    @pytest.mark.parametrize("terms, message", [
        (((0, spoly({(0,): 1})),), "positive"),
        (((1, spoly({(0, 1, 2): 1})),), "quadratic"),
        (((1, MultilinearPoly(Domain.BOOLEAN, {(0,): 1})),), "quadratic"),
        (((1, spoly({(5,): 1})),), "nvars"),
    ], ids=["zero-weight", "cubic", "boolean", "past-nvars"])
    def test_malformed_square_sum_rejected(self, terms, message):
        with pytest.raises(ValueError, match=message):
            SquareSum(3, terms)

    def test_residual_values_need_every_variable(self):
        with pytest.raises(ValueError, match="need 8 values"):
            cons.williamson_residuals(3).residual_values([1] * 7)


class TestExtendedEnergy:
    def test_symbolic_matches_numeric_oracle(self, rng):
        protos = list(cons.enumerate_prototypes(8, 2))
        assert protos
        for proto in protos:
            p = cons.extended_energy(proto)
            quad = proto.quadruple()
            assert quad.free_variable_count == p.nvars == 16
            for _ in range(20):
                values = [rng.choice((-1, 1)) for _ in range(p.nvars)]
                expect = weighted_lag_energy(*quad.values(values))
                assert p.evaluate(dict(enumerate(values))) == expect

    def test_matches_reference_expansion(self):
        for m in (2, 3):
            protos = list(cons.enumerate_prototypes(8, m))
            assert protos
            for proto in protos:
                expect = reference_autocorrelation_energy(proto.quadruple().sequences())
                assert cons.extended_energy(proto) == expect

    def test_reference_prototype_energy_shape(self):
        proto = cons.PrototypeSpec.from_line(REFERENCE_PROTOTYPE, m=2)
        p = cons.extended_energy(proto)
        assert p.nvars == 16
        assert p.coeff((0,)) == -14
        assert p.coeff(()) == 264

    def test_reference_completion_has_zero_energy(self):
        proto = cons.PrototypeSpec.from_line(REFERENCE_PROTOTYPE, m=2)
        p = cons.extended_energy(proto)
        assert p.evaluate(dict(enumerate(REFERENCE_COMPLETION))) == 0

    def test_unfiltered_prototype_rejected(self):
        bad = cons.PrototypeSpec(
            n=8, m=1,
            X=(1,) + (None,) * 6 + (1,),
            Y=(1,) + (None,) * 6 + (1,),
            Z=(1,) + (None,) * 6 + (1,),
            W=(1,) + (None,) * 6,
        )
        with pytest.raises(ValueError):
            cons.extended_energy(bad)

    def test_filter_rejects_only_dead_branches(self):
        # for every candidate end filling: a failed filter means no middle
        # completion reaches zero energy (the filter only prunes dead branches)
        def middle_min_energy(proto) -> int:
            seqs = []
            idx = 0
            for side in proto.sides():
                entries = []
                for v in side:
                    if v is None:
                        entries.append(cons.plus(idx))
                        idx += 1
                    else:
                        entries.append(cons.plus() if v > 0 else cons.minus())
                seqs.append(entries)
            return exhaustive_min(reference_autocorrelation_energy(seqs)).min_energy

        rejected = 0
        for y1, z1, z6, w1, w6 in itertools.product((1, -1), repeat=5):
            proto = cons.PrototypeSpec(
                n=8, m=2,
                X=(1, 1, None, None, None, None, 1, -1),
                Y=(1, y1, None, None, None, None, -y1, -1),
                Z=(1, z1, None, None, None, None, z6, 1),
                W=(1, w1, None, None, None, None, w6),
            )
            if cons.prototype_filter(proto):
                continue
            rejected += 1
            assert middle_min_energy(proto) > 0
        assert rejected > 0


class TestPipeline:
    def run_pipeline(self, n, values):
        X, Y, Z, W = cons.normalized_turyn_quadruple(n).values(values)
        A, B, C, D = cons.base_sequences(X, Y, Z, W)
        T = cons.t_sequences(A, B, C, D)
        seeds = cons.seed_sequences(*T)
        return (X, Y, Z, W), (A, B, C, D), T, seeds

    def test_lengths_for_smallest_size(self):
        _, base, T, seeds = self.run_pipeline(4, [-1, -1, -1, 1, 1])
        assert [len(s) for s in base] == [7, 7, 4, 4]
        assert all(len(t) == 11 for t in T)
        assert all(len(s) == 11 for s in seeds)

    def test_concatenation_identity(self):
        (X, Y, Z, W), (A, B, _, _), _, _ = self.run_pipeline(4, [-1, -1, -1, 1, 1])
        for r in range(1, 7):
            assert cons.nac_values(A, r) + cons.nac_values(B, r) == 2 * (
                cons.nac_values(Z, r) + cons.nac_values(W, r)
            )

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            cons.base_sequences([1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1])

    def test_t_sequences_reconstruct_base(self):
        _, (A, B, _, _), (T1, T2, _, _), _ = self.run_pipeline(4, [-1, -1, -1, 1, 1])
        first = [t1 + t2 for t1, t2 in zip(T1, T2)][: len(A)]
        assert first == list(A)

    def test_t_sequence_zero_support_structure(self):
        _, _, T, _ = self.run_pipeline(4, [-1, -1, -1, 1, 1])
        for pos in range(11):
            assert sum(1 for t in T if t[pos] != 0) == 1
        for r in range(1, 11):
            assert sum(cons.nac_values(t, r) for t in T) == 0

    def test_seed_sequences_zero_sum(self):
        _, _, _, seeds = self.run_pipeline(4, [-1, -1, -1, 1, 1])
        assert all(all(v in (-1, 1) for v in s) for s in seeds)
        for r in range(1, 11):
            assert sum(cons.nac_values(s, r) for s in seeds) == 0

    def test_final_orders(self):
        for n, order in ((4, 44), (6, 68), (8, 92)):
            assert 4 * (3 * n - 1) == order
