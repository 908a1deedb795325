import io
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadsearch import constructions as cons
from hadsearch import polynom
from hadsearch.polynom import (
    Domain,
    MultilinearPoly,
    SquareSum,
    _canonical_monomial,
    _subset_sums,
    poly_to_text,
    read_poly,
    write_poly,
)
from hadsearch.quadratize import quadratize

from conftest import (CountingWriter, dict_expansion, expanded_masks, polynomials,
                      random_assignment, random_poly)

SPIN = Domain.SPIN
BOOL = Domain.BOOLEAN


def spoly(terms):
    return MultilinearPoly(SPIN, terms)


def bpoly(terms):
    return MultilinearPoly(BOOL, terms)


class TestBasics:
    def test_additive_inverse_gives_zero(self):
        p = spoly({(0,): 2})
        assert p.add(p.neg()).is_zero()

    def test_like_terms_merge(self):
        a = spoly({(0, 1): 1, (): 3})
        b = spoly({(0, 1): 1})
        assert a.add(b) == spoly({(0, 1): 2, (): 3})

    def test_zero_coefficients_never_stored(self):
        p = spoly({(0,): 5}).add(spoly({(0,): -5}))
        assert p.terms == {}

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError, match=re.escape("repeated variable in monomial (1, 1)")):
            MultilinearPoly(SPIN, {(1, 1): 2})

    @pytest.mark.parametrize("monomial", [(2, -1), (-1, -1)],
                             ids=["negative", "negative-repeated"])
    def test_negative_variable_rejected(self, monomial):
        message = f"negative variable index in monomial {tuple(sorted(monomial))}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MultilinearPoly(SPIN, {monomial: 2})

    def test_unsorted_monomial_is_sorted(self):
        p = bpoly({(3, 0, 2): 5, (1, 0): 2, (4,): 1, (): 7})
        assert p.terms == {(0, 2, 3): 5, (0, 1): 2, (4,): 1, (): 7}
        assert p.coeff((2, 3, 0)) == 5

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spoly({(0,): 1}).add(bpoly({(0,): 1}))
        with pytest.raises(ValueError):
            spoly({(0,): 1}).mul(bpoly({(0,): 1}))

    @pytest.mark.parametrize("coeff", [2.7, 2.0, Fraction(5, 2), np.float64(3.0)],
                             ids=["float", "integral-float", "fraction", "numpy-float"])
    def test_non_integer_coefficient_rejected(self, coeff):
        message = f"non-integer coefficient {coeff!r} for monomial (2, 0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            MultilinearPoly(SPIN, {(2, 0): coeff, (1,): 1})

    def test_python_and_numpy_ints_accepted_as_ints(self):
        p = spoly({(0,): np.int64(-3), (1,): np.int8(2), (2,): 2**70, (3,): np.uint64(0)})
        assert p.terms == {(0,): -3, (1,): 2, (2,): 2**70}
        assert all(type(c) is int for c in p.terms.values())

    def test_scale_past_int64_is_exact(self):
        p = spoly({(0,): 2**62, (): -(2**62)})
        assert p.scale(np.int64(4)) == spoly({(0,): 2**64, (): -(2**64)})
        assert p.scale(np.int32(-1)) == p.neg()

    @pytest.mark.parametrize("factor", [0.5, 2.0, Fraction(1, 2)])
    def test_non_integer_scale_rejected(self, factor):
        with pytest.raises(ValueError, match=re.escape(f"non-integer scale factor {factor!r}")):
            spoly({(0,): 4}).scale(factor)

    @pytest.mark.parametrize("terms, message", [
        ({(1, 1): 0}, "repeated variable in monomial (1, 1)"),
        ({(-1,): 0}, "negative variable index in monomial (-1,)"),
        ({(1, 1): 0, (-1,): 0}, "repeated variable in monomial (1, 1)"),
    ], ids=["repeated", "negative", "both"])
    def test_bad_monomial_rejected_with_zero_coefficient(self, terms, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MultilinearPoly(SPIN, terms)

    @pytest.mark.parametrize("terms", [
        {(0, 1): 1, (1, 0): 2},
        {(0, 1): 0, (1, 0): 2},
        {(1, 0): 3, (0, 1): 0},
    ], ids=["both-nonzero", "first-zero", "second-zero"])
    def test_keys_naming_one_monomial_rejected(self, terms):
        with pytest.raises(ValueError) as parsed:
            read_poly(io.StringIO("domain spin\nnvars 2\n1 0 1\n2 1 0\n"))
        assert str(parsed.value) == "duplicate term for monomial (0, 1)"
        with pytest.raises(ValueError, match=re.escape(str(parsed.value))):
            MultilinearPoly(SPIN, terms)

    @pytest.mark.parametrize("monomial", [(1.0, 2), (np.float64(0),), (Fraction(1),)],
                             ids=["float", "numpy-float", "fraction"])
    def test_non_integer_index_rejected(self, monomial):
        message = f"non-integer variable index in monomial {monomial!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MultilinearPoly(SPIN, {monomial: 1})

    def test_numpy_indices_stored_as_ints(self):
        p = spoly({(np.int64(2), np.int8(0)): 3})
        assert p.terms == {(0, 2): 3}
        assert all(type(v) is int for m in p.terms for v in m)


class TestMul:
    def test_spin_square_is_one(self):
        s0 = MultilinearPoly.variable(SPIN, 0)
        assert s0.mul(s0) == MultilinearPoly.constant(SPIN, 1)

    def test_boolean_square_is_idempotent(self):
        q0 = MultilinearPoly.variable(BOOL, 0)
        assert q0.mul(q0) == q0

    def test_cross_term_reduction(self):
        # (s3 + s3 s4)^2 = 2 + 2 s4
        p = spoly({(3,): 1, (3, 4): 1})
        assert p.square() == spoly({(): 2, (4,): 2})

    def test_square_of_zero(self):
        assert MultilinearPoly.zero(SPIN).square().is_zero()

    def test_mul_commutative_and_associative(self, rng):
        for _ in range(40):
            a = random_poly(rng, SPIN)
            b = random_poly(rng, SPIN)
            c = random_poly(rng, SPIN)
            assert a.mul(b) == b.mul(a)
            assert a.mul(b).mul(c) == a.mul(b.mul(c))
        for _ in range(40):
            a = random_poly(rng, BOOL)
            b = random_poly(rng, BOOL)
            c = random_poly(rng, BOOL)
            assert a.mul(b) == b.mul(a)
            assert a.mul(b).mul(c) == a.mul(b.mul(c))

    def test_multilinearity_preserved(self, rng):
        for _ in range(50):
            p = random_poly(rng, SPIN).mul(random_poly(rng, SPIN))
            for mono in p.terms:
                assert len(set(mono)) == len(mono)


class TestEvaluate:
    def test_empty_polynomial_evaluates_to_zero(self):
        assert MultilinearPoly.zero(SPIN).evaluate({}) == 0

    def test_constant(self):
        assert MultilinearPoly.constant(BOOL, 7).evaluate({}) == 7

    def test_extra_variables_ignored(self):
        p = spoly({(0,): 2})
        assert p.evaluate({0: 1, 5: -1}) == 2

    def test_missing_variable_rejected(self):
        with pytest.raises(ValueError):
            spoly({(0, 1): 1}).evaluate({0: 1})

    def test_out_of_domain_value_rejected(self):
        with pytest.raises(ValueError):
            spoly({(0,): 1}).evaluate({0: 0})
        with pytest.raises(ValueError):
            bpoly({(0,): 1}).evaluate({0: -1})

    def test_abs_coeff_sum_bounds_evaluation(self, rng):
        for domain in (SPIN, BOOL):
            for _ in range(30):
                p = random_poly(rng, domain)
                a = random_assignment(rng, 6, domain)
                assert abs(p.evaluate(a)) <= p.abs_coeff_sum()


class TestTransforms:
    def test_pair_expansion(self):
        p = spoly({(0, 1): 1})
        assert p.spin_to_boolean() == bpoly({(0, 1): 4, (0,): -2, (1,): -2, (): 1})

    def test_constant_passthrough(self):
        assert MultilinearPoly.constant(SPIN, 9).spin_to_boolean() == MultilinearPoly.constant(BOOL, 9)

    def test_boolean_to_spin_inverse_of_pair_expansion(self):
        p = bpoly({(0, 1): 4, (0,): -2, (1,): -2, (): 1})
        assert p.boolean_to_spin() == spoly({(0, 1): 1})

    def test_round_trip_identity(self, rng):
        for _ in range(60):
            p = random_poly(rng, SPIN)
            assert p.spin_to_boolean().boolean_to_spin() == p

    def test_value_preservation_both_ways(self, rng):
        for _ in range(30):
            p = random_poly(rng, SPIN)
            q = p.spin_to_boolean()
            for _ in range(10):
                bits = random_assignment(rng, 6, BOOL)
                spins = {i: 2 * b - 1 for i, b in bits.items()}
                assert p.evaluate(spins) == q.evaluate(bits)

    def test_wrong_domain_rejected(self):
        with pytest.raises(ValueError):
            bpoly({(0,): 1}).spin_to_boolean()
        with pytest.raises(ValueError):
            spoly({(0,): 1}).boolean_to_spin()

    def test_non_integral_image_rejected(self):
        # (1 + s0)/2 is not an integer polynomial
        with pytest.raises(ValueError):
            bpoly({(0,): 1}).boolean_to_spin()


def transform_weight(p: MultilinearPoly):
    """The weight of `p`'s domain transform and the shift that divides its
    sums back: s_i = 2q_i - 1, or q_i = (1 + s_i)/2 scaled by 2^D."""
    if p.domain is SPIN:
        return (lambda d, k: (1 << k) * (-1 if (d - k) % 2 else 1)), 0
    top = p.degree()
    return (lambda d, k: 1 << (top - d)), top


def subset_oracle(p: MultilinearPoly) -> dict:
    """The terms of `p`'s domain transform, summed one subset at a time."""
    weight, shift = transform_weight(p)
    sums: dict = {}
    for m, c in p.terms.items():
        for k in range(len(m) + 1):
            for sub in itertools.combinations(m, k):
                sums[sub] = sums.get(sub, 0) + c * weight(len(m), k)
    assert all(c % (1 << shift) == 0 for c in sums.values())
    return {m: c >> shift for m, c in sums.items() if c}


def transform(p: MultilinearPoly) -> MultilinearPoly:
    return p.spin_to_boolean() if p.domain is SPIN else p.boolean_to_spin()


# Inputs whose bound abs_coeff_sum * 2^D is 2^63 - 1 and 2^63 (constants),
# and 2^63 - 4 and 2^63 (degree 2, abs_coeff_sum 2^61 - 1 and 2^61); the
# boolean ones of degree 2 are integral images (4 | q01 and 2 | q0).
BOUNDARY = {
    "const-int64": ((2**63 - 1, True), [spoly({(): 2**63 - 1}), bpoly({(): 2**63 - 1})]),
    "const-object": ((2**63, False), [spoly({(): 2**63}), bpoly({(): 2**63})]),
    "quadratic-int64": ((2**63 - 4, True), [spoly({(0, 1): 2**61 - 3, (0,): -1, (): 1}),
                                            bpoly({(0, 1): 2**61 - 4, (0,): 2, (): 1})]),
    "quadratic-object": ((2**63, False), [spoly({(0, 1): 2**61 - 2, (0,): -1, (): 1}),
                                          bpoly({(0, 1): 2**61 - 4, (0,): 2, (): 2})]),
}


class TestTransformArithmetic:
    """The transforms sum in int64 where abs_coeff_sum * 2^D is below 2^63
    and in Python ints past it; both sides of that line equal the
    per-subset oracle and store Python ints."""

    @pytest.mark.parametrize("case", BOUNDARY.values(), ids=BOUNDARY.keys())
    def test_int64_boundary(self, case):
        (bound, exact), polys = case
        for p in polys + [p.neg() for p in polys]:
            assert p.abs_coeff_sum() << p.degree() == bound
            weight, _ = transform_weight(p)
            dtypes = {sums.dtype for _, _, sums in _subset_sums(p, weight)}
            assert dtypes == {np.dtype(np.int64 if exact else object)}
            out = transform(p)
            assert out.terms == subset_oracle(p)
            assert all(type(c) is int for c in out.terms.values())

    def test_index_past_int64(self):
        p = spoly({(1, 2**64, 2**65): 3, (2**64,): -1, (): 2})
        assert p.spin_to_boolean().terms == subset_oracle(p)
        assert p.spin_to_boolean().boolean_to_spin() == p

    @pytest.mark.parametrize("top", [2**21 - 2, 2**21 - 1], ids=["int64-keys", "object-keys"])
    def test_subset_key_dtype_line(self, top, monkeypatch):
        # a degree-4 polynomial over top + 1 variables keys its 3-subsets
        # as three base-(top + 1) digits: int64 while (top + 1)^3 < 2^63,
        # that is top < 2^21 - 1, and Python ints from there on
        kinds = []

        def spy(keys, values):
            kinds.append(keys.dtype)
            return keyed_sums(keys, values)

        keyed_sums = polynom._keyed_sums
        monkeypatch.setattr(polynom, "_keyed_sums", spy)
        p = spoly({(0, 5, top - 1, top): 3, (1, 5, top - 1, top): -2, (1, 5, top): 7,
                   (5, top): -1, (top,): 4, (): -6})
        image = p.spin_to_boolean()
        back = image.boolean_to_spin()
        # k = 1, 2, 3 one way, then the other
        wide = np.dtype(np.int64 if top < 2**21 - 1 else object)
        assert kinds == [np.dtype(np.int64), np.dtype(np.int64), wide] * 2
        assert image.terms == subset_oracle(p)
        assert back.terms == subset_oracle(image)
        assert back == p

    @pytest.mark.parametrize("case", BOUNDARY.values(), ids=BOUNDARY.keys())
    def test_block_output_at_the_boundary(self, case):
        # the output is its blocks alone, int64 on one side of the bound and
        # Python ints past it; the writer and `terms` read them exactly
        (bound, exact), polys = case
        for p in polys + [p.neg() for p in polys]:
            out = transform(p)
            dtypes = {coefs.dtype for _, coefs in out._blocks}
            assert dtypes == {np.dtype(np.int64 if exact else object)}
            expected = MultilinearPoly(out.domain, subset_oracle(p))
            assert poly_to_text(out) == reference_poly_text(expected)
            assert out.terms == expected.terms
            assert all(type(c) is int for c in out.terms.values())

    def test_block_output_past_int64_indices(self):
        p = spoly({(1, 2**64, 2**65): 3, (2**64,): -1, (3,): 5, (): 2})
        out = p.spin_to_boolean()
        expected = MultilinearPoly(BOOL, subset_oracle(p))
        assert poly_to_text(out) == reference_poly_text(expected)
        assert out.nvars == 2**65 + 1 and out.degree() == 3
        assert all(type(v) is int for m in out.terms for v in m)

    @pytest.mark.parametrize("domain", [SPIN, BOOL])
    def test_lone_degree_18_monomial(self, domain):
        m = tuple(range(18))
        c = -3 if domain is SPIN else 5 << 18  # an integral image takes 2^18 | c
        alone = MultilinearPoly(domain, {m: c})
        assert transform(alone).terms == subset_oracle(alone)
        p = MultilinearPoly(domain, {m: c, (): 7})
        tracemalloc.start()
        try:
            out = transform(p)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.terms == subset_oracle(p)
        assert all(type(c) is int for c in out.terms.values())
        # Beyond the 2^18 terms the result keeps, the reduction holds one
        # degree's arrays at a time: at k = 9 the (9, C(18, 9)) int64 index
        # array is 3.5 MB, the combinations and the decoded digits are each
        # that size, and the keys, the keyed sum's sorted copy and each
        # gathered row a ninth of it; the term dict's last resize frees an
        # old table of about 5 MB.
        # Holding every degree's arrays at once would add 18.9 MB a copy.
        one_degree = math.comb(18, 9) * 9 * 8
        assert peak - kept < 4 * one_degree + (6 << 20)


WIDE = st.integers(-(2**70), 2**70)


def spin_polys():
    return polynomials(SPIN, max_vars=8, coeffs=WIDE)


class TestTransformProperties:
    """Spin polynomials of up to 8 variables, degree <= 5, |c| <= 2^70."""

    @settings(max_examples=100, deadline=None)
    @given(p=spin_polys())
    def test_round_trip(self, p):
        assert p.spin_to_boolean().boolean_to_spin() == p

    @settings(max_examples=100, deadline=None)
    @given(p=spin_polys())
    def test_values_agree_at_every_point(self, p):
        q = p.spin_to_boolean()
        for state in range(1 << 8):
            bits = {i: (state >> i) & 1 for i in range(8)}
            assert q.evaluate(bits) == p.evaluate({i: 2 * b - 1 for i, b in bits.items()})

    @settings(max_examples=100, deadline=None)
    @given(q=st.one_of(
        polynomials(BOOL, max_vars=8, coeffs=WIDE),
        # multiples of 8 are often integral images at low degree
        polynomials(BOOL, max_vars=8, coeffs=st.integers(-4, 4).map(lambda c: 8 * c)),
        spin_polys().map(MultilinearPoly.spin_to_boolean),
    ))
    def test_boolean_to_spin_is_exact_or_rejects(self, q):
        try:
            p = q.boolean_to_spin()
        except ValueError:
            return
        assert p.spin_to_boolean() == q


class TestMeasures:
    def test_abs_coeff_sum_includes_constant(self):
        assert spoly({(): -3, (0,): 2}).abs_coeff_sum() == 5

    def test_abs_coeff_sum_of_zero(self):
        assert MultilinearPoly.zero(BOOL).abs_coeff_sum() == 0

    def test_degree(self):
        assert MultilinearPoly.zero(SPIN).degree() == 0
        assert MultilinearPoly.constant(SPIN, 4).degree() == 0
        assert MultilinearPoly.variable(SPIN, 0).degree() == 1
        assert spoly({(0, 1, 2, 3): 1, (0,): 2}).degree() == 4


@st.composite
def square_sums(draw, coeffs=st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40)),
                weights=st.integers(1, 5)):
    nvars = draw(st.integers(1, 6))
    residuals = st.tuples(weights,
                          polynomials(SPIN, max_vars=nvars, coeffs=coeffs, max_degree=2))
    return SquareSum(nvars, tuple(draw(st.lists(residuals, max_size=4))))


def assert_same_blocks(model: SquareSum) -> None:
    """The expansion's canonical blocks equal the dict expansion's, array
    for array: int64 index arrays, and coefficients of the dtype of
    `model.coefficients`, which is object only past its int64 bound."""
    a, b = model.expand()._blocks, dict_expansion(model)._blocks
    assert len(a) == len(b)
    for (i1, c1), (i2, c2) in zip(a, b):
        assert i1.dtype == i2.dtype == np.int64 and c1.dtype == model.coefficients.dtype
        assert np.array_equal(i1, i2) and c1.tolist() == c2.tolist()


class TestSquareSum:
    @settings(max_examples=100, deadline=None)
    @given(model=square_sums())
    def test_expansion_is_the_weighted_sum_of_products(self, model):
        expected = MultilinearPoly.zero(SPIN)
        for w, residual in model.terms:
            expected = expected.add(residual.mul(residual).scale(w))
        assert model.expand() == expected
        masks = expanded_masks(model)
        assert {m: c for m, c in masks.items() if c} == {
            sum(1 << v for v in m): c for m, c in expected.terms.items()
        }

    @pytest.mark.parametrize("name", [*(f"W{k}" for k in (3, 5, 7, 9, 11, 13)),
                                      *(f"T{n}" for n in (4, 6, 8, 10, 12))])
    def test_blocks_are_those_of_the_dict_expansion(self, name):
        build = cons.williamson_residuals if name[0] == "W" else cons.turyn_residuals
        model = build(int(name[1:]))
        assert_same_blocks(model)

    @settings(max_examples=200, deadline=None)
    @given(model=square_sums(
        coeffs=st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40)),
        weights=st.one_of(st.integers(1, 5), st.integers(2**62 - 3, 2**62 + 3),
                          st.integers(2**63 - 3, 2**63 + 3))))
    @example(model=SquareSum(1, ((2**62, spoly({(0,): 1})),)))
    @example(model=SquareSum(2, ((2**61, spoly({(0,): 1, (1,): 1})),)))
    @example(model=SquareSum(2, ((2**63, spoly({})), (1, spoly({(0, 1): 1})))))
    def test_array_and_expansion_across_the_int64_bound(self, model):
        bound = sum(w * r.abs_coeff_sum() ** 2 for w, r in model.terms)
        weights = [w for w, _ in model.terms]
        small = max([bound, *weights]) < 2**63
        assert model.coefficients.dtype == (np.int64 if small else object)
        assert model.weights.tolist() == weights
        for (w, residual), table in zip(model.terms, model.coefficients.tolist()):
            n = model.nvars
            laid = {(i, j): c for i, row in enumerate(table) for j, c in enumerate(row) if c}
            assert laid == {(*m, n, n)[:2]: c for m, c in residual.terms.items()}
        assert_same_blocks(model)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), model=square_sums(
        weights=st.one_of(st.integers(1, 5), st.integers(2**62 - 3, 2**62 + 3))))
    def test_residual_values_evaluate_each_residual(self, data, model):
        values = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=model.nvars,
                                    max_size=model.nvars))
        got = model.residual_values(values)
        assert got == [r.evaluate(dict(enumerate(values))) for _, r in model.terms]
        assert all(type(v) is int for v in got)

    def test_residual_values_reject_non_spin_values(self):
        model = SquareSum(2, ((1, spoly({(0,): 1})),))
        with pytest.raises(ValueError, match="value 0 for variable 1 outside spin domain"):
            model.residual_values([1, 0])

    @pytest.mark.parametrize("weight", [1.5, 3.0, Fraction(3, 2), np.float64(2.0)],
                             ids=["float", "integral-float", "fraction", "numpy-float"])
    def test_non_integer_weight_rejected(self, weight):
        with pytest.raises(ValueError, match=re.escape(f"non-integer residual weight {weight!r}")):
            SquareSum(2, ((1, spoly({(0,): 1})), (weight, spoly({(0,): 1, (1,): 1}))))

    @pytest.mark.parametrize("nvars", [2.5, 2.0, Fraction(2)],
                             ids=["float", "integral-float", "fraction"])
    def test_non_integer_nvars_rejected(self, nvars):
        with pytest.raises(ValueError, match=re.escape(f"non-integer nvars {nvars!r}")):
            SquareSum(nvars, ((1, spoly({(0,): 1, (1,): 1})),))

    def test_numpy_ints_stored_as_ints(self):
        # (2 s0 + s1)^2 = 5 + 4 s0 s1; an int64 weight of 2^62 would wrap
        model = SquareSum(np.int64(2), ((np.int64(2**62), spoly({(0,): 2, (1,): 1})),))
        assert type(model.nvars) is int and type(model.terms[0][0]) is int
        expanded = model.expand()
        assert expanded == spoly({(): 5 * 2**62, (0, 1): 2**64})
        assert all(type(c) is int for c in expanded.terms.values())
        assert model == SquareSum(2, ((2**62, spoly({(0,): 2, (1,): 1})),))


SMALL_OR_WIDE = st.one_of(st.integers(-3, 3), WIDE)  # small ones cancel often


def assert_canonical(p: MultilinearPoly) -> None:
    """`p` stores what the validating constructor would: canonical
    monomials and nonzero Python int coefficients."""
    for m, c in p.sorted_terms():
        assert m == _canonical_monomial(m)
        assert type(c) is int and c != 0
    assert p == MultilinearPoly(p.domain, p.terms)


def shape(p: MultilinearPoly):
    return p.nvars, p.degree(), p.sorted_terms()


def assert_cached_shape(make) -> None:
    """The `nvars`, `degree()` and `sorted_terms()` of an output of `make`
    are those of a fresh copy and of a scan of its terms, read before and
    after `write_poly`, and when `write_poly` reads them first."""
    p = make()
    terms = p.terms
    expected = (
        max((max(m) + 1 for m in terms if m), default=0),
        max((len(m) for m in terms), default=0),
        sorted(terms.items(), key=lambda t: (len(t[0]), t[0])),
    )
    assert shape(p) == expected
    text = poly_to_text(p)
    assert shape(p) == expected
    assert shape(MultilinearPoly(p.domain, terms)) == expected
    written_first = make()
    assert poly_to_text(written_first) == text
    assert shape(written_first) == expected


@st.composite
def same_domain_pairs(draw):
    domain = draw(st.sampled_from([SPIN, BOOL]))
    polys = polynomials(domain, max_vars=6, coeffs=SMALL_OR_WIDE)
    return draw(polys), draw(polys)


class TestOutputsStayCanonical:
    """Arithmetic, the transforms, `SquareSum.expand` and `quadratize` skip
    the constructor's checks; each output must still pass them, and its
    cached shape must be that of a fresh copy."""

    @settings(max_examples=200, deadline=None)
    @given(pair=same_domain_pairs(),
           k=st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(np.int64)))
    def test_algebra(self, pair, k):
        p, r = pair
        for out in (p.add(r), p.sub(r), p.mul(r), p.scale(k)):
            assert_canonical(out)

    @settings(max_examples=200, deadline=None)
    @given(p=polynomials(SPIN, max_vars=6, coeffs=SMALL_OR_WIDE),
           q=polynomials(BOOL, max_vars=6, coeffs=SMALL_OR_WIDE))
    def test_transforms_and_quadratize(self, p, q):
        image = p.spin_to_boolean()
        assert_canonical(image)
        assert_canonical(image.boolean_to_spin())
        try:
            assert_canonical(q.boolean_to_spin())
        except ValueError:
            pass  # not an integral image
        for b in (image, q):
            if not b.is_zero():
                assert_canonical(quadratize(b)[0])

    @settings(max_examples=200, deadline=None)
    @given(model=square_sums(coeffs=st.integers(-2, 2)))
    # s0 * -s2 and s1 s2 * s0 s1 cancel in s0 s2
    @example(model=SquareSum(3, ((1, spoly({(0,): 1, (2,): -1, (0, 1): 1, (1, 2): 1})),)))
    def test_square_sum_expansion(self, model):
        assert_canonical(model.expand())

    @settings(max_examples=100, deadline=None)
    @given(pair=same_domain_pairs(), k=st.integers(-3, 3),
           p=polynomials(SPIN, max_vars=6, coeffs=SMALL_OR_WIDE),
           q=polynomials(BOOL, max_vars=6, coeffs=SMALL_OR_WIDE),
           model=square_sums(coeffs=st.integers(-2, 2)))
    def test_cached_shape_is_that_of_a_fresh_copy(self, pair, k, p, q, model):
        a, b = pair
        image = p.spin_to_boolean()
        makers = [lambda: a.add(b), lambda: a.sub(b), lambda: a.mul(b), lambda: a.scale(k),
                  p.spin_to_boolean, image.boolean_to_spin, model.expand]
        try:
            q.boolean_to_spin()
            makers.append(q.boolean_to_spin)
        except ValueError:
            pass  # not an integral image
        makers += [lambda r=r: quadratize(r)[0] for r in (image, q) if not r.is_zero()]
        for make in makers:
            assert_cached_shape(make)

    @settings(max_examples=200, deadline=None)
    @given(p=polynomials(SPIN, max_vars=8, coeffs=SMALL_OR_WIDE, max_degree=6, max_terms=20),
           constant=st.none() | SMALL_OR_WIDE)
    @example(p=spoly({(0, 1, 2, 3, 4, 5): 3, (2,): -1}), constant=None)
    @example(p=spoly({(0, 1): 1, (0,): -2}), constant=5)
    def test_expand_subsets_matches_every_subset(self, p, constant):
        terms = {m: c for m, c in p.terms.items() if m}
        if constant:
            terms[()] = constant
        p = MultilinearPoly(p.domain, terms)
        top = p.degree()
        for weight in (lambda d, k: (1 << k) * (-1 if (d - k) % 2 else 1),
                       lambda d, k: 1 << (top - d)):
            expected: dict = {}
            for m, c in terms.items():
                for k in range(len(m) + 1):
                    for sub in itertools.combinations(m, k):
                        expected[sub] = expected.get(sub, 0) + c * weight(len(m), k)
            out: dict = {}
            for k, cols, sums in _subset_sums(p, weight):
                keys = [tuple(col) for col in cols.T.tolist()]
                assert keys == sorted(set(keys)) and all(len(m) == k for m in keys)
                out.update(zip(keys, sums.tolist()))
            assert {m: c for m, c in out.items() if c} == {
                m: c for m, c in expected.items() if c}
            assert set(expected) <= set(out)


class TestStorage:
    def test_blocks_are_the_only_form(self):
        assert MultilinearPoly.__slots__ == ("domain", "_blocks", "_nvars")

    @settings(max_examples=200, deadline=None)
    @given(p=st.one_of(
        polynomials(SPIN, max_vars=8, coeffs=st.integers(-(2**63), 2**63 - 1)),
        polynomials(BOOL, max_vars=8, coeffs=st.one_of(st.integers(-3, 3), WIDE)),
        st.sampled_from([MultilinearPoly.zero(SPIN), MultilinearPoly.zero(BOOL)])),
        data=st.data())
    def test_equality_and_hash_read_terms_not_storage(self, p, data):
        """The constructor, a written and read copy and blocks of int64 or
        dtype object coefficients give equal polynomials of equal hash."""
        terms, blocks = p.terms, p._blocks
        copies = [MultilinearPoly(p.domain, terms), read_poly(io.StringIO(poly_to_text(p))),
                  MultilinearPoly._from_blocks(p.domain, [
                      (idx, np.array(coefs.tolist(), object)) for idx, coefs in blocks])]
        if all(-(2**63) <= c < 2**63 for c in terms.values()):
            copies.append(MultilinearPoly._from_blocks(p.domain, [
                (idx, coefs.astype(np.int64)) for idx, coefs in blocks]))
        for q in copies:
            assert q == p and hash(q) == hash(p)
        m = data.draw(st.sampled_from(sorted(terms) or [()]))
        changed = MultilinearPoly(p.domain, {**terms, m: terms.get(m, 0) + 1})
        assert all(q != changed for q in copies)


class TestTextFormat:
    def test_round_trip(self, rng):
        for domain in (SPIN, BOOL):
            p = random_poly(rng, domain)
            text = poly_to_text(p)
            assert read_poly(io.StringIO(text)) == p

    def test_canonical_term_order(self):
        text = poly_to_text(spoly({(2,): 1, (0, 1): 2, (): 3, (0,): 4}))
        lines = text.splitlines()[2:]
        assert lines == ["3", "4 0", "1 2", "2 0 1"]

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\ndomain spin\nnvars 2\n\n5 0 1  # inline\n"
        assert read_poly(io.StringIO(text)) == spoly({(0, 1): 5})

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            read_poly(io.StringIO("domain ternary\nnvars 1\n1 0\n"))

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ValueError):
            read_poly(io.StringIO("domain spin\nnvars 1\n1 3\n"))

    def test_negative_nvars_rejected(self):
        with pytest.raises(ValueError, match="nvars -3"):
            read_poly(io.StringIO("domain spin\nnvars -3\n"))

    def test_non_integer_nvars_quotes_line(self):
        with pytest.raises(ValueError, match="non-integer value in 'nvars 2.0'"):
            read_poly(io.StringIO("domain spin\nnvars 2.0\n1 0\n"))

    def test_non_integer_coefficient_quotes_line(self):
        with pytest.raises(ValueError, match="non-integer value in '1.5 0 1'"):
            read_poly(io.StringIO("domain spin\nnvars 2\n1.5 0 1\n"))

    def test_non_integer_index_quotes_line(self):
        with pytest.raises(ValueError, match="non-integer value in '3 0 x1'"):
            read_poly(io.StringIO("domain spin\nnvars 2\n3 0 x1\n"))

    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"],
                             ids=["underscore", "plus-sign", "non-ascii-digit"])
    def test_int_accepted_only_in_ascii_decimal(self, token):
        line = f"{token} 0 1"
        with pytest.raises(ValueError, match=re.escape(f"non-integer value in '{line}'")):
            read_poly(io.StringIO(f"domain spin\nnvars 2\n{line}\n"))

    def test_integer_past_conversion_limit_quotes_line(self):
        line = f"{'7' * 5000} 0 1"
        with pytest.raises(ValueError, match=re.escape(f"integer of 5000 digits in '{line[:60]}...'")):
            read_poly(io.StringIO(f"domain spin\nnvars 2\n{line}\n"))

    @pytest.mark.parametrize("line, message", [
        ("5 2 -1", "negative variable index in monomial (-1, 2)"),
        ("5 1 0 1", "repeated variable in monomial (0, 1, 1)"),
    ], ids=["negative", "repeated"])
    def test_bad_monomial_rejected(self, line, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            read_poly(io.StringIO(f"domain spin\nnvars 3\n{line}\n"))

    def test_declared_nvars_is_kept(self):
        # equality and hashing read the terms, not the declared count
        text = "domain spin\nnvars 10\n1 4\n"
        p, used = read_poly(io.StringIO(text)), spoly({(4,): 1})
        assert (p.nvars, used.nvars) == (10, 5) and poly_to_text(p) == text
        assert p == used and hash(p) == hash(used)
        # both transforms keep it
        image = p.spin_to_boolean()
        assert poly_to_text(image) == "domain boolean\nnvars 10\n-1\n2 4\n"
        assert poly_to_text(image.boolean_to_spin()) == text

    def test_unsorted_indices_read_sorted(self):
        p = read_poly(io.StringIO("domain boolean\nnvars 3\n5 2 0 1\n-4 1 0\n"))
        assert p.terms == {(0, 1, 2): 5, (0, 1): -4}


def reference_write_poly(poly, fp):
    """The line-by-line writer the bulk `write_poly` replaced, kept verbatim
    apart from the sort, which inlines the old `term_sort_key` order so the
    reference does not read the order under test, and the `nvars` keyword,
    which both writers dropped."""
    fp.write(f"domain {poly.domain.value}\n")
    fp.write(f"nvars {poly.nvars}\n")
    for m, c in sorted(poly.terms.items(), key=lambda t: (len(t[0]), t[0])):
        fp.write(" ".join([str(c)] + [str(v) for v in m]) + "\n")


def reference_poly_text(poly):
    buf = io.StringIO()
    reference_write_poly(poly, buf)
    return buf.getvalue()


def per_line_write_poly(poly, fp):
    """The writer before each degree group became one `%`: one `%` per term,
    with the order's two full sorts inlined."""
    terms = poly.terms
    lines = [f"domain {poly.domain.value}\nnvars {poly.nvars}\n"]
    for d, group in itertools.groupby(sorted(sorted(terms), key=len), len):
        line = "%d" + " %d" * d + "\n"
        lines += [line % (terms[m], *m) for m in group]
    fp.write("".join(lines))


def per_line_poly_text(poly):
    buf = io.StringIO()
    per_line_write_poly(poly, buf)
    return buf.getvalue()


def written_polys():
    """Both domains, degree <= 6, |c| <= 2^70, plus the zero and a
    constant-only polynomial."""
    return st.one_of(
        polynomials(SPIN, max_vars=9, coeffs=WIDE, max_degree=6, max_terms=40),
        polynomials(BOOL, max_vars=9, coeffs=WIDE, max_degree=6, max_terms=40),
        st.sampled_from([MultilinearPoly.zero(SPIN), MultilinearPoly.zero(BOOL)]),
        st.builds(MultilinearPoly.constant, st.sampled_from([SPIN, BOOL]), WIDE),
    )


class TestWriterMatchesReference:
    @pytest.mark.parametrize("values, dtype", [
        ((2**63 - 1, -(2**63), -(2**63 - 1)), np.int64),
        ((2**63, -(2**63) - 1, 1), object),
    ], ids=["int64", "object"])
    def test_blocks_at_the_int64_boundary(self, values, dtype):
        # one degree's coefficients as one array: int64 where all fit
        a, b, c = values
        p = bpoly({(0, 1): a, (1, 2): b, (0, 2): c, (): 1})
        assert p._blocks[1][1].dtype == np.dtype(dtype)
        assert poly_to_text(p) == reference_poly_text(p)
        assert p.sorted_terms()[1:] == [((0, 1), a), ((0, 2), c), ((1, 2), b)]
        assert all(type(c) is int for _, c in p.sorted_terms())

    @settings(max_examples=300, deadline=None)
    @given(p=written_polys())
    @example(p=MultilinearPoly.zero(SPIN))
    @example(p=spoly({(): -(2**64), (0, 3, 5): 2**63, (1, 2, 4, 6): -1}))
    @example(p=bpoly({(0,): 2**63 - 1, (0, 1, 2, 3, 4): -(2**63) - 1}))
    def test_same_text_in_one_write(self, p):
        buf = CountingWriter()
        write_poly(p, buf)
        assert buf.getvalue() == reference_poly_text(p)
        assert buf.getvalue() == per_line_poly_text(p)
        assert buf.calls == 1

    @settings(max_examples=100, deadline=None)
    @given(p=written_polys())
    def test_sorted_terms_in_canonical_order(self, p):
        assert p.sorted_terms() == sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0]))
