import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadsearch.polynom import (
    Domain,
    MultilinearPoly,
    poly_to_text,
    read_poly,
    write_poly,
)

from conftest import polynomials, random_assignment, random_poly

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
        with pytest.raises(ValueError):
            MultilinearPoly(SPIN, {(1, 1): 2})

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spoly({(0,): 1}).add(bpoly({(0,): 1}))
        with pytest.raises(ValueError):
            spoly({(0,): 1}).mul(bpoly({(0,): 1}))


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

    def test_explicit_nvars_must_cover_indices(self):
        p = spoly({(4,): 1})
        with pytest.raises(ValueError):
            write_poly(p, io.StringIO(), nvars=2)
