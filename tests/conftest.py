import io
import os
import random

import pytest
from hypothesis import strategies as st

from hadsearch import constructions as cons
from hadsearch.polynom import Domain, MultilinearPoly, SquareSum, load_poly

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_poly(name: str) -> MultilinearPoly:
    return load_poly(os.path.join(DATA, name))


def random_poly(
    rng: random.Random,
    domain: Domain,
    max_vars: int = 6,
    max_degree: int = 4,
    max_terms: int = 10,
    coeff_range: tuple[int, int] = (-50, 50),
) -> MultilinearPoly:
    """Random multilinear polynomial for property tests."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, max_degree)
        mono = tuple(sorted(rng.sample(range(max_vars), size)))
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(*coeff_range)
        terms[mono] = coeff
    return MultilinearPoly(domain, terms)


@st.composite
def polynomials(
    draw,
    domain: Domain,
    max_vars: int,
    coeffs: st.SearchStrategy[int],
    max_degree: int = 5,
    max_terms: int = 12,
) -> MultilinearPoly:
    """Hypothesis strategy for multilinear polynomials over 1..max_vars variables."""
    nvars = draw(st.integers(1, max_vars))
    monomials = st.frozensets(st.integers(0, nvars - 1), max_size=min(nvars, max_degree))
    terms = draw(st.dictionaries(monomials, coeffs, max_size=max_terms))
    return MultilinearPoly(domain, {tuple(sorted(m)): c for m, c in terms.items()})


def williamson_offset_residuals(k: int) -> SquareSum:
    """Oracle of `williamson_residuals(k)`: one residual per diagonal offset
    of V = A^T A + B^T B + C^T C + D^T D, R_d = V_d - 4k [d = 0] for
    d = 0..k-1, each of weight k (the k cells of that offset), built by
    polynomial arithmetic from the symbolic first rows."""
    rows = [[MultilinearPoly.variable(Domain.SPIN, e.var, e.sign) for e in row]
            for row in cons._williamson_rows(k)]
    residuals = []
    for d in range(k):
        R = MultilinearPoly.constant(Domain.SPIN, -4 * k if d == 0 else 0)
        for row in rows:
            for t in range(k):
                R = R.add(row[t].mul(row[(t + d) % k]))
        residuals.append((k, R))
    return SquareSum(cons.williamson_variable_count(k), tuple(residuals))


def random_assignment(rng: random.Random, nvars: int, domain: Domain) -> dict[int, int]:
    lo, hi = domain.values
    return {i: rng.choice((lo, hi)) for i in range(nvars)}


class CountingWriter(io.StringIO):
    """A text buffer that counts its `write` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# The dict expansion that `SquareSum.expand` replaced, kept as its oracle.


def expanded_masks(model: SquareSum) -> dict[int, int]:
    """The expansion's coefficients keyed by monomial bitmask (bit i is
    variable i), zeros included: w * c1 * c2 summed into m1 XOR m2 over
    the term pairs of each residual, since s_i * s_i = 1."""
    acc: dict[int, int] = {}
    for w, residual in model.terms:
        items = [(sum(1 << v for v in m), c) for m, c in residual.terms.items()]
        for k, (m1, c1) in enumerate(items):
            acc[0] = acc.get(0, 0) + w * c1 * c1
            for m2, c2 in items[k + 1:]:
                acc[m1 ^ m2] = acc.get(m1 ^ m2, 0) + 2 * w * c1 * c2
    return acc


def mask_monomial(mask: int) -> tuple[int, ...]:
    """The variables of a monomial bitmask, read off its lowest set bits."""
    m = []
    while mask:
        low = mask & -mask
        m.append(low.bit_length() - 1)
        mask ^= low
    return tuple(m)


def dict_expansion(model: SquareSum) -> MultilinearPoly:
    """`model.expand()` as the oracle gives it, through the validating
    constructor."""
    return MultilinearPoly(Domain.SPIN, {mask_monomial(m): c
                                         for m, c in expanded_masks(model).items() if c})
