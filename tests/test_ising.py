import io
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadsearch.constructions import williamson_energy
from hadsearch.ising import (
    IsingModel,
    from_quadratic,
    normalize_for_export,
    read_ising,
    write_ising,
    write_normalized,
)
from hadsearch.polynom import Domain, MultilinearPoly
from hadsearch.quadratize import quadratize

from conftest import CountingWriter, polynomials, random_poly


def spoly(terms):
    return MultilinearPoly(Domain.SPIN, terms)


class TestFromQuadratic:
    def test_lossless_split(self):
        p = spoly({(0,): 912, (0, 1): 454, (): 8448})
        m = from_quadratic(p)
        assert m.h == {0: 912}
        assert m.J == {(0, 1): 454}
        assert m.offset == 8448

    def test_constant_only(self):
        m = from_quadratic(MultilinearPoly.constant(Domain.SPIN, 5))
        assert m.h == {} and m.J == {} and m.offset == 5

    def test_round_trip_identity(self, rng):
        for _ in range(30):
            p = random_poly(rng, Domain.SPIN, max_degree=2)
            assert from_quadratic(p).poly == p

    def test_cubic_rejected(self):
        with pytest.raises(ValueError):
            from_quadratic(spoly({(0, 1, 2): 1}))

    def test_boolean_rejected(self):
        with pytest.raises(ValueError):
            from_quadratic(MultilinearPoly(Domain.BOOLEAN, {(0,): 1}))

    @settings(max_examples=150, deadline=None)
    @given(p=polynomials(Domain.SPIN, max_vars=8, max_degree=2, max_terms=20,
                         coeffs=st.integers(-(2**70), 2**70)),
           extra=st.integers(0, 3))
    def test_unchecked_paths_match_validating_constructor(self, p, extra):
        # from_quadratic skips the constructor's checks; its model must
        # equal the one it builds, and the export must not depend on
        # `extra` spins past the polynomial's
        terms = p.terms
        h = {m[0]: c for m, c in terms.items() if len(m) == 1}
        J = {m: c for m, c in terms.items() if len(m) == 2}
        n = p.nvars + extra
        model = from_quadratic(p)
        assert model == IsingModel(p.nvars, h=h, J=J, offset=terms.get((), 0))
        ints = [model.nvars, model.offset, *model.h, *model.h.values(),
                *itertools.chain(*model.J), *model.J.values()]
        assert all(type(v) is int for v in ints)
        wide = IsingModel(n, h=h, J=J, offset=terms.get((), 0))
        if wide.max_abs_coeff():
            assert normalized_text(wide) == normalized_text(model)


class TestEnergy:
    def test_direct(self):
        m = IsingModel(nvars=2, h={1: 2}, J={(0, 1): -1})
        assert m.energy({0: 1, 1: 1}) == 1

    def test_partial_assignment_rejected(self):
        m = IsingModel(nvars=2, h={1: 2})
        with pytest.raises(ValueError):
            m.energy({1: 1})

    def test_matches_polynomial_evaluation(self, rng):
        for _ in range(20):
            p = random_poly(rng, Domain.SPIN, max_degree=2)
            m = from_quadratic(p)
            for _ in range(5):
                a = {i: rng.choice((-1, 1)) for i in range(m.nvars)}
                assert m.energy(a) == p.evaluate(a)

    def test_ground_energy_zero_for_quadratized_block_search(self):
        reduced, _ = quadratize(williamson_energy(3).spin_to_boolean())
        model = from_quadratic(reduced.boolean_to_spin())
        best = min(
            model.energy({i: 2 * ((b >> i) & 1) - 1 for i in range(model.nvars)})
            for b in range(1 << model.nvars)
        )
        assert best == 0


class TestValidation:
    def test_unordered_J_key_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(nvars=2, J={(1, 0): 1})

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(nvars=2, h={0: 0})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(nvars=2, h={2: 1})

    @pytest.mark.parametrize("kwargs, message", [
        (dict(h={1.0: 2}), "non-integer h entry 1.0: 2"),
        (dict(h={1: 2.5}), "non-integer h entry 1: 2.5"),
        (dict(h={1: Fraction(1, 2)}), "non-integer h entry 1: Fraction(1, 2)"),
        (dict(J={(0, 2.0): 1}), "non-integer J entry (0, 2.0): 1"),
        (dict(J={(0, 2): 0.5}), "non-integer J entry (0, 2): 0.5"),
        (dict(offset=0.25), "non-integer nvars 3 or offset 0.25"),
        (dict(h={1.0: 2.5}, J={(0, 2): 0.5}, offset=0.25), "non-integer nvars 3 or offset 0.25"),
        (dict(h={1.0: 2.5}, J={(0, 2): 0.5}), "non-integer h entry 1.0: 2.5"),
    ], ids=["h-index", "h-value", "h-fraction", "J-key", "J-value", "offset", "all", "h-and-J"])
    def test_non_integer_entry_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            IsingModel(3, **kwargs)

    def test_non_integer_nvars_rejected(self):
        with pytest.raises(ValueError, match=re.escape("non-integer nvars 3.0 or offset 0")):
            IsingModel(3.0, h={0: 1})

    def test_numpy_ints_stored_as_ints(self):
        h, J = {np.int64(1): np.int64(2**62)}, {(0, np.int8(2)): np.int64(2**62)}
        model = IsingModel(np.int64(3), h=h, J=J, offset=np.int64(4))
        assert model == IsingModel(3, h={1: 2**62}, J={(0, 2): 2**62}, offset=4)
        ints = [model.nvars, model.offset, *model.h, *model.h.values(),
                *itertools.chain(*model.J), *model.J.values()]
        assert all(type(v) is int for v in ints)
        assert model.energy({0: 1, 1: 1, 2: 1}) == 2**63 + 4  # no int64 wrap
        h[np.int64(0)] = 1
        assert model.h == {1: 2**62}


def normalized_text(model: IsingModel) -> str:
    buf = io.StringIO()
    write_normalized(model, buf)
    return buf.getvalue()


class TestNormalize:
    def test_single_field(self):
        m = IsingModel(nvars=1, h={0: 10})
        assert normalize_for_export(m) == 10
        assert normalized_text(m) == "# scale 10\nc 0\nh 0 1.0\n"

    def test_symmetric_model(self):
        m = IsingModel(nvars=2, h={0: -7, 1: 7})
        assert normalized_text(m) == "# scale 7\nc 0\nh 0 -1.0\nh 1 1.0\n"

    def test_williamson_k3_coupler_family(self):
        reduced, _ = quadratize(williamson_energy(3).spin_to_boolean())
        model = from_quadratic(reduced.boolean_to_spin())
        assert max(abs(c) for c in model.J.values()) == 26976
        scale = model.max_abs_coeff()
        assert normalize_for_export(model) == scale
        lines = normalized_text(model).splitlines()
        assert lines[0] == f"# scale {scale}"
        assert max(abs(float(line.split()[-1])) for line in lines[2:]) == 1

    def test_image_drops_offset_and_owns_its_coefficients(self):
        h, J = {0: 4, 1: -2}, {(0, 1): 8}
        model = IsingModel(nvars=2, h=h, J=J, offset=5)
        text = normalized_text(model)
        assert text == normalized_text(IsingModel(nvars=2, h=h, J=J))
        h[0], J[0, 1] = 1, 1
        assert normalized_text(model) == text == "# scale 8\nc 0\nh 0 0.5\nh 1 -0.25\nJ 0 1 1.0\n"

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize an all-zero model"):
            write_normalized(IsingModel(nvars=1, offset=3), io.StringIO())


class TestTextFormat:
    def test_round_trip(self):
        m = IsingModel(nvars=3, h={0: 912, 2: -5}, J={(0, 1): 454, (1, 2): -3}, offset=8448)
        buf = io.StringIO()
        write_ising(m, buf)
        again = read_ising(io.StringIO(buf.getvalue()))
        assert again == m

    def test_sorted_output(self):
        m = IsingModel(nvars=3, h={2: 1, 0: 2}, J={(1, 2): 1, (0, 1): 2})
        buf = io.StringIO()
        write_ising(m, buf)
        lines = buf.getvalue().splitlines()
        assert lines == ["c 0", "h 0 2", "h 2 1", "J 0 1 2", "J 1 2 1"]

    def test_decimal_coefficients_rejected(self):
        with pytest.raises(ValueError):
            read_ising(io.StringIO("c 0\nh 0 0.5\n"))

    @pytest.mark.parametrize("token", ["1_000", "+3", "\u0663"],
                             ids=["underscore", "plus-sign", "non-ascii-digit"])
    def test_int_accepted_only_in_ascii_decimal(self, token):
        with pytest.raises(ValueError, match=re.escape(f"non-integer value in 'c {token}'")):
            read_ising(io.StringIO(f"c {token}\nh 0 1\n"))

    def test_integer_past_conversion_limit_quotes_line(self):
        line = f"J 0 1 -{'9' * 4301}"
        with pytest.raises(ValueError, match=re.escape(f"integer of 4301 digits in '{line[:60]}...'")):
            read_ising(io.StringIO(f"c 0\n{line}\n"))

    @pytest.mark.parametrize("text", ["", "# scale 1\n\n"], ids=["empty", "comment-only"])
    def test_file_without_content_rejected(self, text):
        with pytest.raises(ValueError, match="empty Ising file"):
            read_ising(io.StringIO(text))

    def test_unordered_pair_rejected(self):
        with pytest.raises(ValueError):
            read_ising(io.StringIO("J 1 0 3\n"))

    @pytest.mark.parametrize("text", [
        "c 1\nh 0 1\nc 2\n",
        "h 0 1\nh 0 2\n",
        "J 0 1 1\nJ 0 1 1\n",
    ], ids=["offset", "field", "coupling"])
    def test_repeated_line_rejected(self, text):
        with pytest.raises(ValueError, match="duplicate"):
            read_ising(io.StringIO(text))

    def test_zero_lines_do_not_stretch_spin_count(self):
        m = read_ising(io.StringIO("c 0\nh 1 3\nh 3 0\nJ 0 1 2\nJ 1 4 0\n"))
        assert m == IsingModel(nvars=2, h={1: 3}, J={(0, 1): 2})

    def test_normalized_export_is_decimal(self):
        text = normalized_text(IsingModel(nvars=2, h={0: 5}, J={(0, 1): 10}))
        assert "h 0 0.5" in text
        assert "J 0 1 1.0" in text
        assert "c 0" in text


# The line-by-line writers the bulk `write_ising` and `write_normalized`
# replaced, kept verbatim: the current writers must give the same text.


def reference_write_ising(model: IsingModel, fp) -> None:
    fp.write(f"c {model.offset}\n")
    for i in sorted(model.h):
        fp.write(f"h {i} {model.h[i]}\n")
    for (i, j) in sorted(model.J):
        fp.write(f"J {i} {j} {model.J[(i, j)]}\n")


def reference_write_normalized(model: IsingModel, fp) -> None:
    scale = max(map(abs, [*model.h.values(), *model.J.values()]))
    h = {i: Fraction(c, scale) for i, c in model.h.items()}
    J = {k: Fraction(c, scale) for k, c in model.J.items()}
    fp.write(f"# scale {scale}\n")
    fp.write("c 0\n")
    for i in sorted(h):
        fp.write(f"h {i} {reference_decimal(h[i])}\n")
    for (i, j) in sorted(J):
        fp.write(f"J {i} {j} {reference_decimal(J[(i, j)])}\n")


# The writers before each section became one `%`: one f-string per line.


def per_line_write_ising(model: IsingModel, fp) -> None:
    h, J = model.h, model.J
    lines = [f"c {model.offset}\n"]
    lines += [f"h {i} {h[i]}\n" for i in sorted(h)]
    lines += [f"J {i} {j} {J[i, j]}\n" for i, j in sorted(J)]
    fp.write("".join(lines))


def per_line_write_normalized(model: IsingModel, fp) -> None:
    h, J = model.h, model.J
    scale = max(map(abs, [*h.values(), *J.values()]))
    text = {c: repr(c / scale) if c % scale else f"{c // scale}.0"
            for c in {*h.values(), *J.values()}}
    lines = [f"# scale {scale}\nc 0\n"]
    lines += [f"h {i} {text[h[i]]}\n" for i in sorted(h)]
    lines += [f"J {i} {j} {text[J[i, j]]}\n" for i, j in sorted(J)]
    fp.write("".join(lines))


def reference_decimal(x: Fraction) -> str:
    if x.denominator == 1:
        return f"{int(x)}.0"
    return repr(float(x))


def texts(write, obj) -> tuple[str, int]:
    """The text `write` gives for `obj` and its number of `write` calls."""
    buf = CountingWriter()
    write(obj, buf)
    return buf.getvalue(), buf.calls


@st.composite
def models(draw, coeffs: st.SearchStrategy[int], offsets=st.integers(-(2**70), 2**70)):
    nvars = draw(st.integers(1, 10))
    index = st.integers(0, nvars - 1)
    h = draw(st.dictionaries(index, coeffs.filter(bool), max_size=nvars))
    pairs = st.tuples(index, index).filter(lambda p: p[0] < p[1])
    J = draw(st.dictionaries(pairs, coeffs.filter(bool), max_size=20))
    return IsingModel(nvars=nvars, h=h, J=J, offset=draw(offsets))


@st.composite
def scaled_models(draw):
    """Models whose largest |coefficient| is `scale` = u * 2^e, up to 2^80
    and often past 2^53, holding one of +-scale, quotients that are dyadic
    (exactly representable) and quotients that do not terminate."""
    u = draw(st.one_of(st.integers(1, 999), st.integers(2**40, 2**60)))
    e = draw(st.integers(0, 80 - u.bit_length()))
    scale = u << e
    dyadic = st.integers(0, e).flatmap(
        lambda j: st.integers(1, 1 << j).map(lambda a: (scale >> j) * a))
    thirds = st.sampled_from([scale // 3, 2 * scale // 3]).filter(bool)
    magnitude = st.one_of(st.just(scale), dyadic, thirds, st.integers(1, scale))
    signed = st.builds(lambda c, sign: sign * c, magnitude, st.sampled_from([-1, 1]))
    model = draw(models(signed))
    top = draw(st.sampled_from([scale, -scale]))
    if draw(st.booleans()) or model.nvars == 1:
        h = {**model.h, 0: top}
        return IsingModel(model.nvars, h, model.J, model.offset), scale
    return IsingModel(model.nvars, model.h, {**model.J, (0, 1): top}, model.offset), scale


class TestWritersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(model=models(st.integers(-(2**70), 2**70)))
    @example(model=IsingModel(nvars=4, J={(0, 3): -(2**64), (1, 2): 2**63}, offset=-(2**63)))
    @example(model=IsingModel(nvars=3, h={0: 2**63 - 1, 2: -(2**63) - 1}, offset=2**70))
    @example(model=IsingModel(nvars=1))
    def test_integer_model(self, model):
        text, calls = texts(write_ising, model)
        assert text == texts(reference_write_ising, model)[0]
        assert text == texts(per_line_write_ising, model)[0]
        assert calls == 1

    @settings(max_examples=300, deadline=None)
    @given(case=scaled_models())
    @example(case=(IsingModel(nvars=3, J={(0, 1): 3, (1, 2): -2, (0, 2): 2**64}), 2**64))
    @example(case=(IsingModel(nvars=2, h={0: -3, 1: 2}, offset=7), 3))
    def test_normalized_export(self, case):
        model, scale = case
        assert normalize_for_export(model) == scale
        text, calls = texts(write_normalized, model)
        assert text.startswith(f"# scale {scale}\nc 0\n")
        assert text == texts(reference_write_normalized, model)[0]
        assert text == texts(per_line_write_normalized, model)[0]
        assert calls == 1

    @pytest.mark.parametrize("scale", [1, 3, 2**53 + 1, 3 * 2**60, 2**80])
    def test_normalized_edge_quotients(self, scale):
        cs = {scale, -scale, scale // 2, scale // 3, 1, -1, scale - 1}
        h = {i: c for i, c in enumerate(sorted(c for c in cs if c))}
        model = IsingModel(nvars=len(h) + 1, h=h, J={(0, len(h)): -scale})
        assert texts(write_normalized, model)[0] == texts(reference_write_normalized, model)[0]
