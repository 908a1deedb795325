"""Exact multilinear polynomial algebra over indexed binary variables.

A polynomial is a mapping from monomials to integer coefficients, tagged with
the domain of its variables: spin (values in {-1,+1}) or boolean ({0,1}).
A monomial is a strictly ascending tuple of variable indices; the empty tuple
is the constant monomial.  Multiplication reduces idempotently per domain
(s*s = 1 for spin, q*q = q for boolean), so no monomial ever repeats a
variable.  Coefficients are arbitrary-precision Python ints and every
operation is exact; zero coefficients are never stored, and the zero
polynomial has no terms.

The two domain transforms are value-preserving under the bijection
s = 2q - 1 (s=+1 <-> q=1): `spin_to_boolean` substitutes s_i = 2q_i - 1 and
`boolean_to_spin` substitutes q_i = (1 + s_i)/2.  Both expand each term over
its sub-monomials in exact integers; `boolean_to_spin` works scaled by 2^D,
D the degree, and requires every sum to divide back exactly.
"""

from __future__ import annotations

import enum
import itertools
from typing import IO, Callable, Iterable, Iterator, Mapping

Monomial = tuple[int, ...]
Assignment = Mapping[int, int]


class Domain(enum.Enum):
    SPIN = "spin"
    BOOLEAN = "boolean"

    @property
    def values(self) -> tuple[int, int]:
        return (-1, 1) if self is Domain.SPIN else (0, 1)


def _canonical_monomial(vars_: Iterable[int]) -> Monomial:
    m = tuple(sorted(vars_))
    if any(v < 0 for v in m):
        raise ValueError(f"negative variable index in monomial {m}")
    if any(a == b for a, b in zip(m, m[1:])):
        raise ValueError(f"repeated variable in monomial {m}")
    return m


def term_sort_key(monomial: Monomial) -> tuple[int, Monomial]:
    """Canonical term order: by monomial length, then lexicographic."""
    return (len(monomial), monomial)


class MultilinearPoly:
    """Immutable multilinear polynomial with exact integer coefficients."""

    __slots__ = ("domain", "_terms")

    def __init__(self, domain: Domain, terms: Mapping[Iterable[int], int] | None = None):
        self.domain = domain
        clean: dict[Monomial, int] = {}
        for m, c in (terms or {}).items():
            c = int(c)
            if c == 0:
                continue
            clean[_canonical_monomial(m)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain: Domain) -> "MultilinearPoly":
        return cls(domain)

    @classmethod
    def constant(cls, domain: Domain, value: int) -> "MultilinearPoly":
        return cls(domain, {(): value})

    @classmethod
    def variable(cls, domain: Domain, index: int, coeff: int = 1) -> "MultilinearPoly":
        return cls(domain, {(index,): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def coeff(self, monomial: Iterable[int]) -> int:
        return self._terms.get(_canonical_monomial(monomial), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((len(m) for m in self._terms), default=0)

    def variables(self) -> set[int]:
        return {v for m in self._terms for v in m}

    @property
    def nvars(self) -> int:
        """Dense variable count: one past the largest index used."""
        return max((m[-1] for m in self._terms if m), default=-1) + 1

    def abs_coeff_sum(self) -> int:
        return sum(abs(c) for c in self._terms.values())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda t: term_sort_key(t[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.domain is other.domain and self._terms == other._terms

    def __hash__(self):
        return hash((self.domain, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        shown = ", ".join(f"{m}: {c}" for m, c in self.sorted_terms()[:6])
        more = "" if len(self._terms) <= 6 else f", ... {len(self._terms)} terms"
        return f"MultilinearPoly({self.domain.value}, {{{shown}{more}}})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_domain(self, other: "MultilinearPoly") -> None:
        if self.domain is not other.domain:
            raise ValueError(
                f"domain mismatch: {self.domain.value} vs {other.domain.value}"
            )

    def add(self, other: "MultilinearPoly") -> "MultilinearPoly":
        self._require_same_domain(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultilinearPoly(self.domain, out)

    def scale(self, factor: int) -> "MultilinearPoly":
        if factor == 0:
            return MultilinearPoly(self.domain)
        return MultilinearPoly(self.domain, {m: c * factor for m, c in self._terms.items()})

    def neg(self) -> "MultilinearPoly":
        return self.scale(-1)

    def sub(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self.add(other.neg())

    def mul(self, other: "MultilinearPoly") -> "MultilinearPoly":
        """Distributed product with idempotent reduction per domain."""
        self._require_same_domain(other)
        spin = self.domain is Domain.SPIN
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            s1 = set(m1)
            for m2, c2 in other._terms.items():
                # s_i*s_i = 1 drops shared variables; q_i*q_i = q_i keeps them
                merged = s1 ^ set(m2) if spin else s1 | set(m2)
                m = tuple(sorted(merged))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultilinearPoly(self.domain, out)

    def square(self) -> "MultilinearPoly":
        return self.mul(self)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Assignment) -> int:
        """Exact value at a total assignment over this polynomial's variables.

        Extra variables in the assignment are ignored; a missing variable or
        a value outside the domain is rejected.
        """
        allowed = self.domain.values
        cache: dict[int, int] = {}
        for v in self.variables():
            if v not in assignment:
                raise ValueError(f"assignment missing variable {v}")
            val = assignment[v]
            if val not in allowed:
                raise ValueError(
                    f"value {val} for variable {v} outside {self.domain.value} domain"
                )
            cache[v] = val
        total = 0
        for m, c in self._terms.items():
            prod = c
            for v in m:
                prod *= cache[v]
            total += prod
        return total

    # -- domain transforms -------------------------------------------------

    def spin_to_boolean(self) -> "MultilinearPoly":
        """Substitute s_i = 2 q_i - 1 and reduce.  Value-preserving."""
        if self.domain is not Domain.SPIN:
            raise ValueError("spin_to_boolean requires a spin polynomial")
        # prod_{v in m} (2 q_v - 1) = sum_{S within m} 2^|S| (-1)^(|m|-|S|) q_S
        out = _expand_subsets(
            self._terms, lambda d, k: (1 << k) * (-1 if (d - k) % 2 else 1)
        )
        return MultilinearPoly(Domain.BOOLEAN, out)

    def boolean_to_spin(self) -> "MultilinearPoly":
        """Substitute q_i = (1 + s_i)/2; the halves must cancel to integers."""
        if self.domain is not Domain.BOOLEAN:
            raise ValueError("boolean_to_spin requires a boolean polynomial")
        # prod_{v in m} (1 + s_v)/2 = 2^-|m| sum_{S within m} s_S; scale by 2^D
        top = self.degree()
        scaled = _expand_subsets(self._terms, lambda d, k: 1 << (top - d))
        terms: dict[Monomial, int] = {}
        for mm, cc in scaled.items():
            if cc % (1 << top):
                raise ValueError(
                    f"non-integral coefficient {cc}/2^{top} for monomial {mm}: "
                    "input is not an integral image of a spin polynomial"
                )
            terms[mm] = cc >> top
        return MultilinearPoly(Domain.SPIN, terms)


def _expand_subsets(
    terms: Mapping[Monomial, int], weight: Callable[[int, int], int]
) -> dict[Monomial, int]:
    """Sum c * weight(|m|, |S|) into S for every term c * m and every S within m."""
    out: dict[Monomial, int] = {}
    table: dict[int, list[int]] = {}
    for m, c in terms.items():
        d = len(m)
        if d not in table:
            table[d] = [weight(d, k) for k in range(d + 1)]
        for k, w in enumerate(table[d]):
            cw = c * w
            for sub in itertools.combinations(m, k):
                out[sub] = out.get(sub, 0) + cw
    return out


# -- text format ------------------------------------------------------------
#
# line 1: `domain spin|boolean`
# line 2: `nvars <N>`
# then one term per line: `<coeff> <i1> <i2> ...` (ascending indices;
# the constant term has no indices).  `#` begins a comment line.


def write_poly(poly: MultilinearPoly, fp: IO[str], nvars: int | None = None) -> None:
    n = poly.nvars if nvars is None else nvars
    if n < poly.nvars:
        raise ValueError(f"nvars {n} smaller than largest index in polynomial")
    fp.write(f"domain {poly.domain.value}\n")
    fp.write(f"nvars {n}\n")
    for m, c in poly.sorted_terms():
        fp.write(" ".join([str(c)] + [str(v) for v in m]) + "\n")


def poly_to_text(poly: MultilinearPoly, nvars: int | None = None) -> str:
    import io

    buf = io.StringIO()
    write_poly(poly, buf, nvars=nvars)
    return buf.getvalue()


def read_poly(fp: IO[str]) -> MultilinearPoly:
    """Parse the text format; reject a non-integer token or a negative `nvars`."""
    lines = _content_lines(fp)
    try:
        head = next(lines)
    except StopIteration:
        raise ValueError("empty polynomial file") from None
    if len(head) != 2 or head[0] != "domain" or head[1] not in ("spin", "boolean"):
        raise ValueError(f"bad domain line: {' '.join(head)!r}")
    domain = Domain.SPIN if head[1] == "spin" else Domain.BOOLEAN
    try:
        nv = next(lines)
    except StopIteration:
        raise ValueError("missing nvars line") from None
    if len(nv) != 2 or nv[0] != "nvars" or (nvars := _parse_int(nv[1], " ".join(nv))) < 0:
        raise ValueError(f"bad nvars line: {' '.join(nv)!r}")
    terms: dict[Monomial, int] = {}
    for tok in lines:
        line = " ".join(tok)
        coeff = _parse_int(tok[0], line)
        m = _canonical_monomial(_parse_int(v, line) for v in tok[1:])
        if m and m[-1] >= nvars:
            raise ValueError(f"variable {m[-1]} out of range for nvars {nvars}")
        if m in terms:
            raise ValueError(f"duplicate term for monomial {m}")
        terms[m] = coeff
    return MultilinearPoly(domain, terms)


def load_poly(path) -> MultilinearPoly:
    with open(path, encoding="utf-8") as fp:
        return read_poly(fp)


def save_poly(poly: MultilinearPoly, path, nvars: int | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        write_poly(poly, fp, nvars=nvars)


def _parse_int(token: str, line: str) -> int:
    """An integer token of a model file line (polynomial or Ising)."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"non-integer value in {line!r}; solvers take the exact integer model"
        ) from None


def _content_lines(fp: IO[str]) -> Iterator[list[str]]:
    for raw in fp:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()
