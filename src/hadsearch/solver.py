"""Ground-state search: exhaustive enumeration and simulated annealing.

Exhaustive enumeration evaluates a polynomial on all 2^n states at once as a
transform of its coefficient vector, indexed by monomial bitmask: the
unnormalised Walsh-Hadamard (Sylvester) transform for spin polynomials, the
subset-sum (zeta) transform for boolean ones.  Each costs O(n 2^n) int64
operations, exact while the absolute coefficients sum below 2^63, and runs
in chunks of 2^22 states over the high bits so memory stays bounded.

Annealing is single-flip Metropolis on an Ising model with a geometric
inverse-temperature ladder, vectorised over reads.  Every read draws its
start state and acceptance uniforms from a stream derived from
(seed, read index), and each sweep's flip order comes from one dedicated
stream, so a fixed seed gives byte-identical samples.  Fields and energies
are int64, exact while the absolute coefficients sum below 2^62.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .ising import IsingModel
from .polynom import Domain, MultilinearPoly

_CHUNK_BITS = 22  # exhaustive enumeration block size: 2^22 states at a time
_PERM_STREAM_KEY = 1 << 32  # spawn key for the shared flip-order stream


@dataclass(frozen=True)
class Sample:
    values: tuple[int, ...]
    energy: int
    occurrences: int

    def value_string(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.values)


@dataclass(frozen=True)
class SampleSet:
    domain: Domain
    samples: tuple[Sample, ...]
    reads: int

    def __post_init__(self):
        if sum(s.occurrences for s in self.samples) != self.reads:
            raise ValueError("sample occurrences must sum to reads")
        keys = [(s.energy, s.value_string()) for s in self.samples]
        if keys != sorted(keys):
            raise ValueError("samples must be sorted by (energy, value string)")

    @property
    def min_energy(self) -> int:
        if not self.samples:
            raise ValueError("empty sample set")
        return self.samples[0].energy

    def best(self) -> Sample:
        if not self.samples:
            raise ValueError("empty sample set")
        return self.samples[0]

    def to_text(self) -> str:
        return "".join(
            f"{s.energy} {s.occurrences} {s.value_string()}\n" for s in self.samples
        )


def _sorted_samples(counts: dict[tuple[int, ...], tuple[int, int]]) -> tuple[Sample, ...]:
    samples = [
        Sample(values=v, energy=e, occurrences=n) for v, (e, n) in counts.items()
    ]
    samples.sort(key=lambda s: (s.energy, s.value_string()))
    return tuple(samples)


# -- exhaustive enumeration ----------------------------------------------------


def _walsh_hadamard(a: np.ndarray) -> None:
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


def _subset_sum(a: np.ndarray) -> None:
    """In-place zeta transform: a[x] becomes the sum of a[m] over masks m within x."""
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        pairs[:, 1, :] += pairs[:, 0, :]
        h *= 2


def _state_values(state: int, nvars: int, spin: bool) -> tuple[int, ...]:
    bits = [(state >> i) & 1 for i in range(nvars)]
    if spin:
        return tuple(2 * b - 1 for b in bits)
    return tuple(bits)


def exhaustive_min(
    model: MultilinearPoly | IsingModel,
    cap: int = 26,
    all_ground: bool = False,
) -> SampleSet:
    """Exact global minimum by enumerating all 2^n assignments.

    With all_ground, every minimizing assignment is returned (occurrences 1
    each); otherwise only the first in state order.  Rejects instances with
    more than `cap` variables, and instances whose absolute coefficients
    (the Ising offset included) sum to 2^63 or more, since their energies
    need not fit the int64 arithmetic.
    """
    if isinstance(model, IsingModel):
        poly = model.to_polynomial()
        nvars = model.nvars
        domain = Domain.SPIN
    else:
        poly = model
        nvars = poly.nvars
        domain = poly.domain
    if nvars > cap:
        raise ValueError(f"{nvars} variables exceed the exhaustive cap of {cap}")
    spin = domain is Domain.SPIN

    if nvars == 0:
        constant = poly.coeff(())
        sample = Sample(values=(), energy=constant, occurrences=1)
        return SampleSet(domain=domain, samples=(sample,), reads=1)
    # Every intermediate value of either transform is a signed sum of distinct
    # coefficients, so this bound keeps the int64 arithmetic exact.
    if poly.abs_coeff_sum() >= 1 << 63:
        raise ValueError(
            "absolute coefficients sum to 2^63 or more; energies could overflow int64"
        )

    # State bit i set means s_i = +1 (spin) or q_i = 1 (boolean).  Bit i of a
    # monomial's mask marks variable i.  The low `low_bits` bits of a state
    # index the transformed vector; each high-bit pattern is one chunk.
    low_bits = min(_CHUNK_BITS, nvars)
    terms = poly.terms
    masks = [sum(1 << v for v in m) for m in terms]
    low = np.array([m & ((1 << low_bits) - 1) for m in masks], dtype=np.int64)
    high = np.array([m >> low_bits for m in masks], dtype=np.int64)
    # s_i = -(-1)^bit_i, so a spin monomial is (-1)^|m| * (-1)^popcount(m & state)
    coeffs = np.array(
        [-c if spin and len(m) % 2 else c for m, c in terms.items()], dtype=np.int64
    )
    a = np.empty(1 << low_bits, dtype=np.int64)

    best_energy: int | None = None
    minima: list[int] = []
    for pattern in range(1 << (nvars - low_bits)):
        a.fill(0)
        if spin:
            # the chunk's high bits are fixed: fold their signs into the terms
            signs = np.bitwise_count(high & pattern) % 2
            np.add.at(a, low, np.where(signs, -coeffs, coeffs))
            _walsh_hadamard(a)
        else:
            # a term counts only where the chunk's high bits cover its own
            covered = (high & ~pattern) == 0
            np.add.at(a, low[covered], coeffs[covered])
            _subset_sum(a)
        start = pattern << low_bits
        lo = int(a.min())
        if best_energy is None or lo < best_energy:
            best_energy = lo
            minima = []
        if lo == best_energy:
            if all_ground:
                minima.extend(start + int(s) for s in np.flatnonzero(a == lo))
            elif not minima:
                minima.append(start + int(a.argmin()))
    assert best_energy is not None
    counts = {
        _state_values(s, nvars, spin): (best_energy, 1) for s in minima
    }
    return SampleSet(domain=domain, samples=_sorted_samples(counts), reads=len(minima))


# -- simulated annealing --------------------------------------------------------


def default_beta_range(model: IsingModel) -> tuple[float, float]:
    """Hot end keeps the largest coupler flippable; cold end freezes unit gaps."""
    top = max(1, model.max_abs_coeff())
    return 0.01 / top, 10.0


def _read_generator(seed: int, read_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(read_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _metropolis(
    model: IsingModel,
    reads: int,
    sweeps: int,
    betas: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Final spin states (reads x nvars) and their energies."""
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

    gens = [_read_generator(seed, r) for r in range(reads)]
    perm_gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(_PERM_STREAM_KEY,)))
    )
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


def anneal(
    model: IsingModel,
    reads: int = 1000,
    sweeps: int = 1000,
    beta_start: float | None = None,
    beta_end: float | None = None,
    seed: int = 0,
) -> SampleSet:
    """Seeded single-flip Metropolis annealing of an Ising model.

    Each read starts from a random spin state and runs `sweeps` full passes
    with a geometric inverse-temperature schedule; identical inputs give
    bit-identical results.  Rejects models whose absolute coefficients (the
    offset included) sum to 2^62 or more: a flip's energy change is twice a
    local field, and it must fit int64.
    """
    if model.to_polynomial().abs_coeff_sum() >= 1 << 62:
        raise ValueError(
            "absolute coefficients sum to 2^62 or more; energy changes could overflow int64"
        )
    if reads <= 0 or sweeps <= 0:
        raise ValueError("reads and sweeps must be positive")
    b0, b1 = default_beta_range(model)
    beta_start = b0 if beta_start is None else beta_start
    beta_end = b1 if beta_end is None else beta_end
    if beta_start <= 0 or beta_end <= 0:
        raise ValueError("inverse temperatures must be positive")
    if sweeps == 1:
        betas = np.array([beta_end])
    else:
        ratio = beta_end / beta_start
        betas = beta_start * ratio ** (np.arange(sweeps) / (sweeps - 1))

    S, energies = _metropolis(model, reads, sweeps, betas, seed)
    counts: dict[tuple[int, ...], tuple[int, int]] = {}
    for row, e in zip(S, energies):
        key = tuple(int(v) for v in row)
        prev = counts.get(key)
        counts[key] = (int(e), 1 if prev is None else prev[1] + 1)
    return SampleSet(domain=Domain.SPIN, samples=_sorted_samples(counts), reads=reads)


def write_samples(sampleset: SampleSet, fp: IO[str]) -> None:
    fp.write(sampleset.to_text())
