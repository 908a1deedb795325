"""Independent checks of the artifacts one CLI operation wrote.

Nothing here trusts the program's own verification: matrices are re-read
and HᵀH = M·I recomputed, chain files are parsed and compared with the
constants the pipeline produced at the commit that defined the benchmark,
and every energy-0 annealing read is re-evaluated on the exact spin energy.

Each check returns an `Outcome`.  `status` is "solved", "unsolved" (the
search honestly reported no solution) or "failed" (the call raised, exited
with a usage or I/O code, or wrote an artifact that fails its check).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# (logical, ancillas, delta, couplers) of `build` at the defining commit.
BUILD_CONSTANTS = {
    ("turyn", 8): (21, 46, 156624, 1089),
    ("turyn", 10): (29, 92, 484856, 2934),
    ("turyn", 12): (37, 154, 1110816, 6204),
    ("williamson", 7): (16, 24, 3355968, 620),
    ("williamson", 9): (20, 40, 10545408, 1274),
}

CHAIN_FILES = ("ek_s.poly", "ek_q.poly", "e2_q.poly", "e2_s.poly",
               "model.ising", "model_normalized.ising", "manifest.txt")


@dataclass
class Outcome:
    status: str
    reason: str = ""
    reads: int = 0
    ground_reads: int = 0
    bytes_written: int = 0


class CheckError(Exception):
    pass


def expected_order(method: str, size: int) -> int:
    if method == "williamson":
        return 4 * size
    if method == "baumert-hall":
        return 12 * size
    return 4 * (3 * size - 1)


def _manifest(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fp:
        return dict(line.rstrip("\n").split("=", 1) for line in fp if "=" in line)


def _bytes_in(outdir) -> int:
    return sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())


def check_hadamard(path, order: int) -> None:
    rows = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                if set(line) - {"+", "-"}:
                    raise CheckError(f"{path}: characters other than +/-")
                rows.append([1 if ch == "+" else -1 for ch in line])
    H = np.array(rows, dtype=np.int64)
    if H.shape != (order, order):
        raise CheckError(f"{path}: shape {H.shape}, expected order {order}")
    if not np.array_equal(H.T @ H, order * np.eye(order, dtype=np.int64)):
        raise CheckError(f"{path}: HᵀH != {order}·I")


def read_samples(path) -> list[tuple[int, int, str]]:
    out = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            energy, occ, values = line.split()
            out.append((int(energy), int(occ), values))
    return out


def spin_energy(terms: dict, values: str) -> int:
    """Exact value of a spin polynomial at a +/- string (index i is char i)."""
    spins = [1 if ch == "+" else -1 for ch in values]
    total = 0
    for mono, coeff in terms.items():
        for v in mono:
            coeff *= spins[v]
        total += coeff
    return total


def check_search(op, outdir, rc, energy_terms=None) -> Outcome:
    """Outcome of `search`; `energy_terms` re-checks every energy-0 read."""
    if rc not in (0, 1):
        return Outcome("failed", f"exit code {rc!r}")
    try:
        samples = read_samples(os.path.join(outdir, "samples.txt"))
        manifest = _manifest(os.path.join(outdir, "manifest.txt"))
        reads = sum(occ for _, occ, _ in samples)
        ground = sum(occ for e, occ, _ in samples if e == 0)
        if energy_terms is not None:
            for e, _, values in samples:
                if e == 0 and spin_energy(energy_terms, values) != 0:
                    raise CheckError(f"read {values} has energy 0 in samples.txt "
                                     "but not on the exact spin energy")
        order = expected_order(op.method, op.size)
        if rc == 0:
            if manifest.get("verified") != "yes":
                raise CheckError("exit 0 without verified=yes")
            check_hadamard(os.path.join(outdir, "matrix.txt"), order)
            status = "solved"
        else:
            if manifest.get("verified") != "no":
                raise CheckError("exit 1 without verified=no")
            status = "unsolved"
        return Outcome(status, reads=reads, ground_reads=ground,
                       bytes_written=_bytes_in(outdir))
    except (OSError, ValueError, CheckError) as exc:
        return Outcome("failed", str(exc))


def _poly_degree(path) -> tuple[int, int]:
    """(nvars, degree) of a polynomial file, parsed here."""
    with open(path, encoding="utf-8") as fp:
        lines = [ln.split("#", 1)[0].split() for ln in fp]
    lines = [ln for ln in lines if ln]
    if lines[0][0] != "domain" or lines[1][0] != "nvars":
        raise CheckError(f"{path}: bad header")
    return int(lines[1][1]), max((len(ln) - 1 for ln in lines[2:]), default=0)


def _ising_size(path) -> tuple[int, int]:
    """(spins, couplers) of an Ising file, parsed here."""
    spins, couplers = 0, 0
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            tok = line.split()
            if tok and tok[0] == "h":
                spins = max(spins, int(tok[1]) + 1)
            elif tok and tok[0] == "J":
                spins = max(spins, int(tok[2]) + 1)
                couplers += 1
    return spins, couplers


def check_build(op, outdir, rc) -> Outcome:
    if rc != 0:
        return Outcome("failed", f"exit code {rc!r}")
    try:
        for name in CHAIN_FILES:
            if not os.path.isfile(os.path.join(outdir, name)):
                raise CheckError(f"missing {name}")
        logical, ancillas, delta, couplers = BUILD_CONSTANTS[(op.method, op.size)]
        manifest = _manifest(os.path.join(outdir, "manifest.txt"))
        got = tuple(int(manifest[k]) for k in ("logical", "ancillas", "total", "delta"))
        if got != (logical, ancillas, logical + ancillas, delta):
            raise CheckError(f"manifest (logical, ancillas, total, delta) = {got}")
        nvars, degree = _poly_degree(os.path.join(outdir, "e2_q.poly"))
        if degree > 2 or nvars != logical + ancillas:
            raise CheckError(f"e2_q.poly has nvars {nvars}, degree {degree}")
        size = _ising_size(os.path.join(outdir, "model.ising"))
        if size != (logical + ancillas, couplers):
            raise CheckError(f"model.ising has (spins, couplers) = {size}")
        return Outcome("solved", bytes_written=_bytes_in(outdir))
    except (OSError, ValueError, KeyError, CheckError) as exc:
        return Outcome("failed", str(exc))
