"""Assembly and verification of Hadamard candidates from solved blocks.

Matrices are dense numpy int arrays with entries strictly in {-1,+1}.  The
three block arrays (Williamson 4x4, Baumert-Hall 12x12, Goethals-Seidel 4x4
with the back-diagonal twist) are each a sign/letter table, parsed once into
one sign pattern per letter, and are all built by one plug-in sum of
kron(pattern, block) over the letters; verification is always the exact
indicator test D = H^T H == M*I, never trust in the array.
"""

from __future__ import annotations

from typing import IO, Sequence

import numpy as np

from .polynom import _content_lines

SignMatrix = np.ndarray


def _as_sign_matrix(M, name: str = "matrix") -> SignMatrix:
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square")
    if not ((A == 1) | (A == -1)).all():
        raise ValueError(f"{name} entries must be +/-1")
    return A


def circulant(first_row: Sequence[int]) -> SignMatrix:
    """Circulant matrix: row i is the first row cyclically shifted right i places."""
    row = np.asarray(first_row, dtype=np.int64)
    if not row.size:
        raise ValueError("first row must be nonempty")
    n = row.size
    return row[(np.arange(n) - np.arange(n)[:, None]) % n]


def back_diagonal(k: int) -> np.ndarray:
    """0/1 matrix with ones on the anti-diagonal (R[i][j] = 1 iff i+j = k-1)."""
    if k < 1:
        raise ValueError("order must be at least 1")
    return np.eye(k, dtype=np.int64)[::-1]


# Sign/letter tables, one letter per block cell with its sign.  In the
# Goethals-Seidel table A is X1; B, C, D are X2 R, X3 R, X4 R and b, c, d
# are X2^T R, X3^T R, X4^T R, R the back-diagonal identity.  Each block
# occurs once in every row and column of the Williamson and Goethals-Seidel
# tables (B counted with b), three times in the Baumert-Hall table
# (unit-tested).
_WILLIAMSON_CELLS = [
    "+A +B +C +D",
    "-B +A -D +C",
    "-C +D +A -B",
    "-D -C +B +A",
]

_GOETHALS_SEIDEL_CELLS = [
    "+A +B +C +D",
    "-B +A +d -c",
    "-C -d +A +b",
    "-D +c -b +A",
]

_BAUMERT_HALL_CELLS = [
    "+A +A +A +B -B +C -C -D +B +C -D -D",
    "+A -A +B -A -B -D +D -C -B -D -C -C",
    "+A -B -A +A -D +D -B +B -C -D +C -C",
    "+B +A -A -A +D +D +D +C +C -B -B -C",
    "+B -D +D +D +A +A +A +C -C +B -C +B",
    "+B +C -D +D +A -A +C -A -D +C +B -B",
    "+D -C +B -B +A -C -A +A +B +C +D -D",
    "-C -D -C -D +C +A -A -A -D +B -B -B",
    "+D -C -B -B -B +C +C -D +A +A +A +D",
    "-D -B +C +C +C +B +B -D +A -A +D -A",
    "+C -B -C +C +D -B -D -B +A -D -A +A",
    "-C -D -D +C -C -B +B +B +D +A -A -A",
]


def _patterns(table: list[str], letters: str) -> np.ndarray:
    """Per letter of `letters`, the int64 matrix of its signs in the table, 0
    where another letter sits, stacked in that order."""
    P = np.zeros((len(letters), len(table), len(table)), dtype=np.int64)
    for r, line in enumerate(table):
        for c, (sign, letter) in enumerate(line.split()):
            P[letters.index(letter), r, c] = 1 if sign == "+" else -1
    return P


_WILLIAMSON = _patterns(_WILLIAMSON_CELLS, "ABCD")
_GOETHALS_SEIDEL = _patterns(_GOETHALS_SEIDEL_CELLS, "ABCDbcd")
_BAUMERT_HALL = _patterns(_BAUMERT_HALL_CELLS, "ABCD")


def _sign_blocks(blocks, names: str) -> np.ndarray:
    """The four blocks, each checked to be a square +/-1 matrix, stacked
    into shape (4, k, k) once they share one order k."""
    blocks = [_as_sign_matrix(X, name) for X, name in zip(blocks, names.split())]
    if any(X.shape != blocks[0].shape for X in blocks):
        raise ValueError("blocks must share one order")
    return np.stack(blocks)


def _plug_in(P: np.ndarray, B: np.ndarray) -> SignMatrix:
    """The sum over the letters l of kron(P[l], B[l]): each cell of the
    table holds exactly one letter, so cell (r, c) is its signed block."""
    n = P.shape[1] * B.shape[1]
    return np.einsum("lrc,lij->ricj", P, B).reshape(n, n)


def williamson_array(A, B, C, D) -> SignMatrix:
    """Order-4k array from the fixed 4x4 sign/letter arrangement."""
    return _plug_in(_WILLIAMSON, _sign_blocks((A, B, C, D), "A B C D"))


def baumert_hall_array(A, B, C, D) -> SignMatrix:
    """Order-12k array from the fixed 12x12 sign/letter arrangement."""
    return _plug_in(_BAUMERT_HALL, _sign_blocks((A, B, C, D), "A B C D"))


def goethals_seidel(X1, X2, X3, X4) -> SignMatrix:
    """Order-4k Goethals-Seidel array with R the back-diagonal identity;
    X R is X with its columns reversed."""
    X = _sign_blocks((X1, X2, X3, X4), "X1 X2 X3 X4")
    XR, XtR = X[:, :, ::-1], X.transpose(0, 2, 1)[:, :, ::-1]
    return _plug_in(_GOETHALS_SEIDEL, np.concatenate([X[:1], XR[1:], XtR[1:]]))


def verify(H) -> tuple[bool, np.ndarray]:
    """Exact orthogonality test: returns (is_hadamard, indicator D = H^T H).

    D is formed in float64, on BLAS, and returned as int64.  That is exact:
    every entry of H is +-1, so every partial sum of an entry of D is an
    integer of magnitude at most the order M, and float64 holds every
    integer below 2^53.
    """
    H = _as_sign_matrix(H, "candidate")
    M = H.shape[0]
    F = H.astype(np.float64)
    D = (F.T @ F).astype(np.int64)
    ok = bool(np.array_equal(D, M * np.eye(M, dtype=np.int64)))
    return ok, D


def order_admissible(M: int) -> bool:
    """Hadamard orders are 1, 2 or multiples of 4."""
    return M in (1, 2) or M % 4 == 0


def max_offdiagonal(D: np.ndarray) -> int:
    if D.shape[0] == 1:
        return 0
    mask = ~np.eye(D.shape[0], dtype=bool)
    return int(np.abs(D[mask]).max())


def report_line(H) -> str:
    return _format_report(*verify(H))


def _format_report(ok: bool, D: np.ndarray) -> str:
    """The report line of a `verify` result; D's order is the matrix's."""
    return f"ORDER={D.shape[0]} HADAMARD={'yes' if ok else 'no'} MAX_OFFDIAG={max_offdiagonal(D)}"


# -- file formats -------------------------------------------------------------


def write_matrix(H, fp: IO[str]) -> None:
    """One row per line of +/- characters."""
    H = _as_sign_matrix(H, "matrix")
    chars = np.frombuffer(b"+-", dtype=np.uint8)[(H < 0).astype(np.intp)]
    fp.write("".join(row.tobytes().decode("ascii") + "\n" for row in chars))


def read_matrix(fp: IO[str]) -> SignMatrix:
    rows = []
    for line in _content_lines(fp):
        row = []
        for ch in line:
            if ch == "+":
                row.append(1)
            elif ch == "-":
                row.append(-1)
            else:
                raise ValueError(f"bad matrix character {ch!r}")
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix file")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows in matrix file")
    return _as_sign_matrix(np.array(rows, dtype=np.int64))


def load_matrix(path) -> SignMatrix:
    with open(path, encoding="utf-8") as fp:
        return read_matrix(fp)


def save_matrix(H, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        write_matrix(H, fp)


def write_pbm(H, fp: IO[str]) -> None:
    """Plain PBM (P1): -1 renders black (1), +1 renders white (0)."""
    H = _as_sign_matrix(H, "matrix")
    M = H.shape[0]
    fp.write(f"P1\n{M} {M}\n")
    # each entry's digit and separator, a newline after a row's last entry
    index = (H < 0).astype(np.intp)
    index[:, -1:] += 2
    fp.write(np.array([b"0 ", b"1 ", b"0\n", b"1\n"])[index].tobytes().decode("ascii"))


def write_pgm(D: np.ndarray, fp: IO[str]) -> None:
    """Plain PGM (P2) of a nonnegative integer matrix (indicator export)."""
    D = np.asarray(D, dtype=np.int64)
    if (D < 0).any():
        D = np.abs(D)
    maxval = max(1, int(D.max()))
    M, N = D.shape
    fp.write(f"P2\n{N} {M}\n{maxval}\n")
    values, index = np.unique(D, return_inverse=True)
    index = index.reshape(M, N)
    index[:, -1:] += len(values)  # a row's last entry ends in a newline
    words = values.tolist()
    # each distinct value's text once; the cells are padded to one width
    # with zero bytes, which are dropped
    cells = np.array([f"{v} " for v in words] + [f"{v}\n" for v in words], dtype=bytes)
    fp.write(cells[index].tobytes().replace(b"\0", b"").decode("ascii"))
