import io

import numpy as np
import pytest

from hadsearch import constructions as cons
from hadsearch import hadamard as hm
from hadsearch.solver import exhaustive_min


def ground_blocks(k):
    sset = exhaustive_min(cons.williamson_energy(k), all_ground=False)
    rows = cons.williamson_first_rows(k, list(sset.best().values))
    return [hm.circulant(r) for r in rows]


def parse_cells(table):
    """Per row of a sign/letter table, each cell's (sign, letter)."""
    return [[(1 if cell[0] == "+" else -1, cell[1]) for cell in line.split()] for line in table]


# Block-by-block assemblies, the arrays as written out in the literature:
# references for the plug-in sum over the sign/letter tables.
def williamson_reference(A, B, C, D):
    return np.block(
        [
            [A, B, C, D],
            [-B, A, -D, C],
            [-C, D, A, -B],
            [-D, -C, B, A],
        ]
    )


def goethals_seidel_reference(X1, X2, X3, X4):
    R = hm.back_diagonal(X1.shape[0])
    return np.block(
        [
            [X1, X2 @ R, X3 @ R, X4 @ R],
            [-X2 @ R, X1, X4.T @ R, -X3.T @ R],
            [-X3 @ R, -X4.T @ R, X1, X2.T @ R],
            [-X4 @ R, X3.T @ R, -X2.T @ R, X1],
        ]
    )


def baumert_hall_reference(A, B, C, D):
    blocks = dict(zip("ABCD", (A, B, C, D)))
    return np.block([[sign * blocks[letter] for sign, letter in row]
                     for row in parse_cells(hm._BAUMERT_HALL_CELLS)])


def check_matches_reference(build, reference, k):
    rng = np.random.default_rng(k)
    blocks = [rng.choice([-1, 1], size=(k, k)) for _ in range(4)]
    H, expect = build(*blocks), reference(*blocks)
    assert H.dtype == expect.dtype == np.int64
    assert np.array_equal(H, expect)


def check_letter_balance(table, letters, per_line):
    """Each cell holds one letter, and each block occurs `per_line` times
    in every row and column, a lower-case letter counted with its block."""
    cells = parse_cells(table)
    size = len(cells)
    assert all(len(row) == size for row in cells)
    assert {letter for row in cells for _, letter in row} == set(letters)
    for line in (*cells, *zip(*cells)):
        blocks = [letter.upper() for _, letter in line]
        assert all(blocks.count(x) == per_line for x in "ABCD")


BLOCK_ORDERS = [1, 3, 9, 23]


class TestCirculant:
    def test_single_entry(self):
        assert hm.circulant([1]).tolist() == [[1]]

    def test_right_shift(self):
        C = hm.circulant([1, -1, -1])
        assert C[1].tolist() == [-1, 1, -1]
        assert C[2].tolist() == [-1, -1, 1]

    def test_symmetric_first_row_gives_symmetric_block(self):
        A = hm.circulant([1, -1, -1])
        assert np.array_equal(A, A.T)

    def test_periodic_autocorrelation_determines_gram(self):
        # C^T C entries depend only on the periodic autocorrelation of the row
        row = [1, -1, 1, 1, -1]
        C = hm.circulant(row)
        G = C.T @ C
        n = len(row)
        paf = [sum(row[t] * row[(t + r) % n] for t in range(n)) for r in range(n)]
        for i in range(n):
            for j in range(n):
                assert G[i, j] == paf[(i - j) % n]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hm.circulant([])


class TestBackDiagonal:
    def test_order_one(self):
        assert hm.back_diagonal(1).tolist() == [[1]]

    def test_anti_diagonal_structure(self):
        R = hm.back_diagonal(3)
        assert R.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_involution(self):
        R = hm.back_diagonal(5)
        assert np.array_equal(R @ R, np.eye(5, dtype=np.int64))


class TestWilliamsonArray:
    def test_unit_blocks(self):
        one = np.array([[1]])
        H = hm.williamson_array(one, one, one, one)
        ok, _ = hm.verify(H)
        assert ok and H.shape == (4, 4)

    def test_solved_blocks_give_order_12(self):
        H = hm.williamson_array(*ground_blocks(3))
        ok, D = hm.verify(H)
        assert ok
        assert H.shape == (12, 12)
        assert np.array_equal(D, 12 * np.eye(12, dtype=np.int64))

    def test_invalid_blocks_fail_verification(self):
        ones = np.ones((3, 3), dtype=np.int64)
        ok, _ = hm.verify(hm.williamson_array(ones, ones, ones, ones))
        assert not ok

    def test_order_mismatch_rejected(self):
        one = np.array([[1]])
        two = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            hm.williamson_array(one, one, one, two)

    def test_letter_balance_tripwire(self):
        check_letter_balance(hm._WILLIAMSON_CELLS, "ABCD", 1)

    @pytest.mark.parametrize("k", BLOCK_ORDERS)
    def test_matches_block_assembly(self, k):
        check_matches_reference(hm.williamson_array, williamson_reference, k)


class TestBaumertHallArray:
    def test_letter_balance_tripwire(self):
        assert len(hm._BAUMERT_HALL_CELLS) == 12
        check_letter_balance(hm._BAUMERT_HALL_CELLS, "ABCD", 3)

    @pytest.mark.parametrize("k", BLOCK_ORDERS)
    def test_matches_block_assembly(self, k):
        check_matches_reference(hm.baumert_hall_array, baumert_hall_reference, k)

    def test_unit_blocks_give_order_12(self):
        one = np.array([[1]])
        H = hm.baumert_hall_array(one, one, one, one)
        ok, _ = hm.verify(H)
        assert ok and H.shape == (12, 12)

    def test_solved_blocks_give_order_36(self):
        H = hm.baumert_hall_array(*ground_blocks(3))
        ok, _ = hm.verify(H)
        assert ok and H.shape == (36, 36)


class TestGoethalsSeidel:
    def test_unit_blocks(self):
        one = np.array([[1]])
        H = hm.goethals_seidel(one, one, one, one)
        ok, _ = hm.verify(H)
        assert ok and H.shape == (4, 4)

    def test_letter_balance_tripwire(self):
        check_letter_balance(hm._GOETHALS_SEIDEL_CELLS, "ABCDbcd", 1)

    @pytest.mark.parametrize("k", BLOCK_ORDERS)
    def test_matches_block_assembly(self, k):
        check_matches_reference(hm.goethals_seidel, goethals_seidel_reference, k)

    @pytest.mark.parametrize("build", [hm.williamson_array, hm.baumert_hall_array,
                                       hm.goethals_seidel])
    def test_block_checks_keep_their_names(self, build):
        one, two = np.array([[1]]), np.ones((2, 2), dtype=np.int64)
        names = ("X1", "X2", "X3", "X4") if build is hm.goethals_seidel else tuple("ABCD")
        with pytest.raises(ValueError, match=f"^{names[2]} entries must be"):
            build(one, one, np.array([[0]]), one)
        with pytest.raises(ValueError, match=f"^{names[3]} must be square"):
            build(one, one, one, np.ones((1, 2)))
        with pytest.raises(ValueError, match="^blocks must share one order"):
            build(one, two, one, one)

    def test_pipeline_order_44(self):
        X, Y, Z, W = cons.normalized_turyn_quadruple(4).values([-1, -1, -1, 1, 1])
        base = cons.base_sequences(X, Y, Z, W)
        T = cons.t_sequences(*base)
        seeds = cons.seed_sequences(*T)
        H = hm.goethals_seidel(*[hm.circulant(s) for s in seeds])
        ok, _ = hm.verify(H)
        assert ok and H.shape == (44, 44)


class TestVerify:
    def test_order_two(self):
        ok, D = hm.verify(np.array([[1, 1], [1, -1]]))
        assert ok and hm.max_offdiagonal(D) == 0

    def test_all_ones_fails(self):
        ok, D = hm.verify(np.ones((2, 2), dtype=np.int64))
        assert not ok
        assert hm.max_offdiagonal(D) == 2

    def test_transpose_preserves_verification(self):
        H = hm.williamson_array(*ground_blocks(3))
        assert hm.verify(H)[0] and hm.verify(H.T)[0]

    def test_negation_and_permutation_preserve_verification(self, rng):
        H = hm.williamson_array(*ground_blocks(3))
        M = H.shape[0]
        P = np.array(H)
        rows = list(range(M))
        rng.shuffle(rows)
        P = P[rows]
        for i in range(M):
            if rng.random() < 0.5:
                P[i] *= -1
        for j in range(M):
            if rng.random() < 0.5:
                P[:, j] *= -1
        assert hm.verify(P)[0]

    def test_indicator_equals_int64_product(self):
        """D, formed in float64, is the exact int64 product: on random +-1
        matrices of orders 1-120, all-ones ones (off-diagonal entries equal
        to the order) and Sylvester Hadamard matrices."""
        gen = np.random.default_rng(0)
        sylvester = [np.ones((1, 1), dtype=np.int64)]
        while len(sylvester[-1]) < 120:
            sylvester.append(np.kron([[1, 1], [1, -1]], sylvester[-1]))
        for M in range(1, 121):
            hadamard = [H for H in sylvester if len(H) == M]
            for H in [gen.choice([-1, 1], size=(M, M)), np.ones((M, M), dtype=np.int64), *hadamard]:
                ok, D = hm.verify(H)
                assert D.dtype == np.int64
                assert np.array_equal(D, H.T.astype(np.int64) @ H.astype(np.int64))
                assert ok == np.array_equal(D, M * np.eye(M, dtype=np.int64))
            assert all(hm.verify(H)[0] for H in hadamard)
            assert hm.verify(np.ones((M, M)))[0] == (M == 1)

    def test_order_admissibility(self):
        assert hm.order_admissible(1)
        assert hm.order_admissible(2)
        assert hm.order_admissible(92)
        assert not hm.order_admissible(6)

    def test_non_sign_entries_rejected(self):
        with pytest.raises(ValueError):
            hm.verify(np.zeros((2, 2), dtype=np.int64))


class TestFormats:
    def test_matrix_round_trip(self):
        H = hm.williamson_array(*ground_blocks(3))
        buf = io.StringIO()
        hm.write_matrix(H, buf)
        again = hm.read_matrix(io.StringIO(buf.getvalue()))
        assert np.array_equal(H, again)

    def test_bad_character_rejected(self):
        with pytest.raises(ValueError):
            hm.read_matrix(io.StringIO("+-\n+x\n"))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            hm.read_matrix(io.StringIO("+-\n+\n"))

    def test_report_line(self):
        line = hm.report_line(np.array([[1, 1], [1, -1]]))
        assert line == "ORDER=2 HADAMARD=yes MAX_OFFDIAG=0"

    def test_pbm_and_pgm_headers(self):
        H = np.array([[1, -1], [-1, 1]])
        buf = io.StringIO()
        hm.write_pbm(H, buf)
        assert buf.getvalue().splitlines()[:2] == ["P1", "2 2"]
        ok, D = hm.verify(H)
        buf = io.StringIO()
        hm.write_pgm(D, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "P2" and lines[1] == "2 2"

    @pytest.mark.parametrize("size", [0, 1, 2, 7])
    def test_pbm_is_the_entrywise_text(self, size):
        H = np.random.default_rng(size).choice([-1, 1], size=(size, size))
        buf = io.StringIO()
        hm.write_pbm(H, buf)
        rows = "".join(" ".join("0" if x > 0 else "1" for x in row) + "\n" for row in H.tolist())
        assert buf.getvalue() == f"P1\n{size} {size}\n" + rows

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8)])
    def test_pgm_is_the_entrywise_text(self, shape):
        # values of one to four digits, and negative ones written as their magnitude
        D = np.random.default_rng(shape[1]).choice([0, 7, -12, 100, 4096], size=shape)
        buf = io.StringIO()
        hm.write_pgm(D, buf)
        A = np.abs(D)
        rows = "".join(" ".join(map(str, row)) + "\n" for row in A.tolist())
        header = f"P2\n{shape[1]} {shape[0]}\n{max(1, int(A.max()))}\n"
        assert buf.getvalue() == header + rows
