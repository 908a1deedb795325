import hashlib
import os

import numpy as np
import pytest

from hadsearch import cli
from hadsearch import hadamard as hm
from hadsearch.polynom import load_poly


def run(*args):
    return cli.main([str(a) for a in args])


def read_manifest(path):
    out = {}
    with open(path) as fp:
        for line in fp:
            key, value = line.rstrip("\n").split("=", 1)
            out[key] = value
    return out


def snapshot(root):
    """Byte content of every file under a directory, keyed by relative path."""
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fp:
                out[os.path.relpath(path, root)] = fp.read()
    return out


DATA = os.path.join(os.path.dirname(__file__), "data")


class TestArtifactDigests:
    # Annealed samples are left out: numpy does not promise the same
    # Generator streams across versions.
    RUNS = {
        "build_t8": ("build", "--method", "turyn", "--n", 8),
        "build_w7": ("build", "--method", "williamson", "--k", 7),
        "build_x8_2": ("build", "--method", "extended-turyn", "--n", 8, "--m", 2),
        "search_w5": ("search", "--method", "williamson", "--k", 5, "--solver", "exhaustive"),
    }

    def test_every_file_matches_recorded_sha256(self, tmp_path):
        for name, args in self.RUNS.items():
            assert run(*args, "--out", tmp_path / name) == 0
        got = {
            path.replace(os.sep, "/"): hashlib.sha256(data).hexdigest()
            for path, data in snapshot(tmp_path).items()
        }
        with open(os.path.join(DATA, "artifact_sha256.txt"), encoding="utf-8") as fp:
            expect = {path: digest for digest, path in (line.split() for line in fp)}
        assert got == expect


class TestBuild:
    def test_block_method_artifacts(self, tmp_path):
        out = tmp_path / "b"
        assert run("build", "--method", "williamson", "--k", 3, "--out", out) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["delta"] == "53952"
        assert manifest["logical"] == "8"
        assert manifest["ancillas"] == "4"
        assert manifest["ancilla_8"] == "0,1"
        for name in ("ek_s.poly", "ek_q.poly", "e2_q.poly", "e2_s.poly",
                     "model.ising", "model_normalized.ising"):
            assert (out / name).exists()
        e2q = load_poly(out / "e2_q.poly")
        assert e2q.degree() == 2

    def test_sequence_method_manifest(self, tmp_path):
        out = tmp_path / "t"
        assert run("build", "--method", "turyn", "--n", 4, "--out", out) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["logical"] == "5"
        ek_q = load_poly(out / "ek_q.poly")
        assert int(manifest["delta"]) == 2 * ek_q.abs_coeff_sum()

    def test_even_block_order_is_usage_error(self, tmp_path):
        assert run("build", "--method", "williamson", "--k", 4, "--out", tmp_path) == 2

    def test_missing_size_is_usage_error(self, tmp_path):
        assert run("build", "--method", "turyn", "--out", tmp_path) == 2


class TestSearch:
    def test_verified_order_12(self, tmp_path):
        out = tmp_path / "w3"
        assert run("search", "--method", "williamson", "--k", 3, "--out", out) == 0
        H = hm.load_matrix(out / "matrix.txt")
        ok, _ = hm.verify(H)
        assert ok and H.shape == (12, 12)
        report = (out / "report.txt").read_text().strip()
        assert report == "ORDER=12 HADAMARD=yes MAX_OFFDIAG=0"
        assert (out / "samples.txt").exists()
        assert (out / "matrix.pbm").exists()
        assert (out / "indicator.pgm").exists()
        assert read_manifest(out / "manifest.txt")["verified"] == "yes"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("search", "--method", "turyn", "--n", 4,
                       "--seed", 9, "--out", out) == 0
        assert snapshot(a) == snapshot(b)

    def test_anneal_solver_on_small_block_search(self, tmp_path):
        out = tmp_path / "w3a"
        code = run("search", "--method", "williamson", "--k", 3, "--solver", "anneal",
                   "--reads", 60, "--sweeps", 300, "--seed", 2, "--out", out)
        assert code == 0
        H = hm.load_matrix(out / "matrix.txt")
        assert hm.verify(H)[0]

    def test_failed_search_reports_and_writes_samples(self, tmp_path):
        out = tmp_path / "fail"
        code = run("search", "--method", "turyn", "--n", 6, "--solver", "anneal",
                   "--reads", 1, "--sweeps", 1, "--seed", 0, "--out", out)
        assert code == 1
        assert (out / "samples.txt").exists()
        assert not (out / "matrix.txt").exists()
        assert read_manifest(out / "manifest.txt")["verified"] == "no"

    def test_extended_search_records_prototype(self, tmp_path):
        out = tmp_path / "x8"
        assert run("search", "--method", "extended-turyn", "--n", 8, "--m", 2,
                   "--out", out) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["order"] == "92"
        assert "/" in manifest["prototype"]
        H = hm.load_matrix(out / "matrix.txt")
        assert hm.verify(H)[0] and H.shape == (92, 92)


    def test_auto_enumerates_24_variable_extended_search(self, tmp_path):
        out = tmp_path / "x10"
        assert run("search", "--method", "extended-turyn", "--n", 10, "--m", 2,
                   "--out", out) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["order"] == "116"
        assert manifest["prototype_index"] == "0"
        H = hm.load_matrix(out / "matrix.txt")
        assert H.shape == (116, 116) and hm.verify(H)[0]

    @pytest.mark.parametrize("stage", ["assemble", "verify"])
    def test_later_ground_sample_verifies_when_first_fails(self, tmp_path, monkeypatch, stage):
        real_assemble, real_verify = cli._assemble, hm.verify
        tried = []

        def assemble(args, values, proto):
            tried.append(tuple(values))
            if stage == "assemble" and len(tried) == 1:
                raise ValueError("first ground sample rejected")
            return real_assemble(args, values, proto)

        def verify(H):
            ok, D = real_verify(H)
            return (ok and not (stage == "verify" and len(tried) == 1)), D

        monkeypatch.setattr(cli, "_assemble", assemble)
        monkeypatch.setattr(hm, "verify", verify)
        out = tmp_path / "w3"
        assert run("search", "--method", "williamson", "--k", 3, "--out", out) == 0
        assert len(tried) == 2 and tried[0] != tried[1]
        assert real_verify(hm.load_matrix(out / "matrix.txt"))[0]
        assert read_manifest(out / "manifest.txt")["verified"] == "yes"


class TestSolve:
    def test_int64_overflow_is_usage_error(self, tmp_path):
        path = tmp_path / "wide.poly"
        path.write_text(f"domain spin\nnvars 2\n{2**62} 0\n{2**62} 1\n-1 0 1\n")
        assert run("solve", path, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "samples.txt").exists()

    def test_anneal_int64_bound_is_usage_error(self, tmp_path):
        path = tmp_path / "wide.ising"
        path.write_text(f"c 0\nh 0 {2**62}\n")
        assert run("solve", path, "--solver", "anneal", "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "samples.txt").exists()

    def test_duplicate_ising_line_is_usage_error(self, tmp_path):
        path = tmp_path / "dup.ising"
        path.write_text("c 0\nJ 0 1 1\nJ 0 1 -1\n")
        assert run("solve", path, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "samples.txt").exists()

    def test_malformed_polynomial_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("domain spin\nnvars 2\n1.5 0 1\n")
        assert run("solve", path, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "samples.txt").exists()

    def test_polynomial_file(self, tmp_path):
        out = tmp_path / "b"
        run("build", "--method", "williamson", "--k", 3, "--out", out)
        sol = tmp_path / "sol"
        assert run("solve", out / "ek_s.poly", "--out", sol) == 0
        first = (sol / "samples.txt").read_text().splitlines()[0]
        assert first.startswith("0 1 ")

    def test_ising_file(self, tmp_path):
        out = tmp_path / "b"
        run("build", "--method", "turyn", "--n", 4, "--out", out)
        sol = tmp_path / "sol"
        assert run("solve", out / "model.ising", "--out", sol) == 0
        assert (sol / "samples.txt").read_text().splitlines()[0].startswith("0 1 ")

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("solve", tmp_path / "nope.poly", "--out", tmp_path) == 3

    def test_all_ground_flag_lists_every_minimum(self, tmp_path):
        path = tmp_path / "pair.ising"
        path.write_text("c 0\nJ 0 1 1\n")
        sol = tmp_path / "sol"
        assert run("solve", path, "--all-ground", "--out", sol) == 0
        lines = (sol / "samples.txt").read_text().splitlines()
        assert lines == ["-1 1 +-", "-1 1 -+"]


class TestPrototypes:
    def test_stream_with_count(self, tmp_path):
        assert run("prototypes", "--n", 8, "--m", 2, "--out", tmp_path) == 0
        lines = (tmp_path / "prototypes_n8_m2.txt").read_text().splitlines()
        assert lines[-1] == "# count=12"
        assert "++****+-/+-****+-/+-****-+/+-****+" in lines

    def test_bad_bounds_usage_error(self, tmp_path):
        assert run("prototypes", "--n", 8, "--m", 0, "--out", tmp_path) == 2
        assert run("prototypes", "--n", 8, "--m", 4, "--out", tmp_path) == 2

    def test_n8_m3_matches_golden_file(self, tmp_path):
        # pins the enumeration order, the y_{n-2} = -y_1 tie included
        assert run("prototypes", "--n", 8, "--m", 3, "--out", tmp_path) == 0
        golden = os.path.join(DATA, "prototypes_n8_m3.txt")
        with open(golden, "rb") as fp:
            assert (tmp_path / "prototypes_n8_m3.txt").read_bytes() == fp.read()


class TestVerify:
    def test_order_two(self, tmp_path):
        path = tmp_path / "h2.txt"
        path.write_text("++\n+-\n")
        assert run("verify", path) == 0

    def test_non_hadamard_exits_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("++\n++\n")
        assert run("verify", path) == 1

    def test_corrupted_file_is_parse_error(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("++\n+\n")
        assert run("verify", path) == 2

    def test_search_output_reverifies(self, tmp_path):
        out = tmp_path / "t4"
        assert run("search", "--method", "turyn", "--n", 4, "--out", out) == 0
        assert run("verify", out / "matrix.txt") == 0


class TestQuadratizeCommand:
    def test_round_trip(self, tmp_path):
        build = tmp_path / "b"
        run("build", "--method", "turyn", "--n", 4, "--out", build)
        out = tmp_path / "q"
        assert run("quadratize", build / "ek_q.poly", "--out", out) == 0
        reduced = load_poly(out / "quadratic.poly")
        assert reduced.degree() <= 2
        manifest = read_manifest(out / "ancilla_map.txt")
        assert int(manifest["ancillas"]) >= 1

    def test_spin_polynomial_rejected(self, tmp_path):
        build = tmp_path / "b"
        run("build", "--method", "turyn", "--n", 4, "--out", build)
        assert run("quadratize", build / "ek_s.poly", "--out", tmp_path) == 2
