import hashlib
import os

import numpy as np
import pytest

from hadsearch import cli
from hadsearch import constructions as cons
from hadsearch import hadamard as hm
from hadsearch import solver
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
ANNEALED = ("--solver", "anneal", "--reads", 100, "--sweeps", 100, "--seed", 1)


class TestArtifactDigests:
    # The annealed searches pin the Metropolis step's samples.  numpy does
    # not promise the same Generator streams across versions, so a numpy
    # that changes PCG64's doubles, integers or permutation would fail them
    # without a program change.
    RUNS = {
        "build_t8": ("build", "--method", "turyn", "--n", 8),
        "build_w7": ("build", "--method", "williamson", "--k", 7),
        "build_x8_2": ("build", "--method", "extended-turyn", "--n", 8, "--m", 2),
        "search_w5": ("search", "--method", "williamson", "--k", 5, "--solver", "exhaustive"),
        "build_t12": ("build", "--method", "turyn", "--n", 12),
        "search_bh9": ("search", "--method", "baumert-hall", "--k", 9, "--solver", "exhaustive"),
        "build_t10": ("build", "--method", "turyn", "--n", 10),
        "build_w9": ("build", "--method", "williamson", "--k", 9),
        "search_w9_anneal": ("search", "--method", "williamson", "--k", 9, *ANNEALED),
        "search_t6_anneal": ("search", "--method", "turyn", "--n", 6, *ANNEALED),
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


USAGE_ERRORS = {
    "even-k": (("--method", "williamson", "--k", 4), "got 4"),
    "k-1": (("--method", "baumert-hall", "--k", 1), "got 1"),
    "odd-n": (("--method", "turyn", "--n", 7), "got 7"),
    "n-2": (("--method", "extended-turyn", "--n", 2), "got 2"),
    "m-0": (("--method", "extended-turyn", "--n", 8, "--m", 0), "got m=0 for n=8"),
    "m-half-n": (("--method", "extended-turyn", "--n", 8, "--m", 4), "got m=4 for n=8"),
    "index-out-of-range": (
        ("--method", "extended-turyn", "--n", 8, "--m", 2, "--prototype-index", 12),
        "prototype index 12 out of range 0..11"),
    "missing-k": (("--method", "williamson",), "--k is required"),
    "missing-n": (("--method", "extended-turyn",), "--n is required"),
}


@pytest.mark.parametrize("command", ["build", "search"])
@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_names_value_and_leaves_no_out_dir(tmp_path, capsys, command, case):
    argv, message = USAGE_ERRORS[case]
    out = tmp_path / "out"
    assert run(command, *argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--beta-start", "--beta-end"])
@pytest.mark.parametrize("command", ["search", "solve"])
def test_non_finite_beta_is_usage_error(tmp_path, capsys, command, flag, value):
    if command == "search":
        argv = ("search", "--method", "williamson", "--k", 3)
    else:
        path = tmp_path / "pair.ising"
        path.write_text("c 0\nJ 0 1 1\n")
        argv = ("solve", path)
    out = tmp_path / "out"
    # `=` keeps argparse from reading -inf as an option
    assert run(*argv, "--solver", "anneal", f"{flag}={value}", "--out", out) == 2
    name = flag[2:].replace("-", "_")
    assert f"got {name}={value}\n" in capsys.readouterr().err
    assert not out.exists()


def test_successive_calls_share_no_state(tmp_path, monkeypatch):
    # the parser is built once; dispatch still finds a replaced cmd_* function
    assert cli._build_parser() is cli._build_parser()
    seen = []
    for name in ("cmd_search", "cmd_solve"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    assert run("search", "--method", "turyn", "--n", 6, "--seed", 5, "--reads", 7,
               "--solver", "anneal", "--beta-end", 3, "--prototype-index", 1,
               "--out", tmp_path / "a") == 0
    assert run("solve", tmp_path / "model.poly", "--all-ground", "--cap", 12) == 0
    assert run("search", "--method", "williamson", "--k", 3) == 0
    first, solve, last = seen
    assert (first["seed"], first["reads"], first["solver"], first["beta_end"]) == (5, 7, "anneal", 3.0)
    assert (solve["command"], solve["all_ground"], solve["cap"]) == ("solve", True, 12)
    assert last == {
        "command": "search", "method": "williamson", "k": 3, "n": None, "m": 2,
        "prototype_index": None, "out": ".", "seed": 0, "reads": 1000, "sweeps": 1000,
        "cap": 26, "solver": "auto", "beta_start": None, "beta_end": None,
    }


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

    def test_prototype_index_selects_that_prototype(self, tmp_path):
        assert run("prototypes", "--n", 8, "--m", 2, "--out", tmp_path) == 0
        lines = (tmp_path / "prototypes_n8_m2.txt").read_text().splitlines()
        out = tmp_path / "x8"
        assert run("build", "--method", "extended-turyn", "--n", 8, "--m", 2,
                   "--prototype-index", 1, "--out", out) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["prototype_index"] == "1"
        assert manifest["prototype"] == lines[1]


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

    def test_beta_flags_reach_the_annealer(self, tmp_path):
        out = tmp_path / "w3b"
        assert run("search", "--method", "williamson", "--k", 3, "--solver", "anneal",
                   "--reads", 20, "--sweeps", 30, "--seed", 4,
                   "--beta-start", 0.05, "--beta-end", 0.5, "--out", out) == 0
        sset = solver.anneal(cons.williamson_residuals(3), reads=20, sweeps=30,
                             beta_start=0.05, beta_end=0.5, seed=4)
        assert (out / "samples.txt").read_text() == sset.to_text()

    def test_auto_anneals_above_cap(self, tmp_path):
        out = tmp_path / "w5"
        assert run("search", "--method", "williamson", "--k", 5, "--cap", 10,
                   "--reads", 100, "--sweeps", 100, "--seed", 0, "--out", out) == 0
        # annealing writes one occurrence per read; enumeration, the ground states
        lines = (out / "samples.txt").read_text().splitlines()
        assert sum(int(line.split()[1]) for line in lines) == 100
        H = hm.load_matrix(out / "matrix.txt")
        assert H.shape == (20, 20) and hm.verify(H)[0]

    def test_failed_search_reports_and_writes_samples(self, tmp_path):
        out = tmp_path / "fail"
        code = run("search", "--method", "turyn", "--n", 6, "--solver", "anneal",
                   "--reads", 1, "--sweeps", 1, "--seed", 0, "--out", out)
        assert code == 1
        assert (out / "samples.txt").exists()
        assert not (out / "matrix.txt").exists()
        assert read_manifest(out / "manifest.txt")["verified"] == "no"

    def test_exhaustive_above_cap_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w5"
        assert run("search", "--method", "williamson", "--k", 5, "--solver", "exhaustive",
                   "--cap", 10, "--out", out) == 2
        assert "error: 12 variables exceed the exhaustive cap of 10\n" in capsys.readouterr().err
        assert not out.exists()

    def test_prototype_without_zero_state_reports_its_minimum(self, tmp_path):
        out = tmp_path / "x8p2"
        assert run("search", "--method", "extended-turyn", "--n", 8, "--m", 2,
                   "--prototype-index", 2, "--out", out) == 1
        manifest = read_manifest(out / "manifest.txt")
        assert (manifest["min_energy"], manifest["verified"]) == ("4", "no")
        assert not (out / "matrix.txt").exists()

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

    def test_non_decimal_integer_token_is_usage_error(self, tmp_path):
        path = tmp_path / "underscore.poly"
        path.write_text("domain spin\nnvars 2\n1_0 0 1\n", encoding="utf-8")
        assert run("solve", path, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "samples.txt").exists()

    def test_integer_past_conversion_limit_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "long.poly"
        path.write_text(f"domain spin\nnvars 2\n{'1' * 5000} 0 1\n", encoding="utf-8")
        assert run("solve", path, "--out", tmp_path / "o") == 2
        assert "integer of 5000 digits" in capsys.readouterr().err
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

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"],
                             ids=["empty", "comment-only"])
    def test_file_without_content_is_usage_error(self, tmp_path, text):
        path = tmp_path / "blank.ising"
        path.write_text(text)
        assert run("solve", path, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "samples.txt").exists()

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
