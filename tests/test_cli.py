"""Command-line surface: flag grammar, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rowsketch import (SparseRowMatrix, read_sample, read_scores, read_weights,
                       write_matrix_market)
from rowsketch import cli, pipelines
from rowsketch.cli import main

from conftest import (conditioned_matrix, gaussian_matrix, isolated_direction_matrix,
                      power_law_matrix)


@pytest.fixture
def identity_mtx(tmp_path):
    p = tmp_path / "identity.mtx"
    write_matrix_market(p, SparseRowMatrix.from_dense(np.eye(6)))
    return str(p)


@pytest.fixture
def random_mtx(tmp_path):
    p = tmp_path / "random.mtx"
    write_matrix_market(p, gaussian_matrix(512, 8, 17))
    return str(p)


class TestScores:
    def test_identity_scores_all_one(self, identity_mtx, tmp_path):
        out = tmp_path / "scores.tsv"
        assert main(["scores", identity_mtx, "-o", str(out)]) == 0
        s = read_scores(out)
        np.testing.assert_allclose(s.values, np.ones(6))

    def test_generalized_with_rank_deficient_reference_prints_inf(self, tmp_path, identity_mtx):
        ref = tmp_path / "ref.mtx"
        write_matrix_market(ref, SparseRowMatrix.from_dense(np.eye(6)[:3]))
        out = tmp_path / "scores.tsv"
        assert main(["scores", identity_mtx, "--wrt", str(ref), "-o", str(out)]) == 0
        assert "\tinf" in out.read_text()
        s = read_scores(out)
        assert s.infinite.sum() == 3

    def test_fast_within_distortion_of_exact(self, tmp_path, random_mtx):
        exact_out = tmp_path / "exact.tsv"
        fast_out = tmp_path / "fast.tsv"
        assert main(["scores", random_mtx, "--wrt", random_mtx, "-o", str(exact_out)]) == 0
        assert main(["scores", random_mtx, "--wrt", random_mtx, "--fast",
                     "--theta", "0.5", "-o", str(fast_out)]) == 0
        exact = read_scores(exact_out).values
        fast = read_scores(fast_out).values
        safety = 8 ** 0.5
        assert np.all(fast >= exact * (1 - 1e-6))
        assert np.all(fast <= safety * safety * exact + 1e-9)

    def test_stdout_matches_output_file(self, tmp_path, identity_mtx, capsys):
        ref = tmp_path / "ref.mtx"
        write_matrix_market(ref, SparseRowMatrix.from_dense(np.eye(6)[:3]))
        out = tmp_path / "scores.tsv"
        assert main(["scores", identity_mtx, "--wrt", str(ref), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["scores", identity_mtx, "--wrt", str(ref)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["scores", str(tmp_path / "nope.mtx")]) == 2
        assert "rowsketch:" in capsys.readouterr().err

    def test_non_ascii_byte_exits_2_with_location(self, tmp_path, capsys):
        p = tmp_path / "bad.mtx"
        p.write_bytes("%%MatrixMarket matrix coordinate real general\n"
                      "% café\n1 1 1\n1 1 1\n".encode("utf-8"))
        assert main(["scores", str(p)]) == 2
        assert capsys.readouterr().err == f"rowsketch: {p}:2: non-ASCII byte 0xc3\n"

    def test_reference_with_other_columns_exits_2_naming_file(self, tmp_path, identity_mtx,
                                                              capsys):
        ref = tmp_path / "b.mtx"
        write_matrix_market(ref, SparseRowMatrix.from_dense(np.eye(4)))
        assert main(["scores", identity_mtx, "--wrt", str(ref)]) == 2
        assert capsys.readouterr().err == f"rowsketch: {ref}: 4 columns, matrix has 6\n"

    def test_fast_without_reference_exits_2(self, tmp_path, identity_mtx, capsys):
        # a flag whose companion is missing is refused before any work
        out = tmp_path / "scores.tsv"
        for flags, err in ((["--fast"], "--fast requires --wrt"),
                           (["--theta", "0.5"], "--theta requires --fast"),
                           (["--wrt", identity_mtx, "--theta", "0.5"], "--theta requires --fast")):
            assert main(["scores", identity_mtx, *flags, "-o", str(out)]) == 2
            assert capsys.readouterr().err == f"rowsketch: {err}\n"
            assert not out.exists()


class TestSketchAndVerify:
    def test_sketch_writes_sample_and_report(self, tmp_path, random_mtx):
        sample_p = tmp_path / "s.tsv"
        report_p = tmp_path / "r.json"
        code = main(["sketch", random_mtx, "--method", "halving", "--seed", "3",
                     "-o", str(sample_p), "--report", str(report_p)])
        assert code == 0
        report = json.loads(report_p.read_text())
        S = read_sample(sample_p)
        assert report["rows_kept"] == len(S)
        assert report["seed"] == 3
        assert "wall_time_s" in report

    def test_verify_accepts_good_sample(self, tmp_path, random_mtx):
        sample_p = tmp_path / "s.tsv"
        main(["sketch", random_mtx, "--seed", "3", "-o", str(sample_p)])
        rep_p = tmp_path / "v.json"
        assert main(["verify", random_mtx, str(sample_p), "--lambda", "3.0",
                     "--report", str(rep_p)]) == 0
        assert json.loads(rep_p.read_text())["passes"] is True

    def test_verify_full_sample_at_tight_lambda(self, tmp_path, random_mtx):
        # identity sample: passes at lambda barely above 1, and at lambda = 1
        # for criterion 11's condition-1e6 matrix, which a squared Gram
        # matrix misses by 8e-5
        from rowsketch import WeightedRowSample, write_sample
        cond_mtx = tmp_path / "cond.mtx"
        write_matrix_market(cond_mtx, conditioned_matrix(1e6))
        for mtx, n, lam in ((random_mtx, 512, "1.000001"), (str(cond_mtx), 4096, "1")):
            sample_p = tmp_path / f"full{n}.tsv"
            write_sample(sample_p, WeightedRowSample.identity(n))
            assert main(["verify", mtx, str(sample_p), "--lambda", lam]) == 0, mtx

    def test_verify_rejects_rank_dropping_sample(self, tmp_path):
        A = isolated_direction_matrix(64, 6, 5)
        mtx = tmp_path / "iso.mtx"
        write_matrix_market(mtx, A)
        from rowsketch import WeightedRowSample, write_sample
        sample_p = tmp_path / "drop.tsv"
        # drop the isolated final row
        write_sample(sample_p, WeightedRowSample(64, np.arange(63), np.ones(63)))
        rep_p = tmp_path / "v.json"
        assert main(["verify", str(mtx), str(sample_p), "--lambda", "1000000",
                     "--report", str(rep_p)]) == 1
        assert json.loads(rep_p.read_text())["rank_match"] is False

    @pytest.mark.parametrize("body,line", [("0\t1\n3\t1\n3\t1\n", 5),
                                           ("0\t1\n512\t1\n", 4),
                                           ("0\t1\n1\t0\n", 4)],
                             ids=["duplicate-index", "index-out-of-range", "zero-weight"])
    def test_bad_sample_entry_exits_2_with_location(self, tmp_path, random_mtx, capsys, body, line):
        sample_p = tmp_path / "s.tsv"
        sample_p.write_text("# parent_rows=512\nrow_index\tweight\n" + body)
        assert main(["verify", random_mtx, str(sample_p), "--lambda", "3.0"]) == 2
        assert capsys.readouterr().err.startswith(f"rowsketch: {sample_p}:{line}: ")

    def test_sample_for_another_matrix_exits_2_at_line_1(self, tmp_path, random_mtx, capsys):
        sample_p = tmp_path / "s.tsv"
        sample_p.write_text("# parent_rows=5\nrow_index\tweight\n0\t1\n")
        assert main(["verify", random_mtx, str(sample_p), "--lambda", "3.0"]) == 2
        assert capsys.readouterr().err == (
            f"rowsketch: {sample_p}:1: sample built for 5 rows, matrix has 512\n")

    @pytest.mark.parametrize("flags", [["--method", "generic"], ["--preset", "sqrt"]])
    def test_generic_scheme_flags_are_usage_errors(self, tmp_path, random_mtx, capsys, flags):
        out = tmp_path / "s.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["sketch", random_mtx, *flags, "-o", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ")
        assert not out.exists()

    def test_depth_cap_exits_2_naming_the_matrix(self, tmp_path, random_mtx, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(pipelines, "_depth_cap", lambda n, d: 0)
        x_p = tmp_path / "s.tsv"
        assert main(["sketch", random_mtx, "-o", str(x_p)]) == 2
        assert capsys.readouterr().err == (
            f"rowsketch: {random_mtx}: halving recursion exceeded depth cap 0\n")
        assert not x_p.exists()

    def test_unknown_flag_rejected(self, random_mtx, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sketch", random_mtx, "--bogus", "-o", str(tmp_path / "s.tsv")])
        assert err.value.code == 2


class TestReweight:
    def test_alpha_targets_with_certificate(self, tmp_path):
        A = power_law_matrix(128, 4, 3)
        mtx = tmp_path / "p.mtx"
        write_matrix_market(mtx, A)
        w_p = tmp_path / "w.tsv"
        rep_p = tmp_path / "c.json"
        code = main(["reweight", str(mtx), "--alpha", "0.0625",
                     "-o", str(w_p), "--report", str(rep_p)])
        assert code == 0
        cert = json.loads(rep_p.read_text())
        assert cert["converged"] is True
        assert cert["reweighted_mass"] <= 4 + 1e-6
        W = read_weights(w_p)
        assert len(W) == 128

    def test_report_counts_updates_and_factorizations(self, tmp_path):
        A = gaussian_matrix(64, 4, 3)
        mtx = tmp_path / "g.mtx"
        write_matrix_market(mtx, A)
        rep_p = tmp_path / "c.json"
        assert main(["reweight", str(mtx), "--alpha", "1.0", "-o", str(tmp_path / "w.tsv"),
                     "--report", str(rep_p)]) == 0
        cert = json.loads(rep_p.read_text())
        assert (cert["reweighted_count"], cert["updates"], cert["factorizations"]) == (0, 0, 1)

    def test_explicit_targets_file(self, tmp_path, identity_mtx):
        from rowsketch import ScoreVector, write_scores
        targets = tmp_path / "u.tsv"
        write_scores(targets, ScoreVector.from_finite(np.full(6, 2.0)))
        w_p = tmp_path / "w.tsv"
        assert main(["reweight", identity_mtx, "--targets", str(targets),
                     "-o", str(w_p), "--report", str(tmp_path / "c.json")]) == 0
        np.testing.assert_array_equal(read_weights(w_p).weights, np.ones(6))

    def test_zero_row_matrix_gives_empty_weights(self, tmp_path, capsys):
        mtx = tmp_path / "empty.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n0 5 0\n")
        w_p = tmp_path / "w.tsv"
        assert main(["reweight", str(mtx), "--alpha", "0.5", "-o", str(w_p)]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True
        assert len(read_weights(w_p)) == 0

    def test_requires_exactly_one_target_flag(self, identity_mtx, tmp_path):
        assert main(["reweight", identity_mtx, "-o", str(tmp_path / "w.tsv")]) == 2

    @pytest.mark.parametrize("bad", ["x\t1", "1\tabc", "1\tnan", "1\t-1", "1\t0", "1\tinf"])
    def test_malformed_targets_exit_2_with_location(self, identity_mtx, tmp_path, capsys, bad):
        targets = tmp_path / "t.tsv"
        targets.write_text(f"row_index\tscore\n0\t1\n{bad}\n")
        w_p = tmp_path / "w.tsv"
        assert main(["reweight", identity_mtx, "--targets", str(targets), "-o", str(w_p)]) == 2
        assert capsys.readouterr().err.startswith(f"rowsketch: {targets}:3: ")
        assert not w_p.exists()

    def test_target_fault_named_before_a_later_syntax_fault(self, identity_mtx, tmp_path, capsys):
        targets = tmp_path / "t.tsv"
        targets.write_text("row_index\tscore\n0\t1\n1\t0\nx\t1\n")
        w_p = tmp_path / "w.tsv"
        assert main(["reweight", identity_mtx, "--targets", str(targets), "-o", str(w_p)]) == 2
        assert capsys.readouterr().err == (
            f"rowsketch: {targets}:3: target must be positive and finite, not '0'\n")
        assert not w_p.exists()


    def test_targets_for_another_matrix_exit_2_naming_file(self, identity_mtx, tmp_path, capsys):
        targets = tmp_path / "t.tsv"
        targets.write_text("row_index\tscore\n0\t1\n1\t1\n2\t1\n")
        w_p = tmp_path / "w.tsv"
        assert main(["reweight", identity_mtx, "--targets", str(targets), "-o", str(w_p)]) == 2
        assert capsys.readouterr().err == (
            f"rowsketch: {targets}: 3 targets for a matrix of 6 rows\n")
        assert not w_p.exists()


class TestSolve:
    def test_consistent_system(self, tmp_path):
        A = gaussian_matrix(1024, 6, 23)
        mtx = tmp_path / "a.mtx"
        write_matrix_market(mtx, A)
        x_star = np.random.default_rng(1).standard_normal(6)
        b = A.to_dense() @ x_star
        rhs = tmp_path / "b.tsv"
        with open(rhs, "w") as fh:
            fh.write("row_index\tvalue\n")
            for i, v in enumerate(b):
                fh.write(f"{i}\t{v:.17g}\n")
        x_p = tmp_path / "x.tsv"
        rep_p = tmp_path / "r.json"
        assert main(["solve", str(mtx), str(rhs), "-o", str(x_p),
                     "--report", str(rep_p)]) == 0
        rep = json.loads(rep_p.read_text())
        assert rep["converged"] is True
        with open(x_p) as fh:
            lines = fh.read().splitlines()[1:]
        x = np.array([float(ln.split("\t")[1]) for ln in lines])
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-6

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rhs_exits_2_with_location(self, tmp_path, random_mtx, capsys, bad):
        rhs = tmp_path / "b.tsv"
        rhs.write_text("row_index\tvalue\n" + "".join(
            f"{i}\t{bad if i == 7 else 1.0}\n" for i in range(512)))
        x_p = tmp_path / "x.tsv"
        assert main(["solve", random_mtx, str(rhs), "-o", str(x_p)]) == 2
        err = capsys.readouterr()
        assert err.err == f"rowsketch: {rhs}:9: non-finite value '{bad}'\n"
        assert err.out == ""
        assert not x_p.exists()


    @pytest.mark.parametrize("shape", [(0, 4), (5, 0), (5, 4)])
    def test_matrix_without_rank_exits_2_naming_it(self, tmp_path, capsys, shape):
        mtx = tmp_path / "zero.mtx"
        n, d = shape
        write_matrix_market(mtx, SparseRowMatrix.from_coo(n, d, [], [], []))
        rhs = tmp_path / "b.tsv"
        rhs.write_text("row_index\tvalue\n" + "".join(f"{i}\t1\n" for i in range(n)))
        x_p = tmp_path / "x.tsv"
        assert main(["solve", str(mtx), str(rhs), "-o", str(x_p)]) == 2
        err = capsys.readouterr()
        assert err.err == f"rowsketch: {mtx}: sketch has rank zero; cannot precondition\n"
        assert err.out == ""
        assert not x_p.exists()

    def test_rhs_for_another_matrix_exits_2_before_sketching(self, tmp_path, random_mtx,
                                                              capsys, monkeypatch):
        def no_sketch(*args, **kwargs):
            raise AssertionError("sketched before checking the right-hand side")

        monkeypatch.setattr(cli, "repeated_halving", no_sketch)
        rhs = tmp_path / "b.tsv"
        rhs.write_text("row_index\tvalue\n" + "".join(f"{i}\t1\n" for i in range(100)))
        x_p = tmp_path / "x.tsv"
        assert main(["solve", random_mtx, str(rhs), "-o", str(x_p)]) == 2
        assert capsys.readouterr().err == (
            f"rowsketch: {rhs}: 100 values for a matrix of 512 rows\n")
        assert not x_p.exists()


class TestOneColumn:
    """Every command that estimates at the default theta runs on a
    one-column file, where 1/ln d would leave (0, 1]."""

    @pytest.fixture
    def column_mtx(self, tmp_path):
        p = tmp_path / "column.mtx"
        write_matrix_market(p, gaussian_matrix(3000, 1, 29))
        return str(p)

    @pytest.mark.parametrize("method", ["halving", "input-sparsity"])
    def test_sketch_and_verify(self, tmp_path, column_mtx, method):
        sample_p, report_p = tmp_path / "s.tsv", tmp_path / "r.json"
        assert main(["sketch", column_mtx, "--method", method, "-o", str(sample_p),
                     "--report", str(report_p)]) == 0
        lam = json.loads(report_p.read_text())["check_lambda"]
        assert main(["verify", column_mtx, str(sample_p), "--lambda", str(lam),
                     "--report", str(tmp_path / "v.json")]) == 0

    def test_solve(self, tmp_path, column_mtx):
        rhs = tmp_path / "b.tsv"
        rhs.write_text("row_index\tvalue\n" + "".join(f"{i}\t{i % 7 - 3}\n" for i in range(3000)))
        assert main(["solve", column_mtx, str(rhs), "-o", str(tmp_path / "x.tsv"),
                     "--report", str(tmp_path / "r.json")]) == 0

    def test_fast_scores(self, tmp_path, column_mtx):
        out = tmp_path / "scores.tsv"
        assert main(["scores", column_mtx, "--wrt", column_mtx, "--fast", "-o", str(out)]) == 0
        assert len(read_scores(out)) == 3000


class TestUsageErrors:
    def test_bad_counts_and_tolerances_exit_2_not_1(self, tmp_path, random_mtx, capsys):
        from rowsketch import WeightedRowSample, write_sample
        rhs = tmp_path / "b.tsv"
        rhs.write_text("row_index\tvalue\n" + "".join(f"{i}\t1\n" for i in range(512)))
        full = tmp_path / "full.tsv"
        write_sample(full, WeightedRowSample.identity(512))  # passes at any lambda
        out = str(tmp_path / "out.tsv")
        cases = (
            (["reweight", random_mtx, "--alpha", "0.5", "--max-sweeps", "0", "-o", out],
             "max_sweeps must be at least 1"),
            (["reweight", random_mtx, "--alpha", "0.5", "--max-sweeps", "-3", "-o", out],
             "max_sweeps must be at least 1"),
            (["solve", random_mtx, str(rhs), "--max-iters", "0", "-o", out],
             "max_iters must be at least 1"),
            (["solve", random_mtx, str(rhs), "--tol", "-1", "-o", out],
             "tol must be nonnegative"),
            (["verify", random_mtx, str(full), "--lambda", "2", "--tol", "-1"],
             "tol must be nonnegative"),
        )
        for argv, message in cases:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == f"rowsketch: {message}\n", argv
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("sketch", "--c", "nan", "c must be positive and finite"),
        ("sketch", "--c", "inf", "c must be positive and finite"),
        ("verify", "--lambda", "nan", "lambda must be at least 1"),
        ("reweight", "--tol", "nan", "tol must be positive"),
    ])
    def test_nan_and_infinite_parameters_exit_2(self, tmp_path, identity_mtx, capsys,
                                                command, flag, value, message):
        # NaN fails every comparison, so each bound is checked in a form NaN fails
        from rowsketch import WeightedRowSample, write_sample
        full = tmp_path / "full.tsv"
        write_sample(full, WeightedRowSample.identity(6))
        out, report = tmp_path / "out.tsv", tmp_path / "report.json"
        argv = {
            "sketch": ["sketch", identity_mtx, "-o", str(out)],
            "verify": ["verify", identity_mtx, str(full), "--lambda", "2"],
            "reweight": ["reweight", identity_mtx, "--alpha", "0.5", "-o", str(out)],
        }[command]
        assert main(argv + [flag, value, "--report", str(report)]) == 2
        assert capsys.readouterr().err == f"rowsketch: {message}\n"
        assert not out.exists() and not report.exists()


class TestBench:
    def test_table_shape_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "b1.tsv", tmp_path / "b2.tsv"
        assert main(["bench", "--suite", "desk", "--seed", "1", "-o", str(out1)]) == 0
        assert main(["bench", "--suite", "desk", "--seed", "1", "-o", str(out2)]) == 0
        rows1 = out1.read_text().splitlines()
        rows2 = out2.read_text().splitlines()
        assert len(rows1) == 1 + 6  # header + 2 matrices x 3 methods
        strip = lambda lines: ["\t".join(ln.split("\t")[:-1]) for ln in lines]
        assert strip(rows1) == strip(rows2)  # identical non-timing columns


class TestDeterminism:
    def test_all_outputs_byte_identical_across_reruns(self, tmp_path, random_mtx):
        outs = []
        for tag in ("one", "two"):
            sample_p = tmp_path / f"s_{tag}.tsv"
            scores_p = tmp_path / f"sc_{tag}.tsv"
            main(["sketch", random_mtx, "--method", "refinement", "--seed", "7",
                  "-o", str(sample_p), "--report", str(tmp_path / f"rep_{tag}.json")])
            main(["scores", random_mtx, "--wrt", random_mtx, "--fast",
                  "--seed", "7", "-o", str(scores_p)])
            outs.append((sample_p.read_bytes(), scores_p.read_bytes()))
        assert outs[0] == outs[1]

    def test_reports_identical_apart_from_timing(self, tmp_path, random_mtx):
        reports = []
        for tag in ("one", "two"):
            rep_p = tmp_path / f"rep_{tag}.json"
            main(["sketch", random_mtx, "--seed", "5", "-o",
                  str(tmp_path / f"s_{tag}.tsv"), "--report", str(rep_p)])
            rep = json.loads(rep_p.read_text())
            rep.pop("wall_time_s")
            reports.append(rep)
        assert reports[0] == reports[1]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def at_blas_threads(threads, *args):
    """Standard output of ``python *args``, with rowsketch from this
    checkout and every BLAS library held to ``threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True,
                          timeout=600).stdout


class TestBlasThreads:
    """Outputs keep their bytes at one and at two BLAS threads, at sizes
    where OpenBLAS splits one QR of all the rows over its threads."""

    def test_halving_sample(self, tmp_path):
        mtx = tmp_path / "gaussian.mtx"
        write_matrix_market(mtx, gaussian_matrix(20000, 64, 1))
        samples = []
        for threads in (1, 2):
            out = tmp_path / f"sample-{threads}.tsv"
            at_blas_threads(threads, "-m", "rowsketch.cli", "sketch", str(mtx), "--method",
                            "halving", "--seed", "1", "-o", str(out),
                            "--report", str(tmp_path / "report.json"))
            samples.append(out.read_bytes())
        assert samples[0] == samples[1]

    def test_factor_gram(self):
        code = ("import sys, numpy as np\n"
                "from rowsketch import SparseRowMatrix, factor_gram\n"
                "dense = np.random.default_rng(7).standard_normal((12000, 100))\n"
                "f = factor_gram(SparseRowMatrix.from_dense(dense))\n"
                "sys.stdout.buffer.write(f.singular_values.tobytes()"
                " + f.right_singular_vectors.tobytes())\n")
        assert at_blas_threads(1, "-c", code) == at_blas_threads(2, "-c", code)
