"""End-to-end tests of the command-line interface and its exit codes."""

import csv

import numpy as np
import pytest

from lcl import cli, similarity as sm


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def workspace(tmp_path):
    """Generated synthetic data plus an embedding-cosine similarity file."""
    out = tmp_path / "data"
    code = run(["gen-data", "--superclusters", "2",
                "--classes-per-supercluster", "2", "--dim", "6",
                "--train-per-class", "8", "--test-per-class", "8",
                "--intra-spread", "0.5", "--inter-spread", "2.0",
                "--noise-sigma", "0.5", "--seed", "0",
                "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    sim_path = out / "sim.csv"
    code = run(["build-sim", "--kind", "embedding",
                "--in", str(out / "embeddings.txt"), "--out", str(sim_path)])
    assert code == cli.EXIT_OK
    return out


class TestGenData:
    def test_writes_all_files(self, workspace):
        for name in ("train.csv", "test.csv", "embeddings.txt"):
            assert (workspace / name).exists()

    # 10**14 rows per class are 455 PiB of features: more than any address
    # space, so the allocation fails whole; larger counts are refused by numpy
    # before any allocation, as no array can be that large
    @pytest.mark.parametrize("flag", ["train-per-class", "test-per-class"])
    @pytest.mark.parametrize("count, reason", [(10 ** 14, "PiB"), (10 ** 17, "array is too big"),
                                               (10 ** 20, "dimension exceeded")])
    def test_counts_too_large_to_allocate_are_usage_errors(self, tmp_path, capsys, flag,
                                                           count, reason):
        out = tmp_path / "out"
        assert run(["gen-data", f"--{flag}", str(count), "--out-dir", str(out)]) \
            == cli.EXIT_USAGE
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("error: synthetic data too large to generate: ") and reason in line
        assert not out.exists()


class TestBuildSim:
    def test_output_loads_and_validates(self, workspace, capsys):
        sim = sm.load_similarity(workspace / "sim.csv")
        assert sim.num_classes == 4
        assert np.array_equal(sim.entries, sim.entries.T)

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["build-sim", "--kind", "embedding", "--in",
                    str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "o.csv")]) == cli.EXIT_USAGE

    def test_hierarchy_kind(self, tmp_path):
        h = tmp_path / "h.txt"
        h.write_text("root p1\nroot p2\np1 a\np1 b\np2 c\n@leaves a b c\n")
        out = tmp_path / "sim.csv"
        assert run(["build-sim", "--kind", "hierarchy", "--in", str(h),
                    "--out", str(out)]) == cli.EXIT_OK
        sim = sm.load_similarity(out)
        assert sim.entries[0, 1] > sim.entries[0, 2]

    def test_no_clamp_rejects_negative_cosines(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1 0\nb -1 0.1\n")
        assert run(["build-sim", "--kind", "embedding", "--in", str(emb),
                    "--out", str(tmp_path / "o.csv"),
                    "--no-clamp"]) == cli.EXIT_USAGE


class TestVerify:
    def test_valid_curriculum_passes(self, workspace, capsys):
        code = run(["verify", "--sim", str(workspace / "sim.csv"),
                    "--epsilon", "0.9", "--horizon", "50"])
        assert code == cli.EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_invalid_similarity_fails_before_stepping(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,1.0\n1.0,1.0\n")  # off-diagonal reaches 1
        code = run(["verify", "--sim", str(bad), "--epsilon", "0.9"])
        assert code == cli.EXIT_FAIL
        assert "failed before stepping" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["verify", "--sim", str(tmp_path / "nope.csv"),
                    "--epsilon", "0.9"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("epsilon", ["1.5", "nan", "0", "-1"])
    def test_epsilon_outside_open_unit_is_usage_error(self, tmp_path, capsys, epsilon):
        # it used to read the file, then fail "before stepping" with exit 1
        assert run(["verify", "--sim", str(tmp_path / "nope.csv"),
                    "--epsilon", epsilon]) == cli.EXIT_USAGE
        assert "argument --epsilon: must lie in (0, 1)" in capsys.readouterr().err

    def test_tied_normalised_rows_fail_before_stepping(self, tmp_path, capsys):
        # a valid matrix whose row 0 ties its diagonal once divided by the row sum
        sim = tmp_path / "tie.csv"
        x = repr(1.0 - 2.0 ** -53)
        sim.write_text(f"a,b,c,d\n1.0,{x},0.9,0.9\n{x},1.0,0.9,0.9\n"
                       "0.9,0.9,1.0,0.0\n0.9,0.9,0.0,1.0\n")
        assert run(["verify", "--sim", str(sim), "--epsilon", "0.9"]) == cli.EXIT_FAIL
        assert capsys.readouterr().out == ("verification failed before stepping: "
                                           "row 0: argmax is not the true class\n")

    def test_bad_flag_is_usage_error(self):
        assert run(["verify", "--epsilon", "0.9"]) == cli.EXIT_USAGE

    def test_horizon_too_large_to_allocate_is_usage_error(self, workspace, capsys):
        # 10**14 steps x 4 classes of entropies is 3.2 PB: more than any address
        # space, so the allocation fails whole, before any of it is touched
        assert run(["verify", "--sim", str(workspace / "sim.csv"), "--epsilon", "0.9",
                    "--horizon", str(10 ** 14)]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        line, = err.splitlines()
        assert line.startswith(f"error: horizon {10 ** 14} is too long: ") and "PiB" in line

    @pytest.mark.parametrize("horizon, reason", [(10 ** 18, "array is too big"),
                                                 (10 ** 20, "dimension exceeded")])
    def test_horizon_beyond_any_array_is_usage_error(self, workspace, capsys, horizon,
                                                     reason):
        # numpy refuses these sizes before any allocation
        assert run(["verify", "--sim", str(workspace / "sim.csv"), "--epsilon", "0.9",
                    "--horizon", str(horizon)]) == cli.EXIT_USAGE
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: horizon {horizon} is too long: ") and reason in line


class TestRunAndReport:
    def write_config(self, workspace, out_dir):
        cfg = workspace / "exp.cfg"
        cfg.write_text(
            "[paths]\n"
            f"train = {workspace / 'train.csv'}\n"
            f"test = {workspace / 'test.csv'}\n"
            f"similarity = {workspace / 'sim.csv'}\n"
            f"out_dir = {out_dir}\n"
            "[grid]\n"
            "encodings = SL LCL\n"
            "epsilons = 0.9\n"
            "drs = 1.0\n"
            "seeds = 0 1\n"
            "[training]\n"
            "epochs = 3\n"
            "batch_size = 4\n"
            "lr = 0.05\n")
        return cfg

    def test_run_writes_results(self, workspace, capsys):
        out_dir = workspace / "results"
        cfg = self.write_config(workspace, out_dir)
        assert run(["run", str(cfg)]) == cli.EXIT_OK
        assert (out_dir / "raw_results.csv").exists()
        assert (out_dir / "aggregate.csv").exists()
        assert (out_dir / "rank_report.txt").exists()
        assert "avg rank" in capsys.readouterr().out

    def test_report_from_raw_csv(self, workspace, capsys):
        out_dir = workspace / "results"
        cfg = self.write_config(workspace, out_dir)
        assert run(["run", str(cfg)]) == cli.EXIT_OK
        rep_dir = workspace / "report"
        assert run(["report", str(out_dir / "raw_results.csv"),
                    "--out-dir", str(rep_dir)]) == cli.EXIT_OK
        with open(rep_dir / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # SL and LCL(eps=0.9)
        for row in rows:
            assert 2 == int(row["n_trials"])

    def test_report_missing_columns_is_usage_error(self, tmp_path):
        bad = tmp_path / "raw.csv"
        bad.write_text("config_id,top1\nx,0.5\n")
        assert run(["report", str(bad),
                    "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE

    def test_run_missing_config_is_usage_error(self, tmp_path):
        assert run(["run", str(tmp_path / "nope.cfg")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_run_jobs_below_one_is_usage_error(self, workspace, capsys, jobs):
        # --jobs 0 used to run serially without a word
        out_dir = workspace / "results"
        cfg = self.write_config(workspace, out_dir)
        assert run(["run", str(cfg), "--jobs", jobs]) == cli.EXIT_USAGE
        assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_run_config_without_sections(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("[paths]\ntrain = a\n")
        assert run(["run", str(cfg)]) == cli.EXIT_USAGE


class TestParser:
    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_help_exits_ok(self):
        assert run(["--help"]) == cli.EXIT_OK
