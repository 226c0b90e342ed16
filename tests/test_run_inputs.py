"""`lcl run` checks its train/test/similarity files against each other
before any training, takes no --debug-verify-curriculum flag, and a skipped
rank test names the methods that lost trials."""

import pytest

from lcl import cli, data, experiments as ex, similarity as sm


def gen(out, superclusters, dim=6):
    code = cli.main(["gen-data", "--superclusters", str(superclusters),
                     "--classes-per-supercluster", "2", "--dim", str(dim),
                     "--train-per-class", "6", "--test-per-class", "6",
                     "--seed", "0", "--out-dir", str(out)])
    assert code == cli.EXIT_OK
    code = cli.main(["build-sim", "--kind", "embedding", "--in", str(out / "embeddings.txt"),
                     "--out", str(out / "sim.csv")])
    assert code == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Two generated tasks: four classes and six classes, both 6-d."""
    root = tmp_path_factory.mktemp("inputs")
    return gen(root / "c4", 2), gen(root / "c6", 3)


def write_config(path, train, test, sim, out_dir, encodings="SL LCL"):
    path.write_text(
        "[paths]\n"
        f"train = {train}\ntest = {test}\nsimilarity = {sim}\nout_dir = {out_dir}\n"
        f"[grid]\nencodings = {encodings}\nepsilons = 0.9\nseeds = 0 1\n"
        "[training]\nepochs = 2\nbatch_size = 4\n")
    return path


class TestMismatchedInputs:
    def test_similarity_class_count_exits_2_before_training(self, files, tmp_path, capsys):
        c4, c6 = files
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", c6 / "train.csv", c6 / "test.csv",
                           c4 / "sim.csv", out_dir)
        assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(c4 / "sim.csv") in err
        assert "similarity has 4 classes, the data 6" in err
        assert not (out_dir / "raw_results.csv").exists()

    def test_train_test_class_count_exits_2_before_training(self, files, tmp_path, capsys):
        c4, c6 = files
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", c4 / "train.csv", c6 / "test.csv",
                           c4 / "sim.csv", out_dir, encodings="SL")
        assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(c4 / "train.csv") in err and str(c6 / "test.csv") in err
        assert "train/test mismatch: 6 vs 6 features, 4 vs 6 classes" in err
        assert not (out_dir / "raw_results.csv").exists()

    def test_similarity_unused_without_lcl(self, files, tmp_path):
        # an SL grid never loads the similarity file, so it cannot mismatch
        c4, c6 = files
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", c6 / "train.csv", c6 / "test.csv",
                           c4 / "sim.csv", out_dir, encodings="SL")
        assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
        assert (out_dir / "raw_results.csv").exists()

    def test_check_inputs_is_run_trials_check(self, files):
        c4, c6 = files
        train = data.load_dataset(c6 / "train.csv")
        test = data.load_dataset(c6 / "test.csv")
        sim = sm.load_similarity(c4 / "sim.csv")
        sl, lcl = ex.ExperimentConfig("SL"), ex.ExperimentConfig("LCL", epsilon=0.9)
        with pytest.raises(ex.ExperimentError, match="similarity has 4 classes"):
            ex.check_inputs([sl, lcl], train, test, sim)
        with pytest.raises(ex.ExperimentError, match="similarity has 4 classes"):
            ex.run_trial(sl, 0, train, test, sim)
        with pytest.raises(ex.ExperimentError, match="LCL requires a similarity matrix"):
            ex.check_inputs([sl, lcl], train, test)
        ex.check_inputs([sl], train, test)


def test_debug_verify_flag_is_gone(files, tmp_path):
    c4, _ = files
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path / "exp.cfg", c4 / "train.csv", c4 / "test.csv",
                       c4 / "sim.csv", out_dir)
    assert cli.main(["run", str(cfg), "--debug-verify-curriculum"]) == cli.EXIT_USAGE
    assert not out_dir.exists()
    assert "--debug-verify-curriculum" not in cli.build_parser().format_help()


class TestSkippedRankExplained:
    HEAD = ("rank test skipped: need >= 2 methods and >= 2 settings "
            "with a complete score table")

    def test_incomplete_table_names_short_methods(self, files, tmp_path, capsys):
        c4, _ = files
        train = data.load_dataset(c4 / "train.csv")
        test = data.load_dataset(c4 / "test.csv")
        configs = [ex.ExperimentConfig("SL", seeds=(0, 1, 2), epochs=1),
                   ex.ExperimentConfig("LS", seeds=(0, 1), epochs=1),
                   ex.ExperimentConfig("DML", seeds=(2,), epochs=1)]
        run_dir, report_dir = tmp_path / "run", tmp_path / "report"
        _, _, rank = ex.run_suite(configs, train, test, out_dir=str(run_dir))
        assert rank is None
        text = (run_dir / "rank_report.txt").read_text(encoding="utf-8")
        assert text == (self.HEAD + "\n  DML1 has 1 of 3 settings\n  DML2 has 1 of 3 settings"
                        "\n  LS(alpha=0.1) has 2 of 3 settings\n")
        assert cli.main(["report", str(run_dir / "raw_results.csv"),
                         "--out-dir", str(report_dir)]) == cli.EXIT_OK
        assert "  LS(alpha=0.1) has 2 of 3 settings" in capsys.readouterr().out
        for name in ("aggregate.csv", "rank_report.txt"):
            assert (report_dir / name).read_bytes() == (run_dir / name).read_bytes()

    @pytest.mark.parametrize("encodings, seeds", [(("SL",), (0, 1)), (("SL", "LS"), (0,))])
    def test_too_small_table_text_unchanged(self, files, tmp_path, encodings, seeds):
        c4, _ = files
        train = data.load_dataset(c4 / "train.csv")
        test = data.load_dataset(c4 / "test.csv")
        configs = [ex.ExperimentConfig(enc, seeds=seeds, epochs=1) for enc in encodings]
        _, _, rank = ex.run_suite(configs, train, test, out_dir=str(tmp_path))
        assert rank is None
        assert (tmp_path / "rank_report.txt").read_text(encoding="utf-8") == self.HEAD + "\n"
