"""The whole grid is checked before any training: every ExperimentConfig
value is range-checked and two trials in one rank-table cell are rejected;
and `lcl run` fails (exit 1) when a trial failed."""

import math

import numpy as np
import pytest

from lcl import cli, data, experiments as ex


@pytest.fixture(scope="module")
def task(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["gen-data", "--superclusters", "2", "--classes-per-supercluster", "2",
                     "--dim", "4", "--train-per-class", "4", "--test-per-class", "4",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    return out


def write_config(tmp_path, task, grid, training="epochs = 1\n"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {task / 'train.csv'}\ntest = {task / 'test.csv'}\n"
                   f"out_dir = {tmp_path / 'out'}\n[grid]\n{grid}[training]\n{training}")
    return cfg


BAD_VALUES = [
    ("LS", {"alpha": 2.0}, "alpha"), ("LS", {"alpha": -0.1}, "alpha"),
    ("LS", {"alpha": math.nan}, "alpha"),
    ("KD", {"kd_temperature": 0.0}, "kd_temperature"),
    ("KD", {"kd_temperature": -1.0}, "kd_temperature"),
    ("KD", {"kd_temperature": math.inf}, "kd_temperature"),
    ("SL", {"lr": 0.0}, "lr"), ("SL", {"lr": -0.1}, "lr"), ("SL", {"lr": math.nan}, "lr"),
    ("SL", {"lr_decay": 0.0}, "lr_decay"), ("SL", {"lr_decay": math.inf}, "lr_decay"),
    ("SL", {"lam": -1e-4}, "lam"), ("SL", {"lam": math.nan}, "lam"),
    ("SL", {"lam": math.inf}, "lam"),
    ("SL", {"batch_size": 0}, "batch_size"), ("SL", {"hidden": 0}, "hidden"),
    ("SL", {"architecture": "cnn"}, "architecture"),
]


class TestConfigRanges:
    @pytest.mark.parametrize("encoding,values,name", BAD_VALUES)
    def test_out_of_range_rejected(self, encoding, values, name):
        with pytest.raises(ex.ExperimentError, match=name):
            ex.ExperimentConfig(encoding=encoding, **values)

    @pytest.mark.parametrize("encoding,values", [
        ("LS", {"alpha": 0.0}), ("LS", {"alpha": 1.0}), ("KD", {"kd_temperature": 0.5}),
        ("SL", {"lam": 0.0}), ("SL", {"lr_decay": 2.0}),
        ("SL", {"lr": math.inf}),  # drives the final divergence check in code
        ("SL", {"batch_size": 1, "hidden": 1}), ("SL", {"architecture": "mlp1"}),
    ])
    def test_range_edges_accepted(self, encoding, values):
        ex.ExperimentConfig(encoding=encoding, **values)

    @pytest.mark.parametrize("grid", ["drs = abc\n", "epsilons = 0.9 x\n", "seeds = 0 1.5\n"])
    def test_malformed_grid_number_names_the_file(self, tmp_path, task, capsys, grid):
        # used to end in a ValueError traceback
        cfg = write_config(tmp_path, task, "encodings = SL LCL\n" + grid)
        assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("training", ["lr = inf\n", "lambda = nan\n", "lr_decay = inf\n",
                                          "alpha = inf\n"])
    def test_non_finite_number_names_the_file(self, tmp_path, task, capsys, training):
        cfg = write_config(tmp_path, task, "encodings = SL LS\n", "epochs = 1\n" + training)
        assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "not a finite number" in err
        assert not (tmp_path / "out").exists()

    def test_bad_alpha_stops_run_before_training(self, tmp_path, task, capsys):
        # used to train every SL trial, log each LS failure and exit 0
        cfg = write_config(tmp_path, task, "encodings = SL LS\nseeds = 0 1\n",
                           "epochs = 1\nalpha = 2\n")
        assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "alpha must lie in [0, 1]" in err
        assert not (tmp_path / "out").exists()


class TestDuplicateCellsBeforeTraining:
    @pytest.mark.parametrize("grid", [
        "encodings = SL LS\ndrs = 1.0 1.0\nseeds = 0 1\n",
        "encodings = SL LCL\nepsilons = 0.9 0.9\nseeds = 0 1\n",
        "encodings = SL SL\nseeds = 0 1\n",
        "encodings = SL LS\nseeds = 0 1 0\n",
    ])
    def test_rejected_without_writing_results(self, tmp_path, task, capsys, grid):
        cfg = write_config(tmp_path, task, grid)
        assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "two trials in one rank-table cell" in err and str(cfg) in err
        assert not (tmp_path / "out" / "raw_results.csv").exists()

    def test_distinct_cells_accepted(self, tmp_path, task):
        cfg = write_config(tmp_path, task, "encodings = SL LCL\nepsilons = 0.9 0.99\n"
                                           "drs = 0.5 1.0\nseeds = 0 1\n")
        configs, _ = cli.load_config_file(str(cfg))
        assert len(configs) == 6


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # lr = 1e30 diverges
class TestFailedTrials:
    def test_run_exits_1_naming_count_and_log(self, tmp_path, task, capsys):
        cfg = write_config(tmp_path, task, "encodings = SL\nseeds = 0 1\n",
                           "epochs = 2\nbatch_size = 4\nlr = 1e30\n")
        assert cli.main(["run", str(cfg)]) == cli.EXIT_FAIL
        err = capsys.readouterr().err
        log = tmp_path / "out" / "errors.log"
        assert "2 of 2 trials failed" in err and str(log) in err
        assert log.read_text().count("non-finite") == 2

    def test_clean_run_exits_0(self, tmp_path, task, capsys):
        cfg = write_config(tmp_path, task, "encodings = SL\nseeds = 0 1\n")
        assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    def test_stale_errors_log_removed(self, tmp_path, task):
        train = data.load_dataset(task / "train.csv")
        test = data.load_dataset(task / "test.csv")
        out = tmp_path / "out"
        failing = ex.ExperimentConfig("SL", epochs=2, batch_size=4, lr=1e30, seeds=(0,))
        ex.run_suite([failing], train, test, out_dir=str(out))
        assert (out / "errors.log").exists()
        clean = ex.ExperimentConfig("SL", epochs=1, seeds=(0,))
        results, _, _ = ex.run_suite([clean], train, test, out_dir=str(out))
        assert len(results) == 1 and np.isfinite(results[0].final_loss)
        assert not (out / "errors.log").exists()
