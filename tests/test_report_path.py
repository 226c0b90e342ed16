"""`lcl report` shares run's aggregation and rank code; duplicate rank-table
cells and malformed raw CSVs or checkpoints are typed errors; the result
tables' bytes are pinned."""

import re

import numpy as np
import pytest

from lcl import cli, data, experiments as ex, model, similarity as sm


@pytest.fixture(scope="module")
def task():
    spec = data.SyntheticSpec(2, 2, 6, 8, 10, intra_spread=0.5,
                              inter_spread=2.0, noise_sigma=0.5, seed=0)
    train, test, emb = data.generate_synthetic(spec)
    return train, test, sm.build_cosine_similarity(emb)


def config(encoding, **kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batch_size", 8)
    kw.setdefault("lr", 0.05)
    kw.setdefault("seeds", (2, 0, 1))
    return ex.ExperimentConfig(encoding=encoding, **kw)


def test_report_reproduces_run_outputs(task, tmp_path):
    train, test, sim = task
    configs = [config("SL"), config("LS"), config("LCL", epsilon=0.9),
               config("KD", kd_temperature=2.0), config("DML")]
    run_dir, report_dir = tmp_path / "run", tmp_path / "report"
    _, _, rank = ex.run_suite(configs, train, test, sim=sim, out_dir=str(run_dir))
    assert set(rank.methods) == {"SL", "LS(alpha=0.1)", "LCL(eps=0.9)", "KD(T=2)",
                                 "DML1", "DML2"}
    assert cli.main(["report", str(run_dir / "raw_results.csv"),
                     "--out-dir", str(report_dir)]) == cli.EXIT_OK
    for name in ("aggregate.csv", "rank_report.txt"):
        assert (report_dir / name).read_bytes() == (run_dir / name).read_bytes()


def test_raw_csv_roundtrip(task, tmp_path):
    train, test, _ = task
    results = ex._flatten([ex.run_trial(config(enc), 0, train, test)
                           for enc in ("LS", "DML")])
    path = tmp_path / "raw.csv"
    ex.write_raw_csv(results, path)
    key = lambda r: (r.config_id, r.method_label, r.alpha, r.top1, r.final_loss)
    assert [key(r) for r in ex.read_raw_csv(path)] == sorted(key(r) for r in results)


def test_duplicate_cells_are_rejected(task, tmp_path):
    # 8 trials differing only in epochs would collapse into a 2 x 2 table
    train, test, _ = task
    configs = [config(enc, epochs=e, seeds=(0, 1)) for enc in ("SL", "LS") for e in (1, 2)]
    with pytest.raises(ex.ExperimentError, match=r"dr=1, seed=0, method=SL"):
        ex.run_suite(configs, train, test, out_dir=str(tmp_path))
    assert (tmp_path / "raw_results.csv").exists()
    assert (tmp_path / "aggregate.csv").exists()


def test_report_rejects_duplicate_cells(task, tmp_path, capsys):
    train, test, _ = task
    ex.run_suite([config("SL"), config("LS")], train, test, out_dir=str(tmp_path))
    raw = str(tmp_path / "raw_results.csv")
    assert cli.main(["report", raw, raw, "--out-dir", str(tmp_path / "r")]) \
        == cli.EXIT_USAGE
    assert "two trials in one rank-table cell" in capsys.readouterr().err


def test_run_rejects_duplicate_cells(tmp_path, capsys):
    assert cli.main(["gen-data", "--superclusters", "2", "--classes-per-supercluster", "2",
                     "--dim", "4", "--train-per-class", "4", "--test-per-class", "4",
                     "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {tmp_path / 'train.csv'}\n"
                   f"test = {tmp_path / 'test.csv'}\nout_dir = {tmp_path / 'out'}\n"
                   "[grid]\nencodings = SL LS\ndrs = 1.0 1.0\nseeds = 0 1\n"
                   "[training]\nepochs = 1\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    assert "two trials in one rank-table cell" in capsys.readouterr().err


def test_non_numeric_raw_cell_names_path_and_line(task, tmp_path, capsys):
    train, test, _ = task
    path = tmp_path / "raw.csv"
    ex.write_raw_csv([ex.run_trial(config("SL"), s, train, test) for s in (0, 1)], path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[6] = "oops"  # top1
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ex.ExperimentError, match=rf"{path}:3:"):
        ex.read_raw_csv(path)
    assert cli.main(["report", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
    assert f"{path}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("cells, reason", [
    ({"dr": "nan"}, "dr must lie in (0, 1]"),
    ({"dr": "-2"}, "dr must lie in (0, 1]"),
    ({"seed": "-3"}, "seeds must be integers >= 0, got (-3,)"),
    ({"epochs": "0"}, "epochs, batch_size and hidden must be >= 1"),
    ({"alpha": "0.1"}, "alpha applies to LS only"),
    ({"config_id": "KD-T0_dr0.5", "encoding": "KD"}, "kd_temperature must be finite and > 0"),
], ids=["dr-nan", "dr-negative", "seed-negative", "epochs-zero", "alpha-on-SL", "KD-T0"])
def test_raw_row_gets_the_grid_cell_checks(tmp_path, capsys, cells, reason):
    row = dict(config_id="SL_dr0.5", encoding="SL", epsilon="", alpha="", dr="0.5", seed="0",
               top1="0.5", top5="0.75", final_loss="1.0", epochs="3", wall_ms="1.0")
    row.update(cells)
    path = tmp_path / "raw.csv"
    path.write_text(",".join(ex.RAW_HEADER) + "\n" + ",".join(row[k] for k in ex.RAW_HEADER)
                    + "\n")
    with pytest.raises(ex.ExperimentError, match=f"^{re.escape(f'{path}:2: {reason}')}$"):
        ex.read_raw_csv(path)
    assert cli.main(["report", str(path), "--out-dir", str(tmp_path / "r")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}:2: {reason}\n"


def test_truncated_checkpoint_is_model_error(tmp_path):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(model.init_params("mlp1", 3, 4, hidden=5, seed=0), path)
    lines = path.read_text().splitlines()
    for keep in range(2, len(lines)):
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(model.ModelError):
            model.load_checkpoint(path)
    path.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]) + "\n")
    with pytest.raises(model.ModelError):
        model.load_checkpoint(path)


def test_result_table_bytes(tmp_path):
    def trial(encoding, config_id, seed, epsilon=None, alpha=None):
        return ex.TrialResult(config_id=config_id, method_label=encoding, encoding=encoding,
                              epsilon=epsilon, alpha=alpha, dr=0.5, seed=seed, top1=0.1,
                              top5=0.1 + 0.2, final_loss=1 / 3, loss_history=(1 / 3,),
                              epochs=2, wall_ms=12.345)

    results = [trial("LS", "LS-alpha0.1_dr0.5", 0, alpha=0.1),
               trial("LCL", "LCL-eps0.9_dr0.5", 1, epsilon=0.9),
               trial("LCL", "LCL-eps0.9_dr0.5", 0, epsilon=0.9)]
    ex.write_raw_csv(results, tmp_path / "raw.csv")
    assert (tmp_path / "raw.csv").read_bytes() == (
        b"config_id,encoding,epsilon,alpha,dr,seed,top1,top5,final_loss,epochs,wall_ms\n"
        b"LCL-eps0.9_dr0.5,LCL,0.9,,0.5,0,0.1,0.30000000000000004,0.3333333333333333,2,12.3\n"
        b"LCL-eps0.9_dr0.5,LCL,0.9,,0.5,1,0.1,0.30000000000000004,0.3333333333333333,2,12.3\n"
        b"LS-alpha0.1_dr0.5,LS,,0.1,0.5,0,0.1,0.30000000000000004,0.3333333333333333,2,12.3\n")
    ex.write_aggregate_csv(ex.aggregate(results), tmp_path / "agg.csv")
    assert (tmp_path / "agg.csv").read_bytes() == (
        b"config_id,encoding,epsilon,alpha,dr,n_trials,top1_mean,top1_std,top5_mean,top5_std\n"
        b"LCL-eps0.9_dr0.5,LCL,0.9,,0.5,2,0.1,0.0,0.30000000000000004,0.0\n"
        b"LS-alpha0.1_dr0.5,LS,,0.1,0.5,1,0.1,0.0,0.30000000000000004,0.0\n")
