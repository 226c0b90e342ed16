"""run_suite has one task body, serial or with `jobs` workers: a task runs a
run of one config's seeds in turn through the public run_trial, sharing the
config's LCL tables. Serially a config is one task; with `jobs` its seeds are
cut into up to `jobs` contiguous runs. Both give the bits of a standalone
run_trial, and a worker that dies leaves no trial unaccounted for."""

import concurrent.futures
import os

import pytest

from lcl import cli, data, experiments as ex, similarity as sm


@pytest.fixture(scope="module")
def task():
    spec = data.SyntheticSpec(2, 3, 5, 6, 8, intra_spread=0.5, inter_spread=2.0,
                              noise_sigma=0.5, seed=4)
    train, test, emb = data.generate_synthetic(spec)
    return train, test, sm.build_cosine_similarity(emb)


def config(encoding, architecture="linear", seeds=(0, 1, 2), **kw):
    return ex.ExperimentConfig(encoding=encoding, epochs=6, batch_size=4, lr=0.05,
                               lr_decay=0.9, architecture=architecture, hidden=5,
                               seeds=seeds, **kw)


def row_bits(r):
    return (r.config_id, r.seed, r.top1, r.top5, r.loss_history,
            tuple(a.tobytes() for a in r.final_params.arrays()))


@pytest.mark.parametrize("kept_tables", [None, 0, 1, 4])  # None: the module's budget
@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_parallel_rows_equal_serial_and_standalone(task, tmp_path, monkeypatch,
                                                   architecture, kept_tables):
    train, test, sim = task
    configs = [config("LCL", architecture, epsilon=e) for e in (0.5, 0.9)]
    standalone = [row_bits(ex.run_trial(cfg, seed, train, test, sim))
                  for cfg in configs for seed in cfg.seeds]
    if kept_tables is not None:
        monkeypatch.setattr(ex, "SHARED_TABLE_BYTES", kept_tables * sim.entries.nbytes)

    def rows(jobs):
        results, _, _ = ex.run_suite(configs, train, test, sim,
                                     out_dir=str(tmp_path / str(jobs)), jobs=jobs)
        assert not (tmp_path / str(jobs) / "errors.log").exists()
        return [row_bits(r) for r in results]

    assert rows(1) == standalone  # in grid order, config by config
    assert rows(2) == standalone


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    submitted = []

    def submit(self, fn, *args, **kwargs):
        CountingPool.submitted.append((fn.__name__, args[1]))
        return super().submit(fn, *args, **kwargs)


def test_one_config_grid_is_cut_into_jobs_tasks(task, tmp_path, monkeypatch):
    train, test, sim = task
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "submitted", [])
    cfg = config("LCL", seeds=tuple(range(8)), epsilon=0.9)
    results, _, _ = ex.run_suite([cfg], train, test, sim, out_dir=str(tmp_path), jobs=2)
    assert CountingPool.submitted == [("_run_seeds", (0, 1, 2, 3)),
                                      ("_run_seeds", (4, 5, 6, 7))]
    assert [r.seed for r in results] == list(range(8))


def test_serial_suite_starts_no_pool(task, tmp_path, monkeypatch):
    train, test, sim = task
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "submitted", [])
    ex.run_suite([config("SL"), config("LCL", epsilon=0.9)], train, test, sim,
                 out_dir=str(tmp_path))
    # and a single trial is one task, which needs no pool either
    ex.run_suite([config("SL", seeds=(0,))], train, test, out_dir=str(tmp_path), jobs=2)
    assert CountingPool.submitted == []


RUN_TRIAL = ex.run_trial


def dies_on_seed_1(cfg, seed, *args, **kwargs):
    if seed == 1:
        os._exit(3)  # the worker process ends without a word
    return RUN_TRIAL(cfg, seed, *args, **kwargs)


def test_a_dead_worker_leaves_no_trial_unaccounted(task, tmp_path, monkeypatch):
    train, test, sim = task
    monkeypatch.setattr(ex, "run_trial", dies_on_seed_1)
    configs = [config("SL", seeds=(0, 1, 2, 3)), config("LCL", seeds=(0, 1, 2, 3),
                                                          epsilon=0.9)]
    results, _, _ = ex.run_suite(configs, train, test, sim, out_dir=str(tmp_path), jobs=2)
    logged = (tmp_path / "errors.log").read_text().splitlines()
    done = [f"{r.config_id} seed={r.seed}" for r in results]
    failed = [line.split(": ", 1)[0] for line in logged]
    everything = [f"{cfg.config_id} seed={seed}" for cfg in configs for seed in cfg.seeds]
    assert sorted(done + failed) == sorted(everything)
    assert f"{configs[0].config_id} seed=1" in failed
    assert (tmp_path / "raw_results.csv").read_text().count("\n") == 1 + len(results)


def test_cli_run_with_jobs_writes_the_serial_files(task, tmp_path):
    train, test, sim = task
    for name, write in (("train.csv", lambda p: data.save_dataset(train, p)),
                        ("test.csv", lambda p: data.save_dataset(test, p)),
                        ("sim.csv", lambda p: sm.save_similarity(sim, p))):
        write(tmp_path / name)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {tmp_path / 'train.csv'}\n"
                   f"test = {tmp_path / 'test.csv'}\nsimilarity = {tmp_path / 'sim.csv'}\n"
                   "[grid]\nencodings = SL LCL DML\nepsilons = 0.9 0.99\nseeds = 0 1 2\n"
                   "[training]\nepochs = 4\nbatch_size = 4\n")

    def outputs(jobs):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["run", str(cfg), "--jobs", str(jobs), "--out-dir", str(out)]) \
            == cli.EXIT_OK
        raw = [line.rsplit(",", 1)[0]  # wall_ms is the last column
               for line in (out / "raw_results.csv").read_text().splitlines()]
        return raw, (out / "aggregate.csv").read_bytes(), (out / "rank_report.txt").read_bytes()

    serial = outputs(1)
    assert len(serial[0]) == 1 + 3 * 5  # SL, two LCL, DML's two rows
    assert outputs(2) == serial
