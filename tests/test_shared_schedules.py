"""A serial run_suite advances each LCL config's schedule once and shares its
class tables across the config's seeds, within SHARED_TABLE_BYTES. Every
trial still goes through the public run_trial and gives the bits of a
standalone run_trial, and `jobs` workers, which share the tables within
each run of a config's seeds they are given, give the same rows."""

import pytest

from lcl import curriculum, data, experiments as ex, model, similarity as sm


@pytest.fixture(scope="module")
def task():
    spec = data.SyntheticSpec(2, 3, 5, 6, 8, intra_spread=0.5, inter_spread=2.0,
                              noise_sigma=0.5, seed=4)
    train, test, emb = data.generate_synthetic(spec)
    return train, test, sm.build_cosine_similarity(emb)


def config(encoding, architecture="linear", **kw):
    return ex.ExperimentConfig(encoding=encoding, epochs=6, batch_size=4, lr=0.05,
                               lr_decay=0.9, architecture=architecture, hidden=5,
                               seeds=(0, 1, 2), **kw)


def row_bits(r):
    return (r.config_id, r.seed, r.top1, r.top5, r.loss_history,
            tuple(a.tobytes() for a in r.final_params.arrays()))


def count_steps(monkeypatch):
    """The step counts of every curriculum.step call from now on."""
    calls, step = [], curriculum.step

    def counted(schedule):
        calls.append(schedule.step_count)
        return step(schedule)
    monkeypatch.setattr(curriculum, "step", counted)
    return calls


@pytest.mark.parametrize("kept_tables", [None, 0, 1, 4])  # None: the module's budget
@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_suite_rows_equal_standalone_trials(task, tmp_path, monkeypatch, architecture,
                                            kept_tables):
    """Bitwise, whether every epoch's table is kept, none is, or only the
    first ones are and later epochs are stepped per trial."""
    train, test, sim = task
    configs = [config("LCL", architecture, epsilon=e) for e in (0.5, 0.9, 0.99)]
    want = sorted(row_bits(ex.run_trial(cfg, seed, train, test, sim))
                  for cfg in configs for seed in cfg.seeds)
    if kept_tables is not None:
        monkeypatch.setattr(ex, "SHARED_TABLE_BYTES", kept_tables * sim.entries.nbytes)
    steps = count_steps(monkeypatch)
    results, _, _ = ex.run_suite(configs, train, test, sim, out_dir=str(tmp_path))
    assert sorted(map(row_bits, results)) == want
    # the first seed steps the schedule through every epoch; the others
    # step only the epochs past the kept tables, from the last one kept
    epochs, seeds = configs[0].epochs, len(configs[0].seeds)
    kept = epochs if kept_tables is None else max(kept_tables, 1)
    assert len(steps) == len(configs) * ((epochs - 1) + (seeds - 1) * (epochs - kept))


def test_parallel_matches_serial_on_lcl(task, tmp_path):
    train, test, sim = task
    configs = [config("SL"), config("LCL", epsilon=0.9), config("LCL", epsilon=0.99)]

    def rows(jobs):
        results, _, _ = ex.run_suite(configs, train, test, sim,
                                     out_dir=str(tmp_path / str(jobs)), jobs=jobs)
        return sorted((r.config_id, r.seed, r.top1, r.top5, r.loss_history) for r in results)

    serial = rows(1)
    assert len(serial) == 9
    assert rows(2) == serial


def test_one_public_run_trial_per_task(task, tmp_path, monkeypatch):
    """The benchmark counts trials as run_trial calls and SGD batches inside
    them, so no trial may bypass run_trial and no step may run outside one."""
    calls = {"run_trial": 0, "sgd_step": 0, "sgd_step outside run_trial": 0}
    depth = [0]
    run_trial, sgd_step = ex.run_trial, model.sgd_step

    def counted_trial(*args, **kwargs):
        calls["run_trial"] += 1
        depth[0] += 1
        try:
            return run_trial(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_step(*args, **kwargs):
        calls["sgd_step" if depth[0] else "sgd_step outside run_trial"] += 1
        return sgd_step(*args, **kwargs)

    monkeypatch.setattr(ex, "run_trial", counted_trial)
    monkeypatch.setattr(model, "sgd_step", counted_step)
    train, test, sim = task
    configs = [config("SL"), config("LCL", epsilon=0.9), config("DML")]
    ex.run_suite(configs, train, test, sim, out_dir=str(tmp_path))
    assert not (tmp_path / "errors.log").exists()
    batches = configs[0].epochs * -(-train.num_examples // configs[0].batch_size)
    assert calls == {"run_trial": 9, "sgd_step": 3 * batches * (1 + 1 + 2),
                     "sgd_step outside run_trial": 0}
