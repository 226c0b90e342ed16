"""Each default is written once: `lcl gen-data`'s flags take `SyntheticSpec`'s
defaults, `build-sim --decay` takes simrank's, and a `[grid]` without `seeds`
or `drs` takes `ExperimentConfig`'s."""

import dataclasses
import inspect

from lcl import cli, data, experiments as ex, similarity as sm


def test_gen_data_without_flags_writes_the_default_spec(tmp_path):
    out = tmp_path / "cli"
    assert cli.main(["gen-data", "--out-dir", str(out)]) == cli.EXIT_OK
    train, test, embeddings = data.generate_synthetic(data.SyntheticSpec())
    ref = tmp_path / "ref"
    ref.mkdir()
    data.save_dataset(train, ref / "train.csv")
    data.save_dataset(test, ref / "test.csv")
    sm.save_embeddings(embeddings, ref / "embeddings.txt")
    for name in ("train.csv", "test.csv", "embeddings.txt"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_gen_data_has_one_flag_per_spec_field():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    actions = {a.dest: a for a in sub.choices["gen-data"]._actions}
    for f in dataclasses.fields(data.SyntheticSpec):
        assert actions[f.name].default == f.default, f.name
        assert actions[f.name].type is type(f.default), f.name


def test_build_sim_decay_is_simrank_default():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    decay = next(a for a in sub.choices["build-sim"]._actions if a.dest == "decay")
    assert decay.default == inspect.signature(sm.simrank).parameters["decay"].default


def test_grid_without_seeds_or_drs_takes_experiment_config_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[paths]\ntrain = a.csv\ntest = b.csv\n[grid]\nencodings = SL LS\n")
    configs, _ = cli.load_config_file(str(cfg))
    default = ex.ExperimentConfig("SL")
    assert [(c.seeds, c.dr) for c in configs] == [(default.seeds, default.dr)] * 2
    assert configs[0] == default
