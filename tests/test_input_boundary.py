"""`cli.main` is the one place where a bad input or output path, a non-UTF-8
file or a malformed config becomes exit 2: each case prints one `error:`
line naming the path (a decode error names the byte) and no traceback, and
`lcl run` writes no results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcl import cli, experiments as ex

NOT_UTF8 = b"a,b\n1.0,0.5\n0.5,1.0\xff\n"


@pytest.fixture(scope="module")
def task(tmp_path_factory):
    """A generated four-class task with its embedding-cosine similarity."""
    out = tmp_path_factory.mktemp("task")
    assert cli.main(["gen-data", "--superclusters", "2", "--classes-per-supercluster", "2",
                     "--dim", "4", "--train-per-class", "4", "--test-per-class", "4",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    assert cli.main(["build-sim", "--kind", "embedding", "--in", str(out / "embeddings.txt"),
                     "--out", str(out / "sim.csv")]) == cli.EXIT_OK
    return out


@pytest.fixture()
def bad(tmp_path):
    """A directory, a missing file, a non-UTF-8 file and a plain file."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.txt").write_bytes(NOT_UTF8)
    (tmp_path / "file").write_text("x\n")
    return {"dir": tmp_path / "dir", "missing": tmp_path / "missing.txt",
            "latin1": tmp_path / "latin1.txt", "file": tmp_path / "file"}


def one_error(capsys, argv):
    """Run argv through cli.main; expect exit 2 and return its one stderr line."""
    assert cli.main([str(a) for a in argv]) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def config(tmp_path, task, encodings="SL LCL", sections="", **paths):
    """An experiment config over the task, with [paths] entries overridden."""
    entries = {"train": task / "train.csv", "test": task / "test.csv",
               "similarity": task / "sim.csv", "out_dir": tmp_path / "out", **paths}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[paths]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                   + f"[grid]\nencodings = {encodings}\nepsilons = 0.9\nseeds = 0\n"
                   + "[training]\nepochs = 1\nbatch_size = 4\n" + sections)
    return cfg


@pytest.mark.parametrize("kind", ["dir", "missing", "latin1"])
@pytest.mark.parametrize("command", [
    lambda p, out: ["build-sim", "--kind", "embedding", "--in", p, "--out", out],
    lambda p, out: ["build-sim", "--kind", "hierarchy", "--in", p, "--out", out],
    lambda p, out: ["verify", "--sim", p, "--epsilon", "0.9"],
    lambda p, out: ["report", p, "--out-dir", out],
], ids=["build-sim-embedding", "build-sim-hierarchy", "verify", "report"])
def test_bad_input_path(tmp_path, bad, capsys, command, kind):
    line = one_error(capsys, command(bad[kind], tmp_path / "o"))
    assert "0xff" in line if kind == "latin1" else str(bad[kind]) in line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["dir", "missing", "latin1"])
@pytest.mark.parametrize("key", ["train", "test", "similarity", "config"])
def test_run_bad_input_path(tmp_path, task, bad, capsys, key, kind):
    cfg = bad[kind] if key == "config" else config(tmp_path, task, **{key: bad[kind]})
    line = one_error(capsys, ["run", cfg])
    if kind == "latin1":
        assert "0xff" in line
    if key == "config" or kind != "latin1":  # the config loader names its own file
        assert str(bad[kind]) in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    lambda f, raw: ["report", raw, "--out-dir", f],
    lambda f, raw: ["report", raw, "--out-dir", f / "sub"],
    lambda f, raw: ["gen-data", "--superclusters", "1", "--out-dir", f],
], ids=["report", "report-under-file", "gen-data"])
def test_file_as_out_dir(tmp_path, bad, capsys, argv):
    raw = tmp_path / "raw.csv"
    raw.write_text(",".join(ex.RAW_HEADER) + "\nSL_x,SL,,,1.0,0,0.5,0.9,1.0,1,1.0\n")
    line = one_error(capsys, argv(bad["file"], raw))
    assert str(bad["file"]) in line
    assert bad["file"].read_text() == "x\n"


@pytest.mark.parametrize("where", ["flag", "config"])
def test_run_file_as_out_dir(tmp_path, task, bad, capsys, where):
    if where == "flag":
        line = one_error(capsys, ["run", config(tmp_path, task), "--out-dir", bad["file"]])
    else:
        line = one_error(capsys, ["run", config(tmp_path, task, out_dir=bad["file"])])
    assert line == f"error: {bad['file']}: File exists"
    assert bad["file"].read_text() == "x\n"
    assert not (tmp_path / "out").exists()


def test_build_sim_out_under_missing_directory(tmp_path, task, capsys):
    out = tmp_path / "no" / "such" / "sim.csv"
    line = one_error(capsys, ["build-sim", "--kind", "embedding",
                              "--in", task / "embeddings.txt", "--out", out])
    assert line == f"error: {out}: No such file or directory"


@pytest.mark.parametrize("text, reason", [
    ("train = a\n[grid]\n", "no section headers"),
    ("[paths]\n[grid]\nseeds = 0\nseeds = 1\n", "already exists"),
    ("[paths]\n[grid]\n[paths]\n", "already exists"),
    ("[paths]\n[grid]\nthis line has no equals sign\n", "parsing errors"),
], ids=["no-section-header", "repeated-key", "repeated-section", "no-equals-sign"])
def test_malformed_ini(tmp_path, capsys, text, reason):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    line = one_error(capsys, ["run", cfg])
    assert line.startswith(f"error: {cfg}: ") and reason in line


@pytest.mark.parametrize("extra, named", [
    ("epoch = 5\n", "[training] has unknown key `epoch`"),
    ("[trainig]\nepochs = 5\n", "unknown section [trainig]"),
], ids=["key-epoch", "section-trainig"])
def test_unknown_key_or_section(tmp_path, task, capsys, extra, named):
    cfg = config(tmp_path, task, sections=extra)
    assert one_error(capsys, ["run", cfg]) == f"error: {cfg}: {named}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [("paths", "outdir"), ("grid", "epsilon")])
def test_unknown_key_in_paths_and_grid(tmp_path, section, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[paths]\n[grid]\n".replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
    with pytest.raises(cli.UsageError, match=rf"^{cfg}: \[{section}\] has unknown key `{key}`$"):
        cli.load_config_file(str(cfg))


def test_left_out_training_keys_take_experiment_config_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[paths]\n[grid]\nencodings = SL LS LCL KD DML\nepsilons = 0.9\n"
                   "seeds = 0\n[training]\n")
    configs, _ = cli.load_config_file(str(cfg))
    hyper = [{}, {}, {"epsilon": 0.9}, {}, {}]
    assert configs == [ex.ExperimentConfig(encoding=enc, dr=1.0, seeds=(0,), **h)
                       for enc, h in zip(["SL", "LS", "LCL", "KD", "DML"], hyper)]


def test_attribute_kind_relabels_the_cosine_matrix(task, tmp_path, capsys):
    out = tmp_path / "attr.csv"
    assert cli.main(["build-sim", "--kind", "attribute", "--in", str(task / "embeddings.txt"),
                     "--out", str(out)]) == cli.EXIT_OK
    assert "source=attribute-cosine" in capsys.readouterr().out
    assert out.read_bytes() == (task / "sim.csv").read_bytes()


def test_subprocess_directory_exits_2_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lcl.cli", "verify", "--sim", str(tmp_path),
                           "--epsilon", "0.9"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: {tmp_path}: Is a directory"]
