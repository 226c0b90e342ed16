"""The experiment config shown in README's CLI section loads as written."""

import pathlib
import re

from lcl import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_loads(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1), encoding="utf-8")
    configs, paths = cli.load_config_file(str(cfg))
    assert set(paths) == {"train", "test", "similarity", "out_dir"}
    assert {c.architecture for c in configs} == {"linear"}
    assert {c.encoding for c in configs} == {"SL", "LS", "LCL", "KD", "DML"}
