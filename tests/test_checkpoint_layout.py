"""`ClassifierParams` checks b1's width against W1, and `load_checkpoint`
accepts only the arrays of the file's architecture, in `LAYOUT` order."""

import numpy as np
import pytest

from lcl import model


def test_b1_width_must_match_w1():
    with pytest.raises(model.ModelError, match="hidden width"):
        model.ClassifierParams("mlp1", W1=np.zeros((3, 2)), b1=np.zeros(5),
                               W_out=np.zeros((2, 2)), b_out=np.zeros(2))


@pytest.fixture()
def saved(tmp_path):
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(model.init_params("mlp1", 3, 4, hidden=5, seed=0), path)
    return path, path.read_text().splitlines()


def rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_edited_architecture_line_is_rejected(saved):
    path, lines = saved
    with pytest.raises(model.ModelError, match=f"^{path}: .*'linear'"):
        model.load_checkpoint(rewrite(path, [lines[0], "linear"] + lines[2:]))


def test_unknown_architecture_is_rejected(saved):
    path, lines = saved
    with pytest.raises(model.ModelError, match=f"^{path}: .*'mlp2'"):
        model.load_checkpoint(rewrite(path, [lines[0], "mlp2"] + lines[2:]))


@pytest.mark.parametrize("order", [
    (0, 1, 2, 3, 2, 3),  # W_out and b_out repeated
    (2, 3, 0, 1),  # output layer first
    (0, 1, 2),  # b_out missing
], ids=["repeated", "reordered", "missing"])
def test_arrays_outside_the_layout_are_rejected(saved, order):
    path, lines = saved
    pairs = [lines[2 + 2 * i: 4 + 2 * i] for i in range(4)]
    body = [line for i in order for line in pairs[i]]
    with pytest.raises(model.ModelError, match=f"^{path}: arrays "):
        model.load_checkpoint(rewrite(path, lines[:2] + body))

