"""simrank's decay and load_embeddings' expected_dim follow the real and
integer rules of every other field: a string, None or a bool is refused with
a SimilarityError naming the argument."""

import re

import numpy as np
import pytest

from lcl import similarity as sm

GRAPH = sm.HierarchyGraph(edges=[("r", "p"), ("r", "q"), ("p", "a"), ("q", "b")],
                          leaves=["a", "b"])


@pytest.mark.parametrize("decay", ["0.5", None, True, False, [0.5]])
def test_decay_must_be_real(decay):
    message = f"decay must be a real number, got {decay!r}"
    with pytest.raises(sm.SimilarityError, match=f"^{re.escape(message)}$"):
        sm.simrank(GRAPH, decay=decay)


@pytest.mark.parametrize("decay", [0.5, np.float32(0.5), np.float64(0.5)])
def test_real_decays_accepted(decay):
    assert sm.simrank(GRAPH, decay=decay).entries[0, 1] == 0.25


@pytest.mark.parametrize("decay", [0, 1, 1.5, float("nan")])
def test_decay_range_unchanged(decay):
    with pytest.raises(sm.SimilarityError, match="^decay must lie in \\(0, 1\\)$"):
        sm.simrank(GRAPH, decay=decay)


@pytest.fixture
def emb(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 0\nb 0 1\n")
    return path


@pytest.mark.parametrize("dim", ["2", 2.0, True, False])
def test_expected_dim_must_be_an_integer(emb, dim):
    with pytest.raises(sm.SimilarityError,
                       match=f"^expected_dim must be an integer, got {dim!r}$"):
        sm.load_embeddings(emb, expected_dim=dim)


def test_expected_dim_checked_before_the_file_is_read(tmp_path):
    with pytest.raises(sm.SimilarityError, match="^expected_dim must be an integer, got '2'$"):
        sm.load_embeddings(tmp_path / "missing.txt", expected_dim="2")


@pytest.mark.parametrize("dim", [None, 2, np.int64(2)])
def test_integer_or_no_expected_dim_accepted(emb, dim):
    assert sm.load_embeddings(emb, expected_dim=dim).dim == 2


def test_wrong_integer_dim_still_names_the_file(emb):
    with pytest.raises(sm.SimilarityError, match=f"^{emb}: dimension 2, expected 3$"):
        sm.load_embeddings(emb, expected_dim=3)
