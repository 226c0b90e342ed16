"""The float-matrix files (similarity, embeddings, schedule, checkpoint) share
one writer and one checked reader: values print at 17 significant digits,
read back bitwise, and a bad value is reported at its path and line."""

import numpy as np
import pytest

from lcl import curriculum, model, similarity as sm

EXTREMES = [5e-324, -0.0, 1.7976931348623157e308]  # subnormal, signed zero, largest


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_similarity_bytes(tmp_path):
    path = tmp_path / "sim.csv"
    sm.save_similarity(sm.SimilarityMatrix(entries=[[1.0, 0.1], [0.1, 1.0]],
                                           class_names=["a", "b"], source="t"), path)
    assert path.read_bytes() == b"a,b\n1,0.10000000000000001\n0.10000000000000001,1\n"


def test_embedding_bytes(tmp_path):
    path = tmp_path / "emb.txt"
    sm.save_embeddings(sm.EmbeddingTable(class_names=["a", "b"],
                                         vectors=[[1.0, 0.1], [-0.0, 2.5]]), path)
    assert path.read_bytes() == b"a 1 0.10000000000000001\nb -0 2.5\n"


def test_similarity_roundtrip_bitwise(tmp_path):
    tiny, zero = EXTREMES[:2]  # entries lie in [0, 1]
    m = np.array([[1.0, tiny, zero], [tiny, 1.0, 0.1], [zero, 0.1, 1.0]])
    path = tmp_path / "sim.csv"
    sm.save_similarity(sm.SimilarityMatrix(entries=m, class_names="abc", source="t"), path)
    assert same_bits(sm.load_similarity(path).entries, m)


def test_embedding_roundtrip_bitwise(tmp_path):
    # the table rejects an entry whose square overflows the norm, so the
    # largest value it holds takes the place of 1.8e308
    vectors = np.array([[*EXTREMES[:2], sm._largest_entry(3)], [1.0, *EXTREMES[:2]]])
    path = tmp_path / "emb.txt"
    sm.save_embeddings(sm.EmbeddingTable(class_names=["a", "b"], vectors=vectors), path)
    back = sm.load_embeddings(path)
    assert back.class_names == ("a", "b")
    assert same_bits(back.vectors, vectors)


def test_schedule_roundtrip_bitwise(tmp_path):
    tiny, zero = EXTREMES[:2]  # rows lie on the simplex
    t = np.array([[1.0, tiny, zero], [zero, 0.75, 0.25], [tiny, zero, 1.0]])
    path = tmp_path / "sched.csv"
    curriculum.save_schedule(curriculum.TargetSchedule(targets=t, epsilon=0.9), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# epsilon=0.9 step=0"
    assert same_bits([[float(x) for x in line.split(",")] for line in lines[1:]], t)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = model.ClassifierParams(architecture="linear",
                                    W_out=np.array([EXTREMES, EXTREMES[::-1]]),
                                    b_out=np.array(EXTREMES))
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    back = model.load_checkpoint(path)
    assert all(same_bits(a, b) for a, b in zip(back.arrays(), params.arrays()))


def test_non_numeric_checkpoint_value_names_its_line(tmp_path):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(model.init_params("mlp1", 2, 3, hidden=2, seed=0), path)
    lines = path.read_text().splitlines()
    lines[5] = " ".join(["x"] + lines[5].split()[1:])  # the b1 values
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(model.ModelError,
                       match=f"^{path}:6: could not convert string to float: 'x'$"):
        model.load_checkpoint(path)
