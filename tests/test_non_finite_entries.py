"""Non-finite similarity, embedding, target and checkpoint entries are
rejected by name: a NaN or inf must fail the checks it used to slip past,
not be reported as some other broken property."""

import warnings

import numpy as np
import pytest

from lcl import cli, curriculum, model, similarity as sm


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_similarity_names_path_and_line(tmp_path, token):
    path = tmp_path / "sim.csv"
    path.write_text(f"a,b\n1.0,0.5\n{token},1.0\n")
    with pytest.raises(sm.SimilarityFileError, match=f"^{path}:3: non-finite entry '{token}'"):
        sm.load_similarity(path)


def test_verify_exits_2_on_nan_similarity(tmp_path, capsys):
    path = tmp_path / "sim.csv"
    path.write_text("a,b\n1.0,nan\nnan,1.0\n")
    assert cli.main(["verify", "--sim", str(path), "--epsilon", "0.9"]) == cli.EXIT_USAGE
    assert f"{path}:2: non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_similarity_matrix_says_non_finite(bad):
    m = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(sm.SimilarityError, match="non-finite entries"):
        sm.SimilarityMatrix(entries=m, class_names=["a", "b"], source="t")


@pytest.mark.parametrize("probs", [[np.nan, 1.0], [0.0, np.nan], [np.inf, 1.0]])
def test_target_vector_rejects_non_finite(probs):
    with pytest.raises(curriculum.CurriculumError, match="probability simplex"):
        curriculum.TargetVector(probs=probs, true_class=1)


def test_schedule_reports_nan_row_as_off_simplex():
    t = np.array([[0.9, 0.1], [np.nan, 1.0]])
    with pytest.raises(curriculum.CurriculumError, match="probability simplex"):
        curriculum.TargetSchedule(targets=t, epsilon=0.9)


def test_verify_curriculum_flags_nan_row_as_simplex_violation():
    # white-box: bypass the constructor to hand verify a NaN row
    s = curriculum.TargetSchedule(targets=np.array([[0.9, 0.1], [0.2, 0.8]]), epsilon=0.9)
    object.__setattr__(s, "targets", np.array([[0.9, 0.1], [np.nan, 1.0]]))
    report = curriculum.verify_curriculum(s, 1)
    assert {(v.axiom, v.row) for v in report.violations if v.step == 0} >= {("simplex", 1)}


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_load_embeddings_names_path_and_line(tmp_path, token):
    path = tmp_path / "emb.txt"
    path.write_text(f"# comment\na 1.0 0.5\nb {token} 1.0\n")
    with pytest.raises(sm.SimilarityError, match=f"^{path}:3: non-finite entry '{token}'"):
        sm.load_embeddings(path)


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_build_sim_exits_2_on_non_finite_embedding_without_warning(tmp_path, capsys, token):
    path = tmp_path / "emb.txt"
    path.write_text(f"a 1.0 0.5\nb {token} 1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["build-sim", "--kind", "embedding", "--in", str(path),
                         "--out", str(tmp_path / "sim.csv")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}:2: non-finite entry '{token}'\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embedding_table_rejects_non_finite_vectors(bad):
    with pytest.raises(sm.SimilarityError, match="non-finite"):
        sm.EmbeddingTable(class_names=["a", "b"], vectors=[[bad, 1.0], [0.5, 1.0]])


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_load_checkpoint_names_path_and_line(tmp_path, token):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(model.init_params("linear", 2, 3, seed=0), path)
    lines = path.read_text().splitlines()
    lines[3] = " ".join([token] + lines[3].split()[1:])  # the W_out values
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(model.ModelError, match=f"^{path}:4: non-finite entry '{token}'$"):
        model.load_checkpoint(path)
