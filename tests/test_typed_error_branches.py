"""Each typed error the rest of the suite never raises, checked for its type
and its message: CLI usage errors with exit code 2, and the data,
experiments, model, similarity and curriculum refusals."""

import csv

import numpy as np
import pytest

from lcl import cli, curriculum as cur, data, experiments as ex, model, similarity as sm


def usage_error(argv, capsys):
    """The one stderr line of a CLI call that must exit 2."""
    assert cli.main(argv) == cli.EXIT_USAGE
    return capsys.readouterr().err.strip()


@pytest.fixture()
def datasets(tmp_path):
    assert cli.main(["gen-data", "--superclusters", "2", "--classes-per-supercluster", "2",
                     "--dim", "3", "--train-per-class", "2", "--test-per-class", "2",
                     "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    return tmp_path / "train.csv", tmp_path / "test.csv"


class TestCli:
    def test_verify_epsilon_not_a_number(self, tmp_path, capsys):
        err = usage_error(["verify", "--sim", str(tmp_path / "s.csv"), "--epsilon", "abc"],
                          capsys)
        assert err.endswith("argument --epsilon: must lie in (0, 1), got 'abc'")

    def test_empty_encodings_is_an_empty_grid(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[paths]\ntrain = a\ntest = b\n[grid]\nencodings =\n")
        assert usage_error(["run", str(cfg)], capsys) == f"error: {cfg}: empty grid"

    def test_config_without_test_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[paths]\ntrain = a\n[grid]\nencodings = SL\n")
        assert usage_error(["run", str(cfg)], capsys) == f"error: {cfg}: [paths] needs `test`"

    def test_lcl_grid_without_similarity(self, tmp_path, datasets, capsys):
        train, test = datasets
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[paths]\ntrain = {train}\ntest = {test}\n"
                       "[grid]\nencodings = SL LCL\nseeds = 0\n")
        assert usage_error(["run", str(cfg), "--out-dir", str(tmp_path / "out")], capsys) \
            == f"error: {cfg}: LCL configs need [paths] similarity"
        assert not (tmp_path / "out").exists()

    def test_report_on_a_header_only_raw_csv(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(",".join(ex.RAW_HEADER) + "\n")
        assert usage_error(["report", str(raw), "--out-dir", str(tmp_path / "out")],
                           capsys) == "error: no raw result rows"
        assert not (tmp_path / "out").exists()


class TestData:
    def test_feature_and_label_counts_differ(self):
        with pytest.raises(data.DataError, match="^feature row count does not match "
                                                 "label count$"):
            data.Dataset(features=np.zeros((3, 2)), labels=[0, 1], num_classes=2,
                         split="test")

    def test_first_comment_line_without_metadata(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# written by hand\nlabel,f1\n0,1.0\n")
        with open(path, encoding="utf-8") as fh:
            assert data._parse_fast(fh) is None
        with pytest.raises(data.DataError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: missing `# classes=<C> split=<train|test>` metadata"


class TestExperiments:
    def test_no_seeds(self):
        with pytest.raises(ex.ExperimentError, match="^at least one seed is required$"):
            ex.ExperimentConfig("SL", seeds=())

    def test_topk_on_an_empty_batch(self):
        with pytest.raises(ex.ExperimentError,
                           match="^need a nonempty batch of prediction vectors$"):
            ex.topk_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int), 1)

    def test_rank_test_on_a_1d_table(self):
        with pytest.raises(ex.ExperimentError, match="^score table must be 2-D$"):
            ex.friedman_iman_davenport([0.5, 0.6, 0.7])

    def test_raw_row_short_of_cells(self, tmp_path):
        raw = tmp_path / "raw.csv"
        with open(raw, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([ex.RAW_HEADER, ["SL_dr1", "SL"]])
        with pytest.raises(ex.ExperimentError) as err:
            ex.read_raw_csv(raw)
        assert str(err.value) == f"{raw}:2: expected {len(ex.RAW_HEADER)} cells"


def test_unknown_architecture():
    with pytest.raises(model.ModelError, match="^unknown architecture 'cnn'$"):
        model.ClassifierParams("cnn", W_out=np.zeros((2, 2)), b_out=np.zeros(2))


class TestSimilarity:
    def test_one_dimensional_vectors(self):
        with pytest.raises(sm.SimilarityError,
                           match=r"^vectors must be a C x d matrix with d >= 1$"):
            sm.EmbeddingTable(("a", "b"), np.array([1.0, 2.0]))

    def test_name_count_differs_from_row_count(self):
        with pytest.raises(sm.SimilarityError,
                           match="^class name count does not match row count$"):
            sm.EmbeddingTable(("a",), np.array([[1.0], [2.0]]))

    def test_non_square_entries(self):
        with pytest.raises(sm.SimilarityError,
                           match="^entries must be square and match class names$"):
            sm.SimilarityMatrix(entries=np.ones((2, 3)), class_names=("a", "b"),
                                source="external")

    def test_duplicate_leaf(self):
        with pytest.raises(sm.SimilarityError, match="^duplicate leaf class$"):
            sm.HierarchyGraph(edges=[("r", "a")], leaves=["a", "a"])

    def test_embedding_line_with_only_a_name(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\nb\n")
        with pytest.raises(sm.SimilarityError) as err:
            sm.load_embeddings(path)
        assert str(err.value) == f"{path}:2: expected a name and values"

    def test_embedding_file_of_comments_only(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("# no rows\n\n# at all\n")
        with pytest.raises(sm.SimilarityError) as err:
            sm.load_embeddings(path)
        assert str(err.value) == f"{path}: no embedding rows"

    def test_hierarchy_line_of_three_tokens(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("r a b\n@leaves a b\n")
        with pytest.raises(sm.SimilarityError) as err:
            sm.load_hierarchy(path)
        assert str(err.value) == f"{path}:1: expected `parent child`"

    def test_hierarchy_comment_is_skipped(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# a taxonomy\nr a\n  # indented too\nr b\n@leaves a b\n")
        g = sm.load_hierarchy(path)
        assert g.edges == (("r", "a"), ("r", "b"))
        assert g.leaves == ("a", "b")


def test_report_names_how_many_violations_it_leaves_out():
    violations = [cur.AxiomViolation("simplex", row, 0, "residual 1") for row in range(23)]
    report = cur.VerificationReport(horizon=1, epsilon=0.5, entropies=np.zeros((2, 23)),
                                    violations=violations)
    lines = report.summary().splitlines()
    assert len(lines) == 1 + 20 + 1
    assert lines[20] == "  violation [simplex] row=19 step=0: residual 1"
    assert lines[-1] == "  ... 3 more"
