"""Unit tests for dataset I/O, subsampling, and the synthetic generator."""

import math

import numpy as np
import pytest

from lcl import cli, data


def tiny_dataset(per_class=4, c=3, d=2, split="train"):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(per_class * c, d))
    labels = np.repeat(np.arange(c), per_class)
    return data.Dataset(features=feats, labels=labels, num_classes=c, split=split)


class TestDatasetInvariants:
    def test_basic_properties(self):
        ds = tiny_dataset()
        assert ds.num_examples == 12 and ds.dim == 2

    def test_label_out_of_range(self):
        with pytest.raises(data.DataError):
            data.Dataset(features=np.zeros((2, 2)), labels=np.array([0, 3]),
                         num_classes=3, split="test")

    def test_train_requires_all_classes(self):
        with pytest.raises(data.DataError) as err:
            data.Dataset(features=np.zeros((2, 2)), labels=np.array([0, 0]),
                         num_classes=2, split="train")
        assert "missing classes [1]" in str(err.value)

    def test_test_split_allows_missing_classes(self):
        ds = data.Dataset(features=np.zeros((2, 2)), labels=np.array([0, 0]),
                          num_classes=2, split="test")
        assert ds.num_examples == 2

    def test_unknown_split(self):
        with pytest.raises(data.DataError):
            data.Dataset(features=np.zeros((1, 1)), labels=np.array([0]),
                         num_classes=1, split="val")

    def test_empty_rejected(self):
        with pytest.raises(data.DataError):
            data.Dataset(features=np.zeros((0, 2)), labels=np.array([], dtype=int),
                         num_classes=1, split="test")


class TestFileIO:
    def test_roundtrip_exact(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "train.csv"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes and back.split == "train"

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f1\n0,1.0\n")
        with pytest.raises(data.DataError):
            data.load_dataset(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# classes=1 split=test\nlabel,f1\n0,notanumber\n")
        with pytest.raises(data.DataError) as err:
            data.load_dataset(path)
        assert ":3:" in str(err.value)


class TestSubsample:
    def test_ceil_counts_per_class(self):
        ds = tiny_dataset(per_class=10, c=4)
        out = data.subsample(ds, 0.25, seed=0)
        for c in range(4):
            assert np.sum(out.labels == c) == math.ceil(0.25 * 10)

    def test_single_example_floor(self):
        ds = tiny_dataset(per_class=10, c=4)
        out = data.subsample(ds, 0.05, seed=0)
        assert np.all(np.bincount(out.labels, minlength=4) == 1)

    def test_identity_at_full_ratio(self):
        ds = tiny_dataset()
        assert data.subsample(ds, 1.0, seed=0) is ds

    def test_deterministic_per_seed(self):
        ds = tiny_dataset(per_class=10, c=3)
        a = data.subsample(ds, 0.3, seed=5)
        b = data.subsample(ds, 0.3, seed=5)
        c = data.subsample(ds, 0.3, seed=6)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_indices_sorted(self):
        ds = tiny_dataset(per_class=10, c=3)
        out = data.subsample(ds, 0.5, seed=1)
        # sorted selection keeps the original label blocks in order
        assert np.all(np.diff(out.labels) >= 0)

    def test_only_train_split(self):
        with pytest.raises(data.DataError):
            data.subsample(tiny_dataset(split="test"), 0.5, seed=0)

    def test_dr_range(self):
        ds = tiny_dataset()
        for dr in (0.0, -0.1, 1.5):
            with pytest.raises(data.DataError):
                data.subsample(ds, dr, seed=0)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(data.DataError):
            data.SyntheticSpec(0, 2, 4, 5, 5)
        with pytest.raises(data.DataError):
            data.SyntheticSpec(2, 2, 4, 5, 5, intra_spread=2.0, inter_spread=1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(data.DataError, match="seed must be >= 0"):
            data.SyntheticSpec(2, 2, 4, 5, 5, seed=-1)

    def test_gen_data_negative_seed_is_usage_error(self, tmp_path, capsys):
        # used to end in a numpy ValueError traceback and exit 1
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--seed", "-1", "--out-dir", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["intra_spread", "inter_spread", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_spread_must_be_finite_and_positive(self, name, value):
        with pytest.raises(data.DataError, match=f"^{name} must be finite and > 0$"):
            data.SyntheticSpec(**{name: value})

    @pytest.mark.parametrize("flag", ["intra-spread", "inter-spread", "noise-sigma"])
    def test_gen_data_nan_spread_names_the_field(self, tmp_path, capsys, flag):
        # used to fail later, at the generated data: `non-finite feature entries`
        out = tmp_path / "out"
        assert cli.main(["gen-data", f"--{flag}=nan", "--out-dir", str(out)]) \
            == cli.EXIT_USAGE
        name = flag.replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite and > 0\n"
        assert not out.exists()

    def test_num_classes(self):
        spec = data.SyntheticSpec(3, 4, 8, 5, 5)
        assert spec.num_classes == 12


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        spec = data.SyntheticSpec(2, 3, 8, 5, 7, seed=0)
        train, test, emb = data.generate_synthetic(spec)
        assert train.features.shape == (30, 8) and train.split == "train"
        assert test.features.shape == (42, 8) and test.split == "test"
        assert np.array_equal(np.unique(train.labels), np.arange(6))
        assert emb.num_classes == 6 and emb.dim == 8

    def test_deterministic(self):
        spec = data.SyntheticSpec(2, 2, 4, 3, 3, seed=11)
        a = data.generate_synthetic(spec)
        b = data.generate_synthetic(spec)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[2].vectors, b[2].vectors)

    def test_cluster_geometry(self):
        # class centers inside a supercluster sit closer than across
        spec = data.SyntheticSpec(4, 5, 32, 2, 2, intra_spread=0.3,
                                  inter_spread=2.0, noise_sigma=2.0, seed=7)
        _, _, emb = data.generate_synthetic(spec)
        centers = emb.vectors
        within, across = [], []
        for i in range(20):
            for j in range(i + 1, 20):
                d = np.linalg.norm(centers[i] - centers[j])
                (within if i // 5 == j // 5 else across).append(d)
        assert np.mean(within) < np.mean(across)
