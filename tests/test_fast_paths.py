"""Parity of the vectorised paths with the code they replaced: the numpy C
reader of dataset CSVs against the line-by-line parser, the 17-digit writer's
round trip, rank-count top-k against a stable argsort, and verify_curriculum
against its former per-step code, kept here as the reference."""

import types
import warnings

import numpy as np
import pytest

from lcl import curriculum as cur, data, experiments as ex, model

HEAD = "# classes=5 split=test\nlabel,f1,f2\n"


def python_load(path):
    """The dataset the line-by-line parser alone would build."""
    meta, labels, features = data._parse_python(path)
    return data.Dataset(features=features, labels=labels,
                        num_classes=int(meta["classes"]), split=meta["split"])


def outcome(load, path):
    """The loaded arrays, bit for bit, or the DataError message; any warning
    fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = load(path)
        except data.DataError as exc:
            return str(exc)
    return (ds.labels.dtype, ds.labels.tobytes(), ds.features.shape,
            ds.features.tobytes(), ds.num_classes, ds.split)


ODD_FILES = {
    "label 3.0": HEAD + "0,1.0,2.0\n3.0,1.0,2.0\n",
    "label +3": HEAD + "+3,1.0,2.0\n",
    "label with a space": HEAD + " 3,1.0,2.0\n",
    "label 1e0": HEAD + "1e0,1.0,2.0\n",
    "empty field": HEAD + "3,,2.0\n",
    "trailing comma": HEAD + "3,1.0,2.0,\n",
    "crlf": (HEAD + "0,1.5,2.5\n4,-3.25,1e-300\n").replace("\n", "\r\n"),
    "blank line inside": HEAD + "0,1.0,2.0\n\n1,3.0,4.0\n",
    "whitespace line inside": HEAD + "0,1.0,2.0\n   \n1,3.0,4.0\n",
    "comment line inside": HEAD + "0,1.0,2.0\n# note\n1,3.0,4.0\n",
    "metadata line inside": HEAD + "0,1.0,2.0\n# classes=2\n1,3.0,4.0\n",
    "second header inside": HEAD + "0,1.0,2.0\nlabel,f1,f2\n1,3.0,4.0\n",
    "header only": HEAD,
    "header then blank lines": HEAD + "\n\n",
    "no header": "# classes=5 split=test\n0,1.0,2.0\n",
    "metadata after header": "label,f1,f2\n# classes=5 split=test\n0,1.0,2.0\n",
    "no metadata": "label,f1,f2\n0,1.0,2.0\n",
    "nan feature": HEAD + "0,1.0,2.0\n1,nan,2.0\n",
    "inf feature": HEAD + "0,1.0,2.0\n1,1.0,inf\n",
    "-inf feature": HEAD + "0,-inf,2.0\n",
    "short row": HEAD + "0,1.0,2.0\n1,3.0\n",
    "rows wider than the header": HEAD + "0,1.0,2.0,3.0\n1,4.0,5.0,6.0\n",
    "ragged wide row": HEAD + "0,1.0,2.0\n1,3.0,4.0,5.0\n",
    "spaces around fields": HEAD + "0 , 1.0 ,\t2.0\n",
    "underscore in a number": HEAD + "0,1_0.5,2.0\n",
    "one row": HEAD + "2,0.1,-0.0\n",
    "label out of range": HEAD + "7,1.0,2.0\n",
    "train split missing a class": "# classes=2 split=train\nlabel,f1\n0,1.0\n",
}


class TestFastReader:
    @pytest.mark.parametrize("name", sorted(ODD_FILES))
    def test_same_arrays_or_same_error(self, tmp_path, name):
        path = tmp_path / "d.csv"
        path.write_bytes(ODD_FILES[name].encode("utf-8"))
        assert outcome(data.load_dataset, path) == outcome(python_load, path)

    @pytest.mark.parametrize("name", sorted(ODD_FILES))
    def test_fast_path_accepts_only_what_the_python_parser_reads_alike(self, tmp_path, name):
        path = tmp_path / "d.csv"
        path.write_bytes(ODD_FILES[name].encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open(path, encoding="utf-8") as fh:
                fast = data._parse_fast(fh)
        if fast is not None:
            meta, labels, features = data._parse_python(path)
            assert fast[0] == meta
            assert fast[1].tobytes() == labels.astype(np.int64).tobytes()
            assert fast[2].flags.c_contiguous and fast[2].tobytes() == features.tobytes()

    @pytest.mark.parametrize("name", ["crlf", "blank line inside", "one row"])
    def test_fast_path_reads_plain_variants(self, tmp_path, name):
        path = tmp_path / "d.csv"
        path.write_bytes(ODD_FILES[name].encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert data._parse_fast(fh) is not None

    def test_saved_files_take_the_fast_path(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = data.Dataset(features=rng.normal(size=(30, 4)), labels=np.arange(30) % 3,
                          num_classes=3, split="train")
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        with open(path, encoding="utf-8") as fh:
            meta, labels, features = data._parse_fast(fh)
        assert meta == {"classes": "3", "split": "train"}
        assert np.array_equal(labels, ds.labels)
        assert features.tobytes() == ds.features.tobytes()


class TestRoundTrip:
    def test_extreme_values_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e22]
        feats = np.concatenate([rng.normal(size=(200, len(special))),
                                rng.normal(size=(200, len(special))) * 1e-300,
                                np.array([special])])
        labels = np.arange(feats.shape[0]) % 4
        for split in ("train", "test"):
            ds = data.Dataset(features=feats, labels=labels, num_classes=4, split=split)
            path = tmp_path / f"{split}.csv"
            data.save_dataset(ds, path)
            back = data.load_dataset(path)
            assert back.features.tobytes() == ds.features.tobytes()  # -0.0 included
            assert np.array_equal(back.labels, ds.labels)
            assert (back.num_classes, back.split) == (4, split)
            assert python_load(path).features.tobytes() == ds.features.tobytes()

    def test_rows_use_17_significant_digits(self, tmp_path):
        ds = data.Dataset(features=np.array([[0.1, -0.0]]), labels=np.array([0]),
                          num_classes=1, split="test")
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        assert path.read_text().splitlines() == [
            "# classes=1 split=test", "label,f1,f2", "0,0.10000000000000001,-0"]


def reference_topk(probs, labels, k):
    """The former top-k: a stable argsort of -probs, lower index first among ties."""
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return float(np.mean((order == labels[:, None]).any(axis=1)))


class TestTopkByRank:
    def test_matches_stable_argsort_with_heavy_ties(self):
        rng = np.random.default_rng(2)
        for trial in range(300):
            n, c = rng.integers(1, 40), rng.integers(1, 12)
            levels = rng.integers(1, 4)  # few distinct values: many ties
            probs = rng.integers(0, levels + 1, size=(n, c)) / levels
            probs[rng.random(size=(n, c)) < 0.2] = -0.0  # ties between 0.0 and -0.0
            if trial % 3 == 0:
                probs = probs + rng.normal(size=(n, c)) * (trial % 2)
            labels = rng.integers(0, c, size=n)
            for k in range(1, c + 1):
                assert ex.topk_accuracy(probs, labels, k) == reference_topk(probs, labels, k)

    def test_evaluate_matches_reference(self):
        rng = np.random.default_rng(3)
        test = data.Dataset(features=rng.normal(size=(300, 6)),
                            labels=rng.integers(0, 7, size=300), num_classes=7, split="test")
        params = model.init_params("mlp1", 6, 7, hidden=5, seed=rng)
        preds = model.forward(params, test.features)
        assert ex._evaluate(params, test) == (reference_topk(preds, test.labels, 1),
                                             reference_topk(preds, test.labels, 5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, value):
        probs = np.array([[0.2, 0.8], [0.5, value]])
        with pytest.raises(ex.ExperimentError, match="non-finite"):
            ex.topk_accuracy(probs, [0, 1], 1)

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0], [0]])
    def test_labels_checked(self, labels):
        with pytest.raises(ex.ExperimentError, match="one label"):
            ex.topk_accuracy(np.array([[0.2, 0.8], [0.5, 0.5]]), labels, 1)


def reference_verify(schedule, horizon):
    """verify_curriculum as it was: two `where`s under errstate for the
    entropy, fresh C x C temporaries at every step, and the cooling step
    written out."""
    c = schedule.num_classes
    eps = schedule.epsilon
    initial = schedule.targets.copy()
    entropies = np.zeros((horizon + 1, c))
    violations = []
    idx = np.arange(c)
    off_mask = ~np.eye(c, dtype=bool)
    prev_off_mass = np.zeros(c)
    now = schedule.targets.copy()

    def row_entropies(mat):
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(mat > 0.0, -mat * np.log(np.where(mat > 0.0, mat, 1.0)), 0.0)
        return h.sum(axis=1)

    for t in range(horizon + 1):
        row_sums = now.sum(axis=1)
        diag = now[idx, idx]
        entropies[t] = row_entropies(now)
        resid = np.abs(row_sums - 1.0)
        bad = ~((now >= 0.0).all(axis=1) & (resid <= cur.SIMPLEX_TOL))
        for i in np.flatnonzero(bad):
            violations.append(cur.AxiomViolation(
                "simplex", int(i), t, f"residual {resid[i]:.3g}"))
        off_max = np.where(off_mask, now, -np.inf).max(axis=1)
        for i in np.flatnonzero(~(diag > off_max)) if c > 1 else []:
            violations.append(cur.AxiomViolation(
                "argmax", int(i), t, f"argmax at {int(np.argmax(now[i]))}"))
        if t > 0:
            rising = (prev_off_mass > cur.SIMPLEX_TOL) & \
                (entropies[t] >= entropies[t - 1] + cur.ENTROPY_TOL)
            for i in np.flatnonzero(rising):
                violations.append(cur.AxiomViolation(
                    "entropy-decrease", int(i), t,
                    f"H went {entropies[t - 1, i]:.17g} -> {entropies[t, i]:.17g}"))
            over = off_mask & (now > eps ** t * initial + cur.DECAY_TOL)
            for i in np.flatnonzero(over.any(axis=1)):
                violations.append(cur.AxiomViolation(
                    "geometric-decay", int(i), t,
                    f"off-diagonal {int(np.argmax(over[i]))} above eps^t bound"))
        prev_off_mass = row_sums - diag
        if t < horizon:
            d = np.diag(now)
            denom = 1.0 + eps * (now.sum(axis=1) - d)
            now = eps * now / denom[:, None]
            now[idx, idx] = 1.0 / denom
    return entropies, violations


def random_targets(rng, c, kind):
    sim = rng.random(size=(c, c)) * rng.uniform(0.1, 0.9)
    sim[rng.random(size=(c, c)) < 0.3] = 0.0  # zero entries stay zero
    np.fill_diagonal(sim, 1.0)
    t = sim / sim.sum(axis=1, keepdims=True)
    i = rng.integers(c)
    if kind == "one-hot rows":
        rows = rng.random(size=c) < 0.5
        rows[i] = True
        t[rows] = np.eye(c)[rows]
    elif kind == "nan row":
        t[i] = np.nan
    elif kind == "negative entry" and c > 1:
        t[i, (i + 1) % c] = -0.05
    elif kind == "argmax off the diagonal" and c > 1:
        t[i] = np.roll(t[i], 1)
    elif kind == "off the simplex":
        t[i] *= 1.5
    elif kind == "rows of zeros and ones":
        t[i] = 0.0
        t[(i + 1) % c] = 1.0
    elif kind == "inf entry":
        t[i, i] = np.inf
    return t


def bypass_schedule(targets, epsilon):
    """A schedule that skips the constructor's checks, so that verify sees
    matrices that break the axioms."""
    return types.SimpleNamespace(targets=targets, epsilon=epsilon,
                                 num_classes=targets.shape[0])


KINDS = ["valid", "one-hot rows", "nan row", "negative entry", "argmax off the diagonal",
         "off the simplex", "rows of zeros and ones", "inf entry"]


class TestVerifyMatchesFormerCode:
    @pytest.mark.parametrize("kind", KINDS)
    def test_violations_and_entropies_bitwise(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        # an inf entry makes the cooling step itself compute inf - inf
        quiet = {"invalid": "ignore"} if kind == "inf entry" else {}
        for c in (1, 2, 3, 5, 12):
            for _ in range(4):
                t = random_targets(rng, c, kind)
                eps = float(rng.choice([0.3, 0.9, 0.999, rng.uniform(0.01, 0.99)]))
                horizon = int(rng.integers(1, 25))
                with np.errstate(**quiet), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = cur.verify_curriculum(bypass_schedule(t, eps), horizon)
                    entropies, violations = reference_verify(bypass_schedule(t, eps), horizon)
                assert report.violations == violations
                assert report.entropies.tobytes() == entropies.tobytes()
                if kind in ("valid", "one-hot rows"):
                    assert report.passed

    def test_valid_schedules_pass_unchanged(self):
        rng = np.random.default_rng(9)
        for c in (1, 4, 30):
            schedule = cur.init_targets(
                types.SimpleNamespace(entries=random_targets(rng, c, "valid")), 0.95)
            report = cur.verify_curriculum(schedule, 60)
            entropies, violations = reference_verify(schedule, 60)
            assert report.passed and violations == []
            assert report.entropies.tobytes() == entropies.tobytes()

    def test_schedule_left_untouched(self):
        rng = np.random.default_rng(10)
        targets = random_targets(rng, 6, "valid")
        schedule = cur.TargetSchedule(targets=targets, epsilon=0.9)
        before = schedule.targets.copy()
        cur.verify_curriculum(schedule, 5)
        assert schedule.targets.tobytes() == before.tobytes()

    def test_step_unchanged(self):
        rng = np.random.default_rng(11)
        schedule = cur.TargetSchedule(targets=random_targets(rng, 9, "valid"), epsilon=0.8)
        t, eps = schedule.targets, schedule.epsilon
        d = np.diag(t)
        denom = 1.0 + eps * (t.sum(axis=1) - d)
        expected = eps * t / denom[:, None]
        expected[np.arange(9), np.arange(9)] = 1.0 / denom
        assert cur.step(schedule).targets.tobytes() == expected.tobytes()
