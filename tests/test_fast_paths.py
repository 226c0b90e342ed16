"""Parity of the vectorised paths with the code they replaced: the numpy C
reader of dataset CSVs against the line-by-line parser, the 17-digit writer's
round trip, rank-count top-k against a stable argsort, verify_curriculum
against its former per-step code, kept here as the reference, and the batch
step's forward, gradient, SGD step and regularizer against their former
numpy spellings, bit for bit."""

import types
import warnings

import numpy as np
import pytest

from lcl import curriculum as cur, data, experiments as ex, model

HEAD = "# classes=5 split=test\nlabel,f1,f2\n"


def python_load(path):
    """The dataset the line-by-line parser alone would build; its errors, like
    the loader's, name the file."""
    meta, labels, features = data._parse_python(path)
    try:
        return data.Dataset(features=features, labels=labels,
                            num_classes=int(meta["classes"]), split=meta["split"])
    except ValueError as exc:
        raise data.DataError(f"{path}: {exc}") from exc


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

    @pytest.mark.parametrize("classes, probs", [
        (7, "forward"), (3, "forward"), (1, "forward"),  # C < 5: top-5 is top-C
        (4, "uniform"),  # zero parameters: every class ties
        (6, "signed zeros"),  # few distinct values, 0.0 and -0.0 among them
    ])
    def test_evaluate_matches_reference(self, monkeypatch, classes, probs):
        rng = np.random.default_rng(3)
        test = data.Dataset(features=rng.normal(size=(300, 6)),
                            labels=rng.integers(0, classes, size=300), num_classes=classes,
                            split="test")
        params = model.init_params("mlp1", 6, classes, hidden=5, seed=rng)
        if probs == "uniform":
            params = model.ClassifierParams("mlp1", *(np.zeros_like(a) for a in (
                params.W_out, params.b_out, params.W1, params.b1)))
        preds = model.forward(params, test.features)
        if probs == "signed zeros":
            preds = rng.integers(0, 3, size=preds.shape) / 2.0
            preds[rng.random(size=preds.shape) < 0.2] = -0.0
            assert len(set(np.signbit(preds[preds == 0.0]))) == 2  # both zeros occur
            monkeypatch.setattr(model, "forward", lambda params, x: preds)
        assert ex._evaluate(params, test) == (reference_topk(preds, test.labels, 1),
                                             reference_topk(preds, test.labels, min(5, classes)))

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_hundred_classes_over_300_steps(self, kind):
        rng = np.random.default_rng(20 + KINDS.index(kind))
        quiet = {"invalid": "ignore"} if kind == "inf entry" else {}
        t = random_targets(rng, 100, kind)
        eps = float(rng.choice([0.3, 0.97, 0.999]))
        with np.errstate(**quiet), warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cur.verify_curriculum(bypass_schedule(t, eps), 300)
            entropies, violations = reference_verify(bypass_schedule(t, eps), 300)
        assert report.violations == violations
        assert report.entropies.tobytes() == entropies.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 2, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_row_blocks_give_the_bits_and_order_of_the_whole_matrix(self, monkeypatch, kind,
                                                                    block_rows):
        """Blocks of a few rows, the last one short where C is not a multiple,
        list the violations by step, axiom and row as the former code did."""
        rng = np.random.default_rng(30 + KINDS.index(kind))
        quiet = {"invalid": "ignore"} if kind == "inf entry" else {}
        for c in (3, 7, 12):
            monkeypatch.setattr(cur, "VERIFY_BLOCK_BYTES", block_rows * 8 * c)
            t = random_targets(rng, c, kind)
            eps = float(rng.choice([0.3, 0.9, 0.999]))
            with np.errstate(**quiet), warnings.catch_warnings():
                warnings.simplefilter("error")
                report = cur.verify_curriculum(bypass_schedule(t, eps), 15)
                entropies, violations = reference_verify(bypass_schedule(t, eps), 15)
            assert report.violations == violations
            assert report.entropies.tobytes() == entropies.tobytes()

    @pytest.mark.parametrize("layout", ["column-major", "strided"])
    @pytest.mark.parametrize("kind", ["valid", "nan row", "argmax off the diagonal"])
    def test_any_memory_layout_gives_the_row_major_bits(self, monkeypatch, kind, layout):
        """Blocks of a column-major or strided schedule are checked as rows:
        the diagonal masks and the row sums see the row-major bits."""
        monkeypatch.setattr(cur, "VERIFY_BLOCK_BYTES", 5 * 8 * 12)
        t = random_targets(np.random.default_rng(70 + KINDS.index(kind)), 12, kind)
        stored = np.asfortranarray(t) if layout == "column-major" else \
            np.repeat(t, 2, axis=1)[:, ::2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cur.verify_curriculum(bypass_schedule(stored, 0.9), 15)
            entropies, violations = reference_verify(bypass_schedule(t, 0.9), 15)
        assert report.violations == violations
        assert report.entropies.tobytes() == entropies.tobytes()
        assert report.passed == (kind == "valid")

    @pytest.mark.parametrize("kind", ["valid", "nan row", "argmax off the diagonal",
                                      "off the simplex"])
    def test_default_blocks_at_400_classes(self, kind):
        assert cur.VERIFY_BLOCK_BYTES // (8 * 400) < 400  # several row blocks, one short
        rng = np.random.default_rng(40 + KINDS.index(kind))
        t = random_targets(rng, 400, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cur.verify_curriculum(bypass_schedule(t, 0.95), 8)
            entropies, violations = reference_verify(bypass_schedule(t, 0.95), 8)
        assert report.violations == violations
        assert report.entropies.tobytes() == entropies.tobytes()

    # rows on the simplex whose diagonal is at or just above 1/2, where the
    # diagonal alone does not settle the argmax: (row, its argmax violation)
    HALF = 0.5 + cur.SIMPLEX_TOL / 4
    BOUNDARY_ROWS = {
        "tie at one half": ([0.5, 0.0, 0.5], "argmax at 0"),
        "diagonal a quarter tolerance above one half": ([1.0 - HALF, 0.0, HALF], None),
        "other entry above that diagonal": ([0.5 + cur.SIMPLEX_TOL / 2, 0.0, HALF],
                                            "argmax at 0"),
    }

    @pytest.mark.parametrize("block_rows", [1, 2, 400])
    @pytest.mark.parametrize("row", BOUNDARY_ROWS)
    def test_diagonal_at_one_half(self, monkeypatch, row, block_rows):
        """The boundary row is the last of an otherwise valid schedule; each
        block is checked on its own, the boundary row's block included."""
        monkeypatch.setattr(cur, "VERIFY_BLOCK_BYTES", block_rows * 8 * 3)
        last, argmax = self.BOUNDARY_ROWS[row]
        t = random_targets(np.random.default_rng(60), 3, "valid")
        t[2] = last
        assert not cur._off_simplex(t)[1].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cur.verify_curriculum(bypass_schedule(t, 0.9), 20)
            entropies, violations = reference_verify(bypass_schedule(t, 0.9), 20)
        assert report.violations == violations
        assert report.entropies.tobytes() == entropies.tobytes()
        # the first step cools the row past the tie
        assert violations == ([] if argmax is None else
                              [cur.AxiomViolation("argmax", 2, 0, argmax)])
        if argmax is None:
            cur.TargetSchedule(targets=t, epsilon=0.9)  # accepted
        else:
            with pytest.raises(cur.CurriculumError, match="^row 2: argmax is not"):
                cur.TargetSchedule(targets=t, epsilon=0.9)

    @pytest.mark.parametrize("c", [5, 30])
    def test_subnormal_entries_beside_zeros(self, c):
        """At epsilon 0.3, off-diagonal entries turn subnormal by step 600 and
        underflow to 0 by step 700, beside entries that were 0 from the
        start."""
        rng = np.random.default_rng(61 + c)
        schedule = cur.TargetSchedule(targets=random_targets(rng, c, "valid"), epsilon=0.3)
        t = cur.advance_to(schedule, 600).targets
        assert ((t > 0.0) & (t < np.finfo(float).tiny)).any() and (t == 0.0).any()
        assert (cur.advance_to(schedule, 700).targets == np.eye(c)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cur.verify_curriculum(schedule, 750)
            entropies, violations = reference_verify(schedule, 750)
        assert report.passed and violations == []
        assert report.entropies.tobytes() == entropies.tobytes()


class TestUncheckedAdvance:
    """advance_to builds each step without the constructor's checks; its
    tables must be the bytes of the checked public step, whose results the
    checked constructor built."""

    @pytest.mark.parametrize("kind", ["valid", "one-hot rows"])
    def test_2000_steps_equal_checked_steps(self, kind):
        rng = np.random.default_rng(50 + KINDS.index(kind))
        for c in (1, 2, 5, 20):
            for eps in (0.3, 0.9, 0.999):
                schedule = cur.TargetSchedule(targets=random_targets(rng, c, kind), epsilon=eps)
                checked = unchecked = schedule
                for k in range(1, 2001):
                    checked = cur.step(checked)
                    unchecked = cur.advance_to(unchecked, k)
                    assert unchecked.targets.tobytes() == checked.targets.tobytes()
                    assert (type(unchecked), unchecked.epsilon, unchecked.step_count) == \
                        (cur.TargetSchedule, eps, k)
                assert cur.advance_to(schedule, 2000).targets.tobytes() == \
                    checked.targets.tobytes()

    def test_1000_classes_for_200_steps(self):
        rng = np.random.default_rng(52)
        sim = rng.random(size=(1000, 1000)) * 0.5
        np.fill_diagonal(sim, 1.0)
        checked = cur.init_targets(types.SimpleNamespace(entries=sim), 0.999)
        unchecked = cur.advance_to(checked, 0)
        for k in range(1, 201):
            checked = cur.step(checked)
            unchecked = cur.advance_to(unchecked, k)
            assert unchecked.targets.tobytes() == checked.targets.tobytes()

    def test_advance_runs_no_checks(self, monkeypatch):
        schedule = cur.TargetSchedule(targets=random_targets(np.random.default_rng(53), 6,
                                                             "valid"), epsilon=0.9)
        checks = []
        monkeypatch.setattr(cur.TargetSchedule, "__post_init__",
                            lambda self: checks.append(self.step_count))
        assert cur.advance_to(schedule, 50).step_count == 50
        assert checks == []
        cur.step(schedule)
        assert checks == [1]


def laid_out(a, layout):
    """The 2-D array a as a C-ordered, an F-ordered or a strided (every other
    column of a wider array) array of the same values."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "sliced":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return np.ascontiguousarray(a)


def former_step(params, xs, err, lam, lr):
    """Forward pass, gradient and SGD step as written with @, ndarray.max/.sum
    and np.sum(W ** 2) before the batch step shed its numpy wrappers."""
    if params.architecture == "linear":
        logits = xs @ params.W_out + params.b_out
    else:
        pre = xs @ params.W1 + params.b1
        act = np.maximum(pre, 0.0)
        logits = act @ params.W_out + params.b_out
    z = logits - logits.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    err = err / xs.shape[0]
    if params.architecture == "linear":
        grads = [xs.T @ err + lam * params.W_out, err.sum(axis=0)]
    else:
        back = (err @ params.W_out.T) * (pre > 0.0)
        grads = [xs.T @ back + lam * params.W1, back.sum(axis=0),
                 act.T @ err + lam * params.W_out, err.sum(axis=0)]
    stepped = [w - lr * g for w, g in zip(params.arrays(), grads)]
    reg = 0.5 * np.sum(params.W_out ** 2)
    if params.architecture == "mlp1":
        reg += 0.5 * np.sum(params.W1 ** 2)
    return z, grads, stepped, float(reg)


SHAPES = [(1, 1, 1, 1), (1, 7, 3, 5), (4, 32, 64, 20), (5, 2, 9, 1), (32, 64, 64, 50),
          (150, 130, 70, 200)]  # (rows, d, hidden, C); the last spans numpy's sum blocks


class TestBatchStepBits:
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_step_matches_former_spelling(self, architecture, layout, lam):
        rng = np.random.default_rng(13)
        for n, d, h, c in SHAPES:
            params = model.init_params(architecture, d, c, hidden=h, seed=rng)
            params = model.ClassifierParams(architecture, **{
                name: laid_out(arr * 40.0, layout) if arr.ndim == 2 else arr + 0.5
                for name, arr in zip(model.LAYOUT[architecture], params.arrays())})
            xs = laid_out(rng.normal(size=(n, d)), layout)
            err = rng.normal(size=(n, c))
            want_pred, want_grads, want_stepped, want_reg = former_step(params, xs, err, lam, 0.1)
            pred, hidden = model.forward_batch(params, xs)
            grads = model.gradient_from_arrays(params, xs, err, lam, hidden)
            stepped = model.sgd_step(params, grads, 0.1)
            assert pred.tobytes() == want_pred.tobytes()
            assert model.forward(params, xs).tobytes() == want_pred.tobytes()
            assert [g.tobytes() for g in grads.arrays()] == [g.tobytes() for g in want_grads]
            assert [w.tobytes() for w in stepped.arrays()] == [w.tobytes() for w in want_stepped]
            assert np.float64(model.regularizer(params)).tobytes() == \
                np.float64(want_reg).tobytes()


def former_logits(params, x):
    """Logits as written before the bias was added in place."""
    if params.architecture == "linear":
        return x @ params.W_out + params.b_out
    act = np.maximum(x @ params.W1 + params.b1, 0.0)
    return act @ params.W_out + params.b_out


def former_softmax(logits):
    """The softmax as written before it took `out`: logits minus their row
    max into a new array."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def former_generate(spec):
    """generate_synthetic's arrays as drawn before each split's noise took its
    centers in place: (train, test) as (features, labels), and the centers."""
    rng = np.random.default_rng(spec.seed)
    c = spec.num_classes
    super_centers = rng.normal(0.0, spec.inter_spread, size=(spec.num_superclusters, spec.dim))
    centers = np.repeat(super_centers, spec.classes_per_supercluster, axis=0) \
        + rng.normal(0.0, spec.intra_spread, size=(c, spec.dim))
    splits = [(centers.repeat(per_class, axis=0)
               + rng.normal(0.0, spec.noise_sigma, size=(c * per_class, spec.dim)),
               np.repeat(np.arange(c), per_class))
              for per_class in (spec.train_per_class, spec.test_per_class)]
    return splits, centers


class TestInPlaceForwardBits:
    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_forward_matches_former_expression(self, architecture):
        rng = np.random.default_rng(17)
        for n, d, h, c in SHAPES + [(2000, 16, 32, 1000)]:  # the last at ImageNet's C
            params = model.init_params(architecture, d, c, hidden=h, seed=rng)
            params = model.ClassifierParams(architecture, **{
                name: arr * 40.0 if arr.ndim == 2 else arr + 0.5
                for name, arr in zip(model.LAYOUT[architecture], params.arrays())})
            xs = rng.normal(size=(n, d))
            want = former_logits(params, xs)
            assert model.logits(params, xs).tobytes() == want.tobytes()
            want = former_softmax(want)
            assert model.forward(params, xs).tobytes() == want.tobytes()
            assert model.forward_batch(params, xs)[0].tobytes() == want.tobytes()
            assert model.forward(params, xs[0]).tobytes() == \
                former_softmax(former_logits(params, xs[0])).tobytes()

    @pytest.mark.parametrize("temperature", [1.0, 0.5, 3.0])
    @pytest.mark.parametrize("architecture", ["linear", "mlp1"])
    def test_kd_soft_targets_match_former_expression(self, monkeypatch, architecture,
                                                     temperature):
        train, test, _ = data.generate_synthetic(data.SyntheticSpec(2, 3, 5, 12, 2, seed=4))
        trained, real_train = [], ex._train

        def recording_train(config, models, xs, index, table_at, shuffle_rng):
            models, history = real_train(config, models, xs, index, table_at, shuffle_rng)
            trained.append((models, table_at(0)))
            return models, history

        monkeypatch.setattr(ex, "_train", recording_train)
        cfg = ex.ExperimentConfig("KD", kd_temperature=temperature, epochs=3, batch_size=8,
                                  architecture=architecture, hidden=7, seeds=(0,))
        ex.run_trial(cfg, 0, train, test)
        ((teacher,), _), (_, soft_targets) = trained
        want = former_softmax(former_logits(teacher, train.features) / temperature)
        assert soft_targets.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [
        data.SyntheticSpec(), data.SyntheticSpec(1, 1, 1, 1, 1, seed=5),
        data.SyntheticSpec(4, 5, 32, 20, 250, 0.3, 2.0, 2.0, seed=7),
        data.SyntheticSpec(3, 2, 7, 5, 9, 0.25, 3.0, 1.5, seed=11)])
    def test_generate_synthetic_matches_former_expression(self, spec):
        (want_train, want_test), centers = former_generate(spec)
        train, test, emb = data.generate_synthetic(spec)
        for ds, (features, labels) in ((train, want_train), (test, want_test)):
            assert ds.features.shape == features.shape
            assert ds.features.tobytes() == features.tobytes()
            assert ds.labels.tobytes() == labels.tobytes()
        assert emb.vectors.tobytes() == centers.tobytes()
