"""Friedman ranks computed over whole tables, checked against the per-row
tie loop they replaced, and the config grid `lcl run` builds from a file."""

import numpy as np
import pytest

from lcl import cli, experiments as ex


def reference_average_ranks(scores):
    """The per-row loop ranks used to come from: sort descending, walk each
    run of equal scores and give it the mean of its positions."""
    scores = np.asarray(scores, dtype=float)
    neg = -scores
    sorter = np.argsort(neg, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and neg[sorter[j + 1]] == neg[sorter[i]]:
            j += 1
        ranks[sorter[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_table_ranks_match_row_loop_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n, k = int(rng.integers(2, 12)), int(rng.integers(2, 9))
        # few distinct values, so most rows have ties, some of them total
        table = rng.integers(0, int(rng.integers(1, 5)), size=(n, k)) / 4.0
        expected = np.vstack([reference_average_ranks(row) for row in table])
        assert np.array_equal(ex._average_ranks(table), expected)
        assert np.array_equal(ex._average_ranks(table[0]), expected[0])


def test_friedman_statistics_unchanged_on_tied_tables():
    rng = np.random.default_rng(1)
    for _ in range(100):
        table = rng.integers(0, 3, size=(int(rng.integers(2, 20)), 4)).astype(float)
        ranks = np.vstack([reference_average_ranks(row) for row in table])
        n, k = table.shape
        avg = ranks.mean(axis=0)
        chi2 = 12.0 * n / (k * (k + 1)) * (np.sum(avg ** 2) - k * (k + 1) ** 2 / 4.0)
        r = ex.friedman_iman_davenport(table)
        assert r.chi2_f == float(chi2)
        assert sorted(r.avg_ranks) == sorted(float(a) for a in avg)


def test_config_grid_order_and_ids(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text("[paths]\ntrain = t.csv\ntest = s.csv\n\n"
                    "[grid]\nencodings = SL LS LCL KD DML\nepsilons = 0.9 0.99\n"
                    "drs = 0.05 1.0\nseeds = 0 1\n\n"
                    "[training]\nalpha = 0.2\nkd_temperature = 3\nepochs = 5\n")
    configs, _ = cli.load_config_file(str(path))
    tail = "_linear_e5_b16_lr0.1"
    assert [c.config_id for c in configs] == [
        f"{m}_dr{dr}{tail}" for dr in ("0.05", "1")
        for m in ("SL", "LS-alpha0.2", "LCL-eps0.9", "LCL-eps0.99", "KD-T3", "DML")]
    assert [(c.epsilon, c.alpha, c.kd_temperature) for c in configs[:6]] == [
        (None, None, None), (None, 0.2, None), (0.9, None, None),
        (0.99, None, None), (None, None, 3.0), (None, None, None)]
    assert all(c.seeds == (0, 1) and c.epochs == 5 for c in configs)


@pytest.mark.parametrize("grid, training", [
    ("encodings = SL XX", ""),
    ("encodings = LCL\nepsilons = 1.5", ""),
    ("encodings = LS", "alpha = abc"),
])
def test_config_errors_are_usage_errors_naming_the_file(tmp_path, grid, training):
    path = tmp_path / "grid.cfg"
    path.write_text(f"[paths]\n\n[grid]\n{grid}\n\n[training]\n{training}\n")
    with pytest.raises(cli.UsageError, match=f"^{path}: "):
        cli.load_config_file(str(path))
