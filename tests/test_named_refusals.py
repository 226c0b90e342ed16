"""Refusals that name their cause: generator spreads that overflow float64
name the spread fields and their values, also when warnings are errors, and
a load_embeddings expected_dim below 1 names the argument, not the file."""

import re
import warnings

import pytest

from lcl import cli, data, similarity as sm


@pytest.mark.parametrize("spreads, what, named", [
    # the supercluster centers alone overflow
    ({"inter_spread": 1e308, "intra_spread": 1.0}, "class centers",
     "inter_spread=1e+308, intra_spread=1"),
    # finite supercluster centers whose sum with the class offsets overflows
    ({"inter_spread": 1.7e308, "intra_spread": 1e308}, "class centers",
     "inter_spread=1.7e+308, intra_spread=1e+308"),
    # finite class centers, noise that overflows
    ({"noise_sigma": 1e308}, "features", "inter_spread=4, intra_spread=1, noise_sigma=1e+308"),
])
def test_overflowing_spreads_are_named(spreads, what, named):
    spec = data.SyntheticSpec(**spreads)
    message = f"synthetic {what} overflow float64: {named}; use smaller spreads"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would escape as RuntimeWarning
        with pytest.raises(data.DataError, match=f"^{re.escape(message)}$"):
            data.generate_synthetic(spec)


def test_overflowing_spread_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--inter-spread", "1e308", "--intra-spread", "1",
                     "--out-dir", str(out)]) == cli.EXIT_USAGE
    line, = capsys.readouterr().err.splitlines()
    assert line == ("error: synthetic class centers overflow float64: "
                    "inter_spread=1e+308, intra_spread=1; use smaller spreads")
    assert not out.exists()


def test_large_finite_spreads_still_generate():
    train, test, emb = data.generate_synthetic(
        data.SyntheticSpec(inter_spread=1e100, intra_spread=1e99, noise_sigma=1e98))
    assert train.num_examples == 1000 and emb.num_classes == 20


@pytest.mark.parametrize("inter, intra, flow, advice", [
    # finite class centers above the largest entry a 32-d norm can square
    ("1e300", "1e299", "overflow", "smaller"),
    # class centers whose squares underflow, so their norms would be lost
    ("1e-300", "1e-301", "underflow", "larger"),
])
def test_center_norms_out_of_range_name_the_spreads(tmp_path, capsys, inter, intra, flow,
                                                    advice):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["gen-data", "--inter-spread", inter, "--intra-spread", intra,
                         "--out-dir", str(out)]) == cli.EXIT_USAGE
    line, = capsys.readouterr().err.splitlines()
    assert line == (f"error: synthetic class center norms {flow} float64: "
                    f"inter_spread={float(inter):g}, intra_spread={float(intra):g}; "
                    f"use {advice} spreads")
    assert not out.exists()


@pytest.mark.parametrize("dim", [0, -3])
def test_expected_dim_below_one_is_refused_before_the_file_is_read(tmp_path, dim):
    with pytest.raises(sm.SimilarityError, match=f"^expected_dim must be >= 1, got {dim}$"):
        sm.load_embeddings(tmp_path / "missing.txt", expected_dim=dim)


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_bad_dim_flag_blames_the_flag(tmp_path, capsys, dim):
    emb = tmp_path / "emb.txt"
    emb.write_text("a 1 0\nb 0 1\n")
    out = tmp_path / "sim.csv"
    assert cli.main(["build-sim", "--kind", "embedding", "--in", str(emb), "--dim", dim,
                     "--out", str(out)]) == cli.EXIT_USAGE
    line, = capsys.readouterr().err.splitlines()
    assert line == f"error: expected_dim must be >= 1, got {dim}"
    assert not out.exists()
