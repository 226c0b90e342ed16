"""Command-line surface: build similarity matrices, verify curricula, run
experiment suites, aggregate reports, and generate synthetic data.

Exit codes: 0 success, 1 verification/statistical failure or a failed
trial in `run`, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys

import numpy as np

from . import _files, curriculum, data, experiments, similarity

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _effective_rank(eigvals):
    # exponential of the spectral entropy of the normalized eigenvalues
    lam = np.clip(np.asarray(eigvals, dtype=float), 0.0, None)
    p = lam / lam.sum()
    nz = p[p > 0.0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


def cmd_build_sim(args):
    if args.kind == "hierarchy":
        sim = similarity.simrank(similarity.load_hierarchy(args.input), decay=args.decay)
    else:  # embedding or attribute
        table = similarity.load_embeddings(args.input, expected_dim=args.dim)
        sim = similarity.build_cosine_similarity(table,
                                                 clamp_negative=not args.no_clamp)
        if args.kind == "attribute":
            sim = dataclasses.replace(sim, source="attribute-cosine")
    similarity.save_similarity(sim, args.output)
    spectrum = similarity.eigenspectrum(sim)
    top5 = ", ".join(f"{v:.6f}" for v in spectrum[:5])
    print(f"wrote {args.output}: C={sim.num_classes} source={sim.source}")
    print(f"clamped entries: {sim.clamped_entries}")
    print(f"top-5 eigenvalues: {top5}")
    print(f"effective rank: {_effective_rank(spectrum):.3f}")
    return EXIT_OK


def cmd_verify(args):
    try:
        sim = similarity.load_similarity(args.sim)
        schedule = curriculum.init_targets(sim, args.epsilon)
    except similarity.SimilarityFileError:
        raise  # a malformed file is a usage error (exit 2), not a failed check
    except (similarity.SimilarityError, curriculum.CurriculumError) as exc:
        print(f"verification failed before stepping: {exc}")
        return EXIT_FAIL
    report = curriculum.verify_curriculum(schedule, args.horizon)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAIL


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _open_unit(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:  # NaN fails it too
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def _parse_list(text, parse=_finite):
    return [parse(x) for x in text.replace(",", " ").split()]


# [training] key -> (ExperimentConfig field, parser); a key left out is not
# passed, so ExperimentConfig holds the one copy of each default
TRAINING_KEYS = {"epochs": ("epochs", int), "batch_size": ("batch_size", int),
                 "lr": ("lr", _finite), "lr_decay": ("lr_decay", _finite),
                 "lambda": ("lam", _finite), "architecture": ("architecture", str),
                 "hidden": ("hidden", int), "alpha": ("alpha", _finite),
                 "kd_temperature": ("kd_temperature", _finite)}
CONFIG_KEYS = {"paths": ("train", "test", "similarity", "out_dir"),
               "grid": ("encodings", "epsilons", "drs", "seeds"),
               "training": tuple(TRAINING_KEYS)}


def load_config_file(path):
    """Parse the key=value experiment config into (configs, paths dict)."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal, `%` too
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        for name in parser.sections():
            if name not in CONFIG_KEYS:
                raise UsageError(f"{path}: unknown section [{name}]")
            for key in parser[name]:
                if key not in CONFIG_KEYS[name]:
                    raise UsageError(f"{path}: [{name}] has unknown key `{key}`")
        if "paths" not in parser or "grid" not in parser:
            raise UsageError(f"{path}: need [paths] and [grid] sections")
        paths, grid = dict(parser["paths"]), parser["grid"]
        training = {field: parse(parser.get("training", key)) for key, (field, parse)
                    in TRAINING_KEYS.items() if parser.has_option("training", key)}
        eps = _parse_list(grid.get("epsilons", "0.9 0.99 0.999"))
        variants = {"LCL": [{"epsilon": e} for e in eps]}
        for enc, field in (("LS", "alpha"), ("KD", "kd_temperature")):
            variants[enc] = [{field: training.pop(field)} if field in training else {}]
        default = experiments.ExperimentConfig  # a key left out takes its default
        seeds = tuple(_parse_list(grid["seeds"], int)) if "seeds" in grid else default.seeds
        drs = _parse_list(grid["drs"]) if "drs" in grid else [default.dr]
        configs = [experiments.ExperimentConfig(encoding=enc, dr=dr, seeds=seeds,
                                                **hyper, **training)
                   for dr in drs
                   for enc in grid.get("encodings", "SL").split()
                   for hyper in variants.get(enc, [{}])]  # SL and DML take none
        # checked before any training, not after the whole grid has run
        experiments.check_rank_cells(((c.dr, seed, c.method_label)
                                      for c in configs for seed in c.seeds),
                                     cause="[grid] repeats a value")
    # malformed INI, a malformed number, an ExperimentError or a non-UTF-8 byte
    except (configparser.Error, ValueError) as exc:
        lines = (line.strip() for line in str(exc).splitlines())
        raise UsageError(f"{path}: {' '.join(lines)}") from exc
    if not configs:
        raise UsageError(f"{path}: empty grid")
    return configs, paths


def cmd_run(args):
    configs, paths = load_config_file(args.config)
    for key in ("train", "test"):
        if key not in paths:
            raise UsageError(f"{args.config}: [paths] needs `{key}`")
    train = data.load_dataset(paths["train"])
    test = data.load_dataset(paths["test"])
    sim = None
    needs_sim = any(c.encoding == "LCL" for c in configs)
    if needs_sim:
        if "similarity" not in paths:
            raise UsageError(f"{args.config}: LCL configs need [paths] similarity")
        sim = similarity.load_similarity(paths["similarity"])
    inputs = [paths["train"], paths["test"]] + ([paths["similarity"]] if needs_sim else [])
    # once for the whole grid, before any training
    with _files.named(", ".join(inputs), UsageError, experiments.ExperimentError):
        experiments.check_inputs(configs, train, test, sim)
    out_dir = args.out_dir or paths.get("out_dir", "results")
    results, agg, rank = experiments.run_suite(configs, train, test, sim=sim,
                                               out_dir=out_dir, jobs=args.jobs)
    print(f"{len(results)} trials -> {out_dir}/raw_results.csv")
    print(f"{'config_id':<44s} {'n':>2s} {'top1':>8s} {'std':>8s} {'top5':>8s}")
    for row in agg:
        print(f"{row.config_id:<44s} {row.n_trials:>2d} "
              f"{row.top1_mean:>8.4f} {row.top1_std:>8.4f} {row.top5_mean:>8.4f}")
    if rank is not None:
        print(rank.report())
    done = {(r.config_id, r.seed) for r in results}
    failed = sum((c.config_id, seed) not in done for c in configs for seed in c.seeds)
    if failed:
        print(f"error: {failed} of {sum(len(c.seeds) for c in configs)} trials failed; "
              f"see {os.path.join(out_dir, 'errors.log')}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_report(args):
    """Aggregate and rank raw CSVs with the code `run` uses, so a run's own
    raw_results.csv reproduces its aggregate.csv and rank_report.txt."""
    results = []
    for path in args.raw:
        results.extend(experiments.read_raw_csv(path))
    if not results:
        raise UsageError("no raw result rows")
    os.makedirs(args.out_dir, exist_ok=True)
    agg, _, text = experiments.write_summary(results, args.out_dir)
    print(f"wrote {os.path.join(args.out_dir, 'aggregate.csv')} ({len(agg)} configs)")
    print(text)
    return EXIT_OK


def cmd_gen_data(args):
    spec = data.SyntheticSpec(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(data.SyntheticSpec)})
    train, test, embeddings = data.generate_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.csv")
    test_path = os.path.join(args.out_dir, "test.csv")
    emb_path = os.path.join(args.out_dir, "embeddings.txt")
    data.save_dataset(train, train_path)
    data.save_dataset(test, test_path)
    similarity.save_embeddings(embeddings, emb_path)
    print(f"wrote {train_path} ({train.num_examples} rows), "
          f"{test_path} ({test.num_examples} rows), {emb_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lcl", description="label-similarity curriculum learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-sim", help="build a class-similarity matrix")
    p.add_argument("--kind", choices=["embedding", "attribute", "hierarchy"],
                   required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--dim", type=int, default=None,
                   help="expected embedding dimension")
    p.add_argument("--no-clamp", action="store_true",
                   help="error on negative cosines instead of clamping to 0")
    p.add_argument("--decay", type=float, default=similarity.SIMRANK_DECAY)
    p.set_defaults(func=cmd_build_sim)

    p = sub.add_parser("verify", help="check the curriculum axioms")
    p.add_argument("--sim", required=True, help="similarity CSV")
    p.add_argument("--epsilon", type=_open_unit, required=True)
    p.add_argument("--horizon", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run an experiment suite from a config file")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate raw CSVs and run the rank test")
    p.add_argument("raw", nargs="+", help="raw result CSV paths")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-data", help="generate the synthetic cluster task")
    for f in dataclasses.fields(data.SyntheticSpec):  # SyntheticSpec holds the defaults
        flag = f.name.removeprefix("num_").replace("_", "-")
        p.add_argument(f"--{flag}", dest=f.name, type=type(f.default), default=f.default,
                       metavar=flag.replace("-", "_").upper())
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, similarity.SimilarityError, curriculum.CurriculumError,
            data.DataError, experiments.ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"error: {exc}" if exc.filename is None else
              f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
