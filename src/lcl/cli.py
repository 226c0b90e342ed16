"""Command-line surface: build similarity matrices, verify curricula, run
experiment suites, aggregate reports, and generate synthetic data.

Exit codes: 0 success, 1 verification/statistical failure or a failed
trial in `run`, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import curriculum, data, experiments, similarity

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
    if not os.path.exists(args.input):
        raise UsageError(f"input file not found: {args.input}")
    if args.kind in ("embedding", "attribute"):
        table = similarity.load_embeddings(args.input, expected_dim=args.dim)
        sim = similarity.build_cosine_similarity(table,
                                                 clamp_negative=not args.no_clamp)
        if args.kind == "attribute":
            sim = similarity.SimilarityMatrix(
                entries=sim.entries, class_names=sim.class_names,
                source="attribute-cosine", clamped_entries=sim.clamped_entries)
    elif args.kind == "hierarchy":
        graph = similarity.load_hierarchy(args.input)
        sim = similarity.simrank(graph, decay=args.decay)
    else:
        raise UsageError(f"unknown similarity kind {args.kind!r}")
    similarity.save_similarity(sim, args.output)
    spectrum = similarity.eigenspectrum(sim)
    top5 = ", ".join(f"{v:.6f}" for v in spectrum[:5])
    print(f"wrote {args.output}: C={sim.num_classes} source={sim.source}")
    print(f"clamped entries: {sim.clamped_entries}")
    print(f"top-5 eigenvalues: {top5}")
    print(f"effective rank: {_effective_rank(spectrum):.3f}")
    return EXIT_OK


def cmd_verify(args):
    if not os.path.exists(args.sim):
        raise UsageError(f"similarity file not found: {args.sim}")
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


def _parse_floats(text):
    return [_finite(x) for x in text.replace(",", " ").split()]


def _parse_ints(text):
    return [int(x) for x in text.replace(",", " ").split()]


def load_config_file(path):
    """Parse the key=value experiment config into (configs, paths dict)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    if "paths" not in parser or "grid" not in parser:
        raise UsageError(f"{path}: need [paths] and [grid] sections")
    paths = dict(parser["paths"])
    grid = parser["grid"]
    training = parser["training"] if "training" in parser else {}

    encodings = grid.get("encodings", "SL").split()
    try:
        epsilons = _parse_floats(grid.get("epsilons", "0.9 0.99 0.999"))
        drs = _parse_floats(grid.get("drs", "1.0"))
        common = dict(
            seeds=tuple(_parse_ints(grid.get("seeds", "0 1 2 3"))),
            epochs=int(training.get("epochs", 30)),
            batch_size=int(training.get("batch_size", 16)),
            lr=_finite(training.get("lr", 0.1)),
            lr_decay=_finite(training.get("lr_decay", 1.0)),
            lam=_finite(training.get("lambda", 1e-4)),
            architecture=training.get("architecture", "linear"),
            hidden=int(training.get("hidden", 64)),
        )
        variants = {  # hyperparameter sets per encoding; the rest take none
            "LCL": [{"epsilon": eps} for eps in epsilons],
            "LS": [{"alpha": _finite(training.get("alpha", 0.1))}],
            "KD": [{"kd_temperature": _finite(training.get("kd_temperature", 1.0))}],
        }
        configs = [experiments.ExperimentConfig(encoding=enc, dr=dr, **hyper, **common)
                   for dr in drs for enc in encodings for hyper in variants.get(enc, [{}])]
        # checked before any training, not after the whole grid has run
        experiments.check_rank_cells(((c.dr, seed, c.method_label)
                                      for c in configs for seed in c.seeds),
                                     cause="[grid] repeats a value")
    except ValueError as exc:  # a malformed number, or an ExperimentError
        raise UsageError(f"{path}: {exc}") from exc
    if not configs:
        raise UsageError(f"{path}: empty grid")
    return configs, paths


def cmd_run(args):
    configs, paths = load_config_file(args.config)
    for key in ("train", "test"):
        if key not in paths:
            raise UsageError(f"{args.config}: [paths] needs `{key}`")
        if not os.path.exists(paths[key]):
            raise UsageError(f"missing data file: {paths[key]}")
    train = data.load_dataset(paths["train"])
    test = data.load_dataset(paths["test"])
    sim = None
    needs_sim = any(c.encoding == "LCL" for c in configs)
    if needs_sim:
        if "similarity" not in paths:
            raise UsageError(f"{args.config}: LCL configs need [paths] similarity")
        if not os.path.exists(paths["similarity"]):
            raise UsageError(f"missing similarity file: {paths['similarity']}")
        sim = similarity.load_similarity(paths["similarity"])
    out_dir = args.out_dir or paths.get("out_dir", "results")
    results, agg, rank = experiments.run_suite(
        configs, train, test, sim=sim, out_dir=out_dir, jobs=args.jobs,
        debug_verify=args.debug_verify_curriculum)
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
        if not os.path.exists(path):
            raise UsageError(f"raw CSV not found: {path}")
        results.extend(experiments.read_raw_csv(path))
    if not results:
        raise UsageError("no raw result rows")
    os.makedirs(args.out_dir, exist_ok=True)
    agg, _, text = experiments.write_summary(results, args.out_dir)
    print(f"wrote {os.path.join(args.out_dir, 'aggregate.csv')} ({len(agg)} configs)")
    print(text)
    return EXIT_OK


def cmd_gen_data(args):
    spec = data.SyntheticSpec(
        num_superclusters=args.superclusters,
        classes_per_supercluster=args.classes_per_supercluster,
        dim=args.dim, train_per_class=args.train_per_class,
        test_per_class=args.test_per_class, intra_spread=args.intra_spread,
        inter_spread=args.inter_spread, noise_sigma=args.noise_sigma,
        seed=args.seed)
    train, test, embeddings = data.generate_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.csv")
    test_path = os.path.join(args.out_dir, "test.csv")
    emb_path = os.path.join(args.out_dir, "embeddings.txt")
    data.save_dataset(train, train_path)
    data.save_dataset(test, test_path)
    with open(emb_path, "w", encoding="utf-8", newline="\n") as fh:
        for name, row in zip(embeddings.class_names, embeddings.vectors):
            fh.write(name + " " + " ".join(repr(float(x)) for x in row) + "\n")
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
    p.add_argument("--decay", type=float, default=0.8)
    p.set_defaults(func=cmd_build_sim)

    p = sub.add_parser("verify", help="check the curriculum axioms")
    p.add_argument("--sim", required=True, help="similarity CSV")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--horizon", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run an experiment suite from a config file")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--debug-verify-curriculum", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate raw CSVs and run the rank test")
    p.add_argument("raw", nargs="+", help="raw result CSV paths")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-data", help="generate the synthetic cluster task")
    p.add_argument("--superclusters", type=int, default=4)
    p.add_argument("--classes-per-supercluster", type=int, default=5)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--train-per-class", type=int, default=50)
    p.add_argument("--test-per-class", type=int, default=50)
    p.add_argument("--intra-spread", type=float, default=1.0)
    p.add_argument("--inter-spread", type=float, default=4.0)
    p.add_argument("--noise-sigma", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (similarity.SimilarityError, curriculum.CurriculumError,
            data.DataError, experiments.ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
