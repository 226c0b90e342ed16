"""Datasets: CSV load/save, stratified data-ratio subsampling, and a
synthetic hierarchical-cluster generator whose class geometry gives the
curriculum structure to exploit."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _files
from .curriculum import _integer, _real
from .similarity import EmbeddingTable, SimilarityError, _largest_entry


LOAD_ROWS = 1024  # lines of a dataset file numpy's C parser reads at once


class DataError(ValueError):
    """Invalid dataset file or request."""


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix with integer labels and a split tag."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    num_classes: int
    split: str  # "train" or "test"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if self.split not in ("train", "test"):
            raise DataError(f"unknown split {self.split!r}")
        if feats.shape[0] != labels.shape[0]:
            raise DataError("feature row count does not match label count")
        # NaN and +-inf make the maximum or the minimum non-finite, with no
        # (n, d) mask; an empty matrix has neither and is refused below
        if feats.size and not (np.isfinite(np.maximum.reduce(feats, axis=None))
                               and np.isfinite(np.minimum.reduce(feats, axis=None))):
            raise DataError("non-finite feature entries")
        if labels.size == 0:
            raise DataError("empty dataset")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise DataError(f"label out of range [0, {self.num_classes})")
        if self.split == "train":
            present = np.unique(labels)
            if present.size != self.num_classes:
                missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
                raise DataError(f"training split is missing classes {missing}")

    @property
    def num_examples(self):
        return self.labels.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings; `lcl gen-data` has one flag per field, with its default."""

    num_superclusters: int = 4
    classes_per_supercluster: int = 5
    dim: int = 32
    train_per_class: int = 50
    test_per_class: int = 50
    intra_spread: float = 1.0
    inter_spread: float = 4.0
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("num_superclusters", "classes_per_supercluster", "dim",
                     "train_per_class", "test_per_class", "seed"):
            _integer(name, getattr(self, name), DataError)
        if min(self.num_superclusters, self.classes_per_supercluster,
               self.dim, self.train_per_class, self.test_per_class) < 1:
            raise DataError("all counts must be >= 1")
        for name in ("intra_spread", "inter_spread", "noise_sigma"):
            value = _real(name, getattr(self, name), DataError)
            if not 0.0 < value < math.inf:  # NaN fails it too
                raise DataError(f"{name} must be finite and > 0")
        if self.inter_spread <= self.intra_spread:
            raise DataError("inter_spread must exceed intra_spread")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_classes(self):
        return self.num_superclusters * self.classes_per_supercluster


def save_dataset(ds, path):
    """CSV with a `# classes=<C> split=<split>` metadata line and a
    `label,f1,...,fd` header. Features are written with 17 significant
    digits, which load_dataset reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# classes={ds.num_classes} split={ds.split}\n")
        fh.write("label," + ",".join(f"f{i + 1}" for i in range(ds.dim)) + "\n")
        _files.write_rows(fh, ds.features, lead=ds.labels.tolist())


def _read_metadata(line, meta):
    for item in line.lstrip("#").split():
        if "=" in item:
            k, v = item.split("=", 1)
            meta[k] = v


def _parse_fast(fh):
    """(metadata, labels, features) of a file in save_dataset's layout, read
    by numpy's C parser LOAD_ROWS lines at a time into arrays sized by a
    first count of the lines, so the data is held once. None for any other
    layout, for any entry the parser rejects or warns about, and for a
    non-finite feature: the Python parser then reads the file and names the
    line at fault."""
    meta = {}
    first, header = fh.readline(), fh.readline()
    if not (first.startswith("#") and header.startswith("label,")):
        return None
    _read_metadata(first, meta)
    if "classes" not in meta or "split" not in meta:
        return None
    d = header.strip().count(",")
    dtype = [("label", np.int64), ("x", np.float64, (d,))]
    body = fh.tell()
    lines = sum(1 for _ in fh)  # blank lines included: at least the row count
    fh.seek(body)
    labels, features = np.empty(lines, np.int64), np.empty((lines, d))
    n = 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any other warning (a float label) falls back
            warnings.filterwarnings("ignore", ".*input contained no data")  # blank lines only
            for _ in range(0, lines, LOAD_ROWS):
                block = (line for line in itertools.islice(fh, LOAD_ROWS) if not line.isspace())
                rows = np.loadtxt(block, dtype=dtype, delimiter=",", comments=None, ndmin=1)
                if not np.isfinite(rows["x"]).all():
                    return None
                labels[n:n + len(rows)], features[n:n + len(rows)] = rows["label"], rows["x"]
                n += len(rows)
                del rows  # one block alive at a time
    except (ValueError, OverflowError, Warning):
        return None
    return (meta, labels[:n], features[:n]) if n else None  # no body: the Python parser's error


def _parse_python(path):
    """Line by line: `#` and blank lines may appear anywhere, and the first
    malformed entry is reported at path:line."""
    meta = {}
    labels, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                _read_metadata(line, meta)
                continue
            if line.startswith("label,"):
                continue
            parts = line.split(",")
            try:
                labels.append(int(parts[0]))
                rows.append(np.array([float(x) for x in parts[1:]]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if len(rows[-1]) != len(rows[0]):
                raise DataError(f"{path}:{lineno}: {len(rows[-1])} features, "
                                f"expected {len(rows[0])}")
            if not np.isfinite(rows[-1]).all():
                raise DataError(f"{path}:{lineno}: non-finite feature")
    if "classes" not in meta or "split" not in meta:
        raise DataError(f"{path}: missing `# classes=<C> split=<train|test>` metadata")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return meta, np.array(labels), np.array(rows)


def load_dataset(path):
    """Read a dataset CSV written by save_dataset. A file in its layout is
    parsed by numpy's C parser; any other file, or one that parser rejects,
    by the Python parser, which reports malformed entries at path:line."""
    with _files.named(path, DataError):
        with open(path, encoding="utf-8") as fh:
            parsed = _parse_fast(fh)
        meta, labels, features = parsed or _parse_python(path)
    with _files.named(path, DataError, ValueError):  # a bad `classes=`, or a DataError
        return Dataset(features=features, labels=labels,
                       num_classes=int(meta["classes"]), split=meta["split"])


def subsample(ds, dr, seed):
    """Keep ceil(dr * n_c) examples of every class c, sampled without
    replacement; deterministic per seed; dr = 1 is the identity."""
    if ds.split != "train":
        raise DataError("subsampling is defined for training splits only")
    if not 0.0 < dr <= 1.0:
        raise DataError("dr must lie in (0, 1]")
    if dr == 1.0:
        return ds
    rng = np.random.default_rng(seed)
    keep = []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        n_keep = math.ceil(dr * idx.size)
        keep.append(np.sort(rng.choice(idx, size=n_keep, replace=False)))
    keep = np.sort(np.concatenate(keep))
    return Dataset(features=ds.features[keep], labels=ds.labels[keep],
                   num_classes=ds.num_classes, split="train")


def _spread_error(spec, what, fields, under=False):
    """The DataError for generated entries that overflowed float64 or, when
    under, underflowed it."""
    values = ", ".join(f"{name}={getattr(spec, name):g}" for name in fields)
    flow, spreads = ("underflow", "larger") if under else ("overflow", "smaller")
    return DataError(f"synthetic {what} {flow} float64: {values}; use {spreads} spreads")


def generate_synthetic(spec):
    """Sample the hierarchical-cluster task: supercluster centers at scale
    inter_spread, class centers offset at scale intra_spread, examples with
    Gaussian noise. The class centers double as the class embedding vectors,
    so cosine similarity is higher within a supercluster."""
    rng = np.random.default_rng(spec.seed)
    c_total, dim = spec.num_classes, spec.dim
    # spreads near the float64 limit overflow to inf; the checks below name
    # them, so the sums neither warn nor fail under -W error
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            super_centers = rng.normal(0.0, spec.inter_spread,
                                       size=(spec.num_superclusters, dim))
            centers = np.repeat(super_centers, spec.classes_per_supercluster, axis=0) \
                + rng.normal(0.0, spec.intra_spread, size=(c_total, dim))
            splits = []
            for per_class in (spec.train_per_class, spec.test_per_class):
                # the noise of each class's rows, plus its center in place: the draws
                # and sums of center-per-row + noise, with no second (n, d) array
                feats = rng.normal(0.0, spec.noise_sigma, size=(c_total, per_class, dim))
                feats += centers[:, None, :]
                splits.append((feats.reshape(c_total * per_class, dim),
                               np.repeat(np.arange(c_total), per_class)))
        # numpy's message names the size it could not allocate, or says that no
        # array can be that large
        except (MemoryError, ValueError) as exc:
            raise DataError(f"synthetic data too large to generate: {exc}") from exc
    if not np.isfinite(centers).all():
        raise _spread_error(spec, "class centers", ("inter_spread", "intra_spread"))
    try:
        train, test = (Dataset(features=feats, labels=labels, num_classes=c_total, split=split)
                       for (feats, labels), split in zip(splits, ("train", "test")))
    except DataError:  # every class has its rows, so only a non-finite feature is refused
        raise _spread_error(spec, "features",
                            ("inter_spread", "intra_spread", "noise_sigma")) from None
    names = [f"c{s}_{k}" for s in range(spec.num_superclusters)
             for k in range(spec.classes_per_supercluster)]
    try:
        embeddings = EmbeddingTable(class_names=names, vectors=centers)
    except SimilarityError:  # finite centers whose norms would overflow or underflow
        large = np.maximum.reduce(np.abs(centers), axis=None) > _largest_entry(dim)
        raise _spread_error(spec, "class center norms", ("inter_spread", "intra_spread"),
                            under=not large) from None
    return train, test, embeddings
