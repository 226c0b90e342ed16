"""Class-similarity matrices: cosine over embedding/attribute vectors,
simrank over a class hierarchy, and spectral analysis."""

from __future__ import annotations

import csv
import graphlib
from dataclasses import dataclass, field

import numpy as np

from . import _files
from .curriculum import _integer, _real

DOMINANCE_TOL = 1e-12
SIMRANK_DECAY = 0.8  # simrank's default, and `lcl build-sim --decay`'s


class SimilarityError(ValueError):
    """Invalid input to a similarity construction."""


class SimilarityFileError(SimilarityError):
    """Malformed similarity file: empty, non-numeric, ragged or short of rows."""


def _largest_entry(d):
    """The largest magnitude an entry of a d-vector may have so that the d
    squares a norm sums stay finite. At sqrt(max / d) the rounded sum can
    still reach inf (it does at d = 3), so the bound leaves one square's room."""
    return np.sqrt(np.finfo(float).max / (d + 1))


# the smallest largest |entry| a vector may have: its square is then the
# smallest normal float, so the squares a norm sums do not underflow
SMALLEST_PEAK = np.sqrt(np.finfo(float).tiny)


def _check_norms(vecs, names):
    """Raise SimilarityError, with its name from names, for the first row of
    the finite C x d vecs whose norm would overflow, be zero or underflow."""
    peaks = np.maximum.reduce(np.abs(vecs), axis=1)
    limit = _largest_entry(vecs.shape[1])
    for bad, reason in ((peaks > limit, f"entry above {limit:.6g} for {{}} overflows its norm"),
                        (peaks == 0.0, "zero vector for {}"),
                        (peaks < SMALLEST_PEAK, f"largest entry below {SMALLEST_PEAK:.6g} "
                                                "for {} underflows its norm")):
        if np.logical_or.reduce(bad):
            raise SimilarityError(reason.format(names[bad.argmax()]))


@dataclass(frozen=True)
class EmbeddingTable:
    """Per-class real vectors, one row per class, in class-index order."""

    class_names: tuple
    vectors: np.ndarray  # shape (C, d)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if vecs.ndim != 2 or vecs.shape[1] < 1:
            raise SimilarityError("vectors must be a C x d matrix with d >= 1")
        if len(self.class_names) != vecs.shape[0]:
            raise SimilarityError("class name count does not match row count")
        if len(set(self.class_names)) != len(self.class_names):
            raise SimilarityError("duplicate class name")
        if not np.all(np.isfinite(vecs)):
            raise SimilarityError("non-finite vector entries")
        _check_norms(vecs, [f"class {name!r}" for name in self.class_names])

    @property
    def num_classes(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric C x C class similarity with unit diagonal.

    Every off-diagonal entry lies in [0, 1) so the diagonal strictly
    dominates its row, which the curriculum initialization requires.
    """

    entries: np.ndarray
    class_names: tuple
    source: str
    clamped_entries: int = field(default=0, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        c = len(self.class_names)
        if not c:
            raise SimilarityError("a similarity matrix needs at least one class")
        seen = set()
        for name in self.class_names:
            if name in seen:
                raise SimilarityError(f"repeated class name {name!r}")
            seen.add(name)
        if m.shape != (c, c):
            raise SimilarityError("entries must be square and match class names")
        if not np.all(np.isfinite(m)):
            raise SimilarityError("similarity matrix has non-finite entries")
        if not np.array_equal(m, m.T):
            raise SimilarityError("similarity matrix must be exactly symmetric")
        if m.min() < 0.0 or m.max() > 1.0:
            raise SimilarityError("entries must lie in [0, 1]")
        if not np.all(m.diagonal() == 1.0):
            raise SimilarityError("diagonal entries must equal 1")
        # entries are <= 1 and the c diagonal ones equal 1: any other 1 is off it
        if np.count_nonzero(m == 1.0) > c:
            raise SimilarityError("off-diagonal entry reaches 1 (no strict dominance)")

    @property
    def num_classes(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class HierarchyGraph:
    """Parent -> child edges over taxa, with an ordered leaf (class) list."""

    edges: tuple  # of (parent, child) pairs
    leaves: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "leaves", tuple(self.leaves))
        if len(set(self.leaves)) != len(self.leaves):
            raise SimilarityError("duplicate leaf class")
        preds = {}
        for p, c in self.edges:  # simrank averages over a set of parents
            if p in preds.setdefault(c, []):
                raise SimilarityError(f"repeated edge {p!r} -> {c!r}")
            preds[c].append(p)
        object.__setattr__(self, "_parents", preds)  # child -> parents, in edge order
        depth = {}  # edges on the longest path from a root
        try:
            for node in graphlib.TopologicalSorter(preds).static_order():
                depth[node] = max((depth[p] + 1 for p in preds.get(node, ())), default=0)
        except graphlib.CycleError as exc:  # args[1]: the cycle, parent -> child
            raise SimilarityError("cycle " + " -> ".join(map(repr, exc.args[1]))) from None
        object.__setattr__(self, "_depth", max(depth.values(), default=0))
        parents = {p for p, _ in self.edges}
        for leaf in self.leaves:
            if leaf not in preds:
                raise SimilarityError(f"leaf {leaf!r} is not reachable from any root")
        if parents & set(self.leaves):
            raise SimilarityError("a declared leaf has children")
        if not self.leaves:
            raise SimilarityError("no leaf classes")

    @property
    def nodes(self):
        return tuple(dict.fromkeys([x for edge in self.edges for x in edge] + list(self.leaves)))

    def parents_of(self, node):
        return tuple(self._parents.get(node, ()))


def load_embeddings(path, expected_dim=None):
    """Read a whitespace-separated embedding file: one `name f1 ... fd` line
    per class, `#` comments ignored. Line order defines the class index."""
    if expected_dim is not None and _integer("expected_dim", expected_dim, SimilarityError) < 1:
        raise SimilarityError(f"expected_dim must be >= 1, got {expected_dim}")
    names, rows = [], []
    with _files.named(path, SimilarityError), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise SimilarityError(f"{path}:{lineno}: expected a name and values")
            names.append(parts[0])
            rows.append(np.array(_files.floats(parts[1:], f"{path}:{lineno}", SimilarityError)))
            if len(rows[-1]) != len(rows[0]):
                raise SimilarityError(f"{path}:{lineno}: {len(rows[-1])} values, "
                                      f"expected {len(rows[0])}")
    if not names:
        raise SimilarityError(f"{path}: no embedding rows")
    d = len(rows[0])
    if expected_dim is not None and d != expected_dim:
        raise SimilarityError(f"{path}: dimension {d}, expected {expected_dim}")
    vectors = np.array(rows)
    del rows  # the table's checks then hold the vectors and one temporary of their size
    with _files.named(path, SimilarityError, SimilarityError):
        return EmbeddingTable(class_names=names, vectors=vectors)


def save_embeddings(table, path):
    """Write the table as load_embeddings reads it: one `name f1 ... fd`
    line per class, values at full double precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _files.write_rows(fh, table.vectors, sep=" ", lead=table.class_names)


def load_hierarchy(path):
    """Read an edge-list hierarchy file: `parent child` lines plus a trailing
    `@leaves c1 c2 ...` directive fixing class order."""
    edges, leaves = [], None
    with _files.named(path, SimilarityError), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("@leaves"):
                leaves = line.split()[1:]
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SimilarityError(f"{path}:{lineno}: expected `parent child`")
            edges.append((parts[0], parts[1]))
    if leaves is None:
        raise SimilarityError(f"{path}: missing @leaves directive")
    with _files.named(path, SimilarityError, SimilarityError):
        return HierarchyGraph(edges=edges, leaves=leaves)


def cosine(u, v):
    """Cosine similarity <u,v> / (|u| |v|) of two nonzero vectors of one
    length, with the entry checks of an EmbeddingTable row."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.shape != v.shape:
        raise SimilarityError(f"need two vectors of one length, got shapes {u.shape} "
                              f"and {v.shape}")
    pair = np.stack([u, v])
    if not np.all(np.isfinite(pair)):
        raise SimilarityError("non-finite vector entries")
    _check_norms(pair, "uv")
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def build_cosine_similarity(table, clamp_negative=True):
    """Pairwise cosine similarity of the table rows.

    Negative cosines are clamped to 0 by default (the clamp count is kept on
    the result); with clamping off a negative entry is an error. Off-diagonal
    cosines at 1 (duplicate directions) are rejected: the curriculum needs
    the diagonal to strictly dominate.
    """
    normed = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    m = np.triu(normed @ normed.T, 1)  # one triangle, mirrored below: exactly symmetric
    too_close = np.flatnonzero(m >= 1.0 - DOMINANCE_TOL)
    if too_close.size:
        i, j = divmod(int(too_close[0]), table.num_classes)
        raise SimilarityError(f"classes {table.class_names[i]!r} and "
                              f"{table.class_names[j]!r} have duplicate directions (cosine = 1)")
    clamped = np.count_nonzero(m < 0.0)
    if clamped and not clamp_negative:
        raise SimilarityError(f"{clamped} negative cosine entries with clamping disabled")
    np.maximum(m, 0.0, out=m)
    m += m.T  # adds the lower triangle's zeros, which also turns -0.0 into 0.0
    np.fill_diagonal(m, 1.0)
    return SimilarityMatrix(entries=m, class_names=table.class_names, source="embedding-cosine",
                            clamped_entries=clamped)


def simrank(graph, decay=SIMRANK_DECAY):
    """Simrank (Jeh & Widom, 2002) over parent (in-neighbor) sets, restricted
    to the leaf classes: the fixed point of S = decay * P S P^T off the
    diagonal and 1 on it, where P averages over a node's parents. Nodes
    without parents stay at similarity 0 to everything but themselves.

    Sweeps start from S = I. The graph is acyclic, so a pair's value is final
    one sweep after its parents' pairs are, and S is the fixed point after as
    many sweeps as the longest path from a root has edges. Memory grows with
    the square of the node count, work with that times the largest in-degree
    squared."""
    if not 0.0 < _real("decay", decay, SimilarityError) < 1.0:
        raise SimilarityError("decay must lie in (0, 1)")
    nodes = graph.nodes
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    # Each node's parents in edge order, padded to the largest in-degree with
    # node n, whose row and column of s stay 0. Summing S[P_a, P_b] over the
    # slots, a outer and b inner, adds S[p, q] in the pairwise loop's order,
    # and each pad adds an exact 0. The upper triangle is mirrored, so S stays
    # exactly symmetric.
    parents = [graph.parents_of(node) for node in nodes]
    k = max(map(len, parents))
    padded = np.array([[index[p] for p in ps] + [n] * (k - len(ps)) for ps in parents]).T
    counts = np.array([len(ps) for ps in parents])
    pair_counts = np.maximum(np.outer(counts, counts), 1)
    s = np.eye(n + 1)
    s[n, n] = 0.0
    rows, sums, block = np.empty((n, n + 1)), np.empty((n, n)), np.empty((n, n))
    lower = np.tri(n, dtype=bool)  # the diagonal and below, zeroed before the mirror
    for _ in range(graph._depth):
        sums.fill(0.0)
        for pa in padded:  # mode="clip" (indices are in range) writes out= unbuffered
            np.take(s, pa, axis=0, out=rows, mode="clip")
            for pb in padded:
                sums += np.take(rows, pb, axis=1, out=block, mode="clip")
        sums *= decay
        sums /= pair_counts
        sums[lower] = 0.0
        np.add(sums, sums.T, out=s[:n, :n])
        np.fill_diagonal(s[:n, :n], 1.0)
    leaf_idx = [index[leaf] for leaf in graph.leaves]
    return SimilarityMatrix(entries=s[np.ix_(leaf_idx, leaf_idx)],
                            class_names=graph.leaves, source="simrank")


def eigenspectrum(sim):
    """Real eigenvalues of the similarity matrix, sorted descending."""
    vals = np.linalg.eigvalsh(sim.entries)
    return vals[::-1].copy()


def dissimilarity(sim):
    """Entrywise 1 - s, so the diagonal is 0."""
    return 1.0 - sim.entries


def save_similarity(sim, path):
    """Write a similarity matrix as CSV: header of class names, then C rows
    at full double precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerow(sim.class_names)
        _files.write_rows(fh, sim.entries)


def load_similarity(path):
    """Read a similarity matrix written by save_similarity."""
    with _files.named(path, SimilarityFileError), open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader, [])
        if not names:  # no header, or one that names no class
            raise SimilarityFileError(f"{path}: empty similarity file")
        # every row is parsed and checked, the first C kept and all counted
        m, count = np.empty((len(names), len(names))), 0
        for row in filter(None, reader):
            values = _files.floats(row, f"{path}:{reader.line_num}", SimilarityFileError)
            if len(row) != len(names):
                raise SimilarityFileError(f"{path}:{reader.line_num}: {len(row)} entries, "
                                          f"expected {len(names)}")
            if count < len(names):
                m[count] = values
            count += 1
    if count != len(names):
        raise SimilarityFileError(f"{path}: expected {len(names)} rows, got {count}")
    # the matrix, not the file's form, is at fault: `lcl verify` exits 1 on it
    with _files.named(path, SimilarityError, SimilarityError):
        return SimilarityMatrix(entries=m, class_names=names, source="external")


def identity_similarity(class_names):
    """Orthogonal-classes similarity (one-hot curriculum degenerate case)."""
    c = len(class_names)
    return SimilarityMatrix(entries=np.eye(c), class_names=class_names, source="external")
