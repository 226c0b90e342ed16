"""Class-similarity matrices: cosine over embedding/attribute vectors,
simrank over a class hierarchy, and spectral analysis."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

DOMINANCE_TOL = 1e-12


class SimilarityError(ValueError):
    """Invalid input to a similarity construction."""


class SimilarityFileError(SimilarityError):
    """Malformed similarity file: empty, non-numeric, ragged or short of rows."""


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
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(norms == 0.0):
            bad = self.class_names[int(np.argmin(norms))]
            raise SimilarityError(f"zero vector for class {bad!r}")

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
        if m.shape != (c, c):
            raise SimilarityError("entries must be square and match class names")
        if not np.array_equal(m, m.T):
            raise SimilarityError("similarity matrix must be exactly symmetric")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise SimilarityError("entries must lie in [0, 1]")
        if not np.all(np.diag(m) == 1.0):
            raise SimilarityError("diagonal entries must equal 1")
        off = m - np.eye(c)
        if c > 1 and np.max(off - np.diag(np.diag(off))) >= 1.0:
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
        children = {c for _, c in self.edges}
        parents = {p for p, _ in self.edges}
        for p, c in self.edges:
            if p == c:
                raise SimilarityError(f"self-loop at {p!r}")
        for leaf in self.leaves:
            if leaf not in children:
                raise SimilarityError(f"leaf {leaf!r} is not reachable from any root")
        if parents & set(self.leaves):
            raise SimilarityError("a declared leaf has children")

    @property
    def nodes(self):
        seen = {}
        for p, c in self.edges:
            seen.setdefault(p, None)
            seen.setdefault(c, None)
        for leaf in self.leaves:
            seen.setdefault(leaf, None)
        return tuple(seen)

    def parents_of(self, node):
        return tuple(p for p, c in self.edges if c == node)


def load_embeddings(path, expected_dim=None):
    """Read a whitespace-separated embedding file: one `name f1 ... fd` line
    per class, `#` comments ignored. Line order defines the class index."""
    names, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise SimilarityError(f"{path}:{lineno}: expected a name and values")
            try:
                vec = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise SimilarityError(f"{path}:{lineno}: bad number: {exc}") from exc
            names.append(parts[0])
            rows.append(vec)
    if not names:
        raise SimilarityError(f"{path}: no embedding rows")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise SimilarityError(f"{path}: inconsistent dimensions {sorted(dims)}")
    d = dims.pop()
    if expected_dim is not None and d != expected_dim:
        raise SimilarityError(f"{path}: dimension {d}, expected {expected_dim}")
    return EmbeddingTable(class_names=names, vectors=np.array(rows, dtype=float))


def load_hierarchy(path):
    """Read an edge-list hierarchy file: `parent child` lines plus a trailing
    `@leaves c1 c2 ...` directive fixing class order."""
    edges, leaves = [], None
    with open(path, encoding="utf-8") as fh:
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
    return HierarchyGraph(edges=edges, leaves=leaves)


def cosine(u, v):
    """Cosine similarity <u,v> / (|u| |v|) of two nonzero vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise SimilarityError("cosine of a zero vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


def build_cosine_similarity(table, clamp_negative=True):
    """Pairwise cosine similarity of the table rows.

    Negative cosines are clamped to 0 by default (the clamp count is kept on
    the result); with clamping off a negative entry is an error. Off-diagonal
    cosines at 1 (duplicate directions) are rejected: the curriculum needs
    the diagonal to strictly dominate.
    """
    normed = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    gram = normed @ normed.T
    c = table.num_classes
    iu = np.triu_indices(c, k=1)
    upper = gram[iu]
    too_close = upper >= 1.0 - DOMINANCE_TOL
    if np.any(too_close):
        k = int(np.argmax(too_close))
        i, j = int(iu[0][k]), int(iu[1][k])
        raise SimilarityError(
            f"classes {table.class_names[i]!r} and {table.class_names[j]!r} "
            "have duplicate directions (cosine = 1)"
        )
    clamped = int(np.sum(upper < 0.0))
    if clamped and not clamp_negative:
        raise SimilarityError(f"{clamped} negative cosine entries with clamping disabled")
    upper = np.clip(upper, 0.0, None)
    # one triangle, mirrored, so symmetry holds to the last bit
    m = np.eye(c)
    m[iu] = upper
    m[(iu[1], iu[0])] = upper
    return SimilarityMatrix(
        entries=m,
        class_names=table.class_names,
        source="embedding-cosine",
        clamped_entries=clamped,
    )


def simrank(graph, decay=0.8, tol=1e-6, max_iter=100):
    """Fixed-point simrank over parent (in-neighbor) sets, restricted to the
    leaf classes. Nodes without parents stay at similarity 0 to everything
    but themselves."""
    if not 0.0 < decay < 1.0:
        raise SimilarityError("decay must lie in (0, 1)")
    nodes = graph.nodes
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    parents = [np.array([index[p] for p in graph.parents_of(node)], dtype=int)
               for node in nodes]
    s = np.eye(n)
    residual = np.inf
    for _ in range(max_iter):
        new = np.eye(n)
        for a in range(n):
            pa = parents[a]
            if pa.size == 0:
                continue
            for b in range(a + 1, n):
                pb = parents[b]
                if pb.size == 0:
                    continue
                val = decay * s[np.ix_(pa, pb)].sum() / (pa.size * pb.size)
                new[a, b] = new[b, a] = val
        residual = float(np.max(np.abs(new - s)))
        s = new
        if residual < tol:
            break
    else:
        raise SimilarityError(
            f"simrank did not converge in {max_iter} iterations (residual {residual:.3g})"
        )
    leaf_idx = [index[leaf] for leaf in graph.leaves]
    m = s[np.ix_(leaf_idx, leaf_idx)].copy()
    np.fill_diagonal(m, 1.0)
    m = np.triu(m, 1)
    m = m + m.T + np.eye(len(leaf_idx))
    return SimilarityMatrix(entries=m, class_names=graph.leaves, source="simrank")


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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(sim.class_names)
        for row in sim.entries:
            writer.writerow([repr(float(x)) for x in row])


def load_similarity(path, source="external"):
    """Read a similarity matrix written by save_similarity."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise SimilarityFileError(f"{path}: empty similarity file") from None
        rows = []
        for row in filter(None, reader):
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise SimilarityFileError(f"{path}:{reader.line_num}: {exc}") from exc
            if len(row) != len(names):
                raise SimilarityFileError(f"{path}:{reader.line_num}: {len(row)} entries, "
                                          f"expected {len(names)}")
    if len(rows) != len(names):
        raise SimilarityFileError(f"{path}: expected {len(names)} rows, got {len(rows)}")
    return SimilarityMatrix(entries=np.array(rows), class_names=names, source=source)


def identity_similarity(class_names):
    """Orthogonal-classes similarity (one-hot curriculum degenerate case)."""
    c = len(class_names)
    return SimilarityMatrix(entries=np.eye(c), class_names=class_names, source="external")
