"""build_cosine_similarity and simrank checked byte for byte against the
triangle-index cosine and the edge-pair bincount simrank they replaced."""

import re

import numpy as np
import pytest

from lcl import similarity as sm


def reference_cosine(table, clamp_negative=True):
    """The former cosine: the Gram matrix's upper triangle gathered through
    triu_indices, clipped, and scattered into both triangles of np.eye."""
    normed = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    gram = normed @ normed.T
    c = table.num_classes
    iu = np.triu_indices(c, k=1)
    upper = gram[iu]
    too_close = upper >= 1.0 - sm.DOMINANCE_TOL
    if np.any(too_close):
        k = int(np.argmax(too_close))
        i, j = int(iu[0][k]), int(iu[1][k])
        raise sm.SimilarityError(
            f"classes {table.class_names[i]!r} and {table.class_names[j]!r} "
            "have duplicate directions (cosine = 1)"
        )
    clamped = int(np.sum(upper < 0.0))
    if clamped and not clamp_negative:
        raise sm.SimilarityError(f"{clamped} negative cosine entries with clamping disabled")
    upper = np.clip(upper, 0.0, None)
    m = np.eye(c)
    m[iu] = upper
    m[(iu[1], iu[0])] = upper
    return m, clamped


def reference_simrank(graph, decay):
    """The former simrank: each edge pair (p -> a, q -> b) with a < b adds
    S[p, q] to (a, b) through one np.bincount per sweep, over nodes in the
    order edges and then leaves first name them."""
    nodes = {}
    for p, c in graph.edges:
        nodes.setdefault(p, None)
        nodes.setdefault(c, None)
    for leaf in graph.leaves:
        nodes.setdefault(leaf, None)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    parent, child = np.array([(index[p], index[c]) for p, c in graph.edges],
                             dtype=np.intp).reshape(-1, 2).T
    e1, e2 = np.nonzero(child[:, None] < child[None, :])
    src = parent[e1] * n + parent[e2]
    dst = child[e1] * n + child[e2]
    counts = np.bincount(child, minlength=n)
    pair_counts = np.maximum(np.outer(counts, counts), 1)
    s = np.eye(n)
    while True:
        sums = np.bincount(dst, weights=s.ravel()[src], minlength=n * n)
        upper = decay * sums.reshape(n, n) / pair_counts
        new = upper + upper.T
        np.fill_diagonal(new, 1.0)
        if np.array_equal(new, s):
            break
        s = new
    leaf_idx = [index[leaf] for leaf in graph.leaves]
    return s[np.ix_(leaf_idx, leaf_idx)]


def table(vectors):
    return sm.EmbeddingTable([f"c{i}" for i in range(len(vectors))], vectors)


def signed_zero_table(rng, c, d):
    """Rows with signed zeros and small integers: many cosines are exactly
    0 (orthogonal rows), the rest positive or negative."""
    vecs = rng.integers(-2, 3, size=(c, d)).astype(float)
    vecs[rng.random((c, d)) < 0.5] = 0.0
    vecs[rng.random((c, d)) < 0.3] = -0.0
    vecs[np.abs(vecs).max(axis=1) == 0.0, 0] = 1.0  # no zero vector
    # distinct directions: drop repeated rows of the normalised table
    keep = np.unique(np.round(vecs / np.linalg.norm(vecs, axis=1, keepdims=True), 12),
                     axis=0, return_index=True)[1]
    return table(vecs[np.sort(keep)])


class TestCosineBitwise:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        tab = table(rng.normal(size=(int(rng.integers(2, 60)), int(rng.integers(1, 40)))))
        got = sm.build_cosine_similarity(tab)
        want, clamped = reference_cosine(tab)
        assert got.entries.tobytes() == want.tobytes()
        assert got.clamped_entries == clamped

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_and_signed_zero_cosines(self, seed):
        tab = signed_zero_table(np.random.default_rng(seed), 40, 4)
        want, clamped = reference_cosine(tab)
        assert np.count_nonzero(np.triu(want, 1) == 0.0) > 0 and clamped > 0
        got = sm.build_cosine_similarity(tab)
        assert got.entries.tobytes() == want.tobytes()
        assert got.clamped_entries == clamped
        assert not np.signbit(got.entries).any()

    def test_without_clamping(self):
        rng = np.random.default_rng(7)
        tab = table(np.abs(rng.normal(size=(30, 5))))  # every cosine positive
        got = sm.build_cosine_similarity(tab, clamp_negative=False)
        assert got.entries.tobytes() == reference_cosine(tab, clamp_negative=False)[0].tobytes()
        assert got.clamped_entries == 0
        tab = signed_zero_table(rng, 20, 3)
        with pytest.raises(sm.SimilarityError) as want:
            reference_cosine(tab, clamp_negative=False)
        with pytest.raises(sm.SimilarityError, match=f"^{re.escape(str(want.value))}$"):
            sm.build_cosine_similarity(tab, clamp_negative=False)

    @pytest.mark.parametrize("pairs", [((3, 9), (1, 12)), ((1, 12), (3, 9)),
                                       ((2, 5), (2, 7)), ((4, 6), (0, 11))])
    def test_first_of_two_duplicate_pairs_is_named(self, pairs):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(14, 6))
        for i, j in pairs:
            vecs[j] = 2.5 * vecs[i]
        tab = table(vecs)
        with pytest.raises(sm.SimilarityError) as want:
            reference_cosine(tab)
        first = min(pairs)
        assert f"'c{first[0]}' and 'c{first[1]}'" in str(want.value)
        with pytest.raises(sm.SimilarityError, match=f"^{re.escape(str(want.value))}$"):
            sm.build_cosine_similarity(tab)


def random_dag(rng, size):
    """A random DAG over `size` inner nodes in random edge order: each node
    after the first two takes 1-3 distinct parents from the nodes before it;
    then 2-12 leaves take 1-3 parents each. Leaves are listed in random order."""
    inner = [f"n{i}" for i in range(size)]
    edges = []
    for i in range(2, size):
        ps = rng.choice(i, size=int(rng.integers(1, min(i, 3) + 1)), replace=False)
        edges += [(inner[int(p)], inner[i]) for p in ps]
    leaves = [f"l{i}" for i in range(int(rng.integers(2, 13)))]
    for leaf in leaves:
        ps = rng.choice(size, size=int(rng.integers(1, 4)), replace=False)
        edges += [(inner[int(p)], leaf) for p in ps]
    edges = [edges[int(k)] for k in rng.permutation(len(edges))]
    leaves = [leaves[int(k)] for k in rng.permutation(len(leaves))]
    return sm.HierarchyGraph(edges=edges, leaves=leaves)


class TestSimrankBitwise:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dags(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, int(rng.integers(3, 40)))
        decay = float(rng.uniform(0.05, 0.95))
        got = sm.simrank(g, decay=decay).entries
        assert got.tobytes() == reference_simrank(g, decay).tobytes()

    def test_parents_in_edge_order(self):
        g = random_dag(np.random.default_rng(5), 30)
        for node in g.nodes:
            assert g.parents_of(node) == tuple(p for p, c in g.edges if c == node)

    def test_default_decay_on_a_deep_chain_of_shared_parents(self):
        edges = [("r", "a0"), ("r", "b0")]
        for k in range(1, 15):
            edges += [(f"a{k - 1}", f"a{k}"), (f"b{k - 1}", f"a{k}"),
                      (f"b{k - 1}", f"b{k}"), (f"a{k - 1}", f"b{k}")]
        g = sm.HierarchyGraph(edges=edges, leaves=["a14", "b14"])
        want = reference_simrank(g, sm.SIMRANK_DECAY)
        assert sm.simrank(g).entries.tobytes() == want.tobytes()
