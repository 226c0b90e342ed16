"""simrank runs exactly as many sweeps as the hierarchy is deep: its matrix
checked byte for byte against the sweep loop that stopped at the first sweep
leaving S unchanged, kept here as the reference, and HierarchyGraph's depth
pinned on small hand-drawn graphs."""

import numpy as np
import pytest

from lcl import similarity as sm


def reference_simrank(graph, decay):
    """The former loop: padded parent sweeps from S = I until one leaves S
    bitwise unchanged. Returns the leaf matrix and the number of sweeps run,
    the unchanged one included."""
    nodes = graph.nodes
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    parents = [graph.parents_of(node) for node in nodes]
    k = max(map(len, parents))
    padded = np.array([[index[p] for p in ps] + [n] * (k - len(ps)) for ps in parents]).T
    counts = np.array([len(ps) for ps in parents])
    pair_counts = np.maximum(np.outer(counts, counts), 1)
    s = np.eye(n + 1)
    s[n, n] = 0.0
    rows, sums, new = np.empty((n, n + 1)), np.empty((n, n)), np.empty((n, n))
    lower = np.tri(n, dtype=bool)
    sweeps = 0
    while True:
        sweeps += 1
        sums.fill(0.0)
        for pa in padded:
            np.take(s, pa, axis=0, out=rows, mode="clip")
            for pb in padded:
                sums += np.take(rows, pb, axis=1, out=new, mode="clip")
        sums *= decay
        sums /= pair_counts
        sums[lower] = 0.0
        np.add(sums, sums.T, out=new)
        np.fill_diagonal(new, 1.0)
        if np.array_equal(new, s[:n, :n]):
            break
        s[:n, :n] = new
    leaf_idx = [index[leaf] for leaf in graph.leaves]
    return s[np.ix_(leaf_idx, leaf_idx)], sweeps


def random_dag(rng, depth):
    """A DAG whose longest path from a root has `depth` edges, edges and
    leaves in shuffled order. Layer 0 holds 2-3 roots; each node of layers 1
    to depth takes one parent in the layer above and up to two more from any
    layer above it, so its longest path has as many edges as its layer's
    number. One leaf sits in the deepest layer, the other childless nodes
    are leaves at random, a leaf `s` hangs from a root (depth 1), and a
    childless node `x` that is not a leaf hangs above the deepest layer."""
    layers = [[f"r{i}" for i in range(int(rng.integers(2, 4)))]]
    edges = []
    for d in range(1, depth + 1):
        above = [node for layer in layers for node in layer]
        layer = [f"n{d}_{i}" for i in range(int(rng.integers(2, 5)))]
        for node in layer:
            ps = {layers[-1][int(rng.integers(len(layers[-1])))]}
            extra = rng.choice(len(above), size=min(len(above), int(rng.integers(0, 3))),
                               replace=False)
            ps.update(above[int(i)] for i in extra)
            edges += [(p, node) for p in sorted(ps)]
        layers.append(layer)
    inner = [node for layer in layers[:-1] for node in layer]
    edges += [(inner[int(rng.integers(len(inner)))], "x"), (layers[0][0], "s")]
    has_child = {p for p, _ in edges}
    deepest = layers[-1][int(rng.integers(len(layers[-1])))]
    childless = [node for layer in layers[1:] for node in layer
                 if node not in has_child and node != deepest]
    leaves = [deepest, "s"] + [node for node in childless if rng.random() < 0.5]
    edges = [edges[int(i)] for i in rng.permutation(len(edges))]
    leaves = [leaves[int(i)] for i in rng.permutation(len(leaves))]
    return sm.HierarchyGraph(edges=edges, leaves=leaves)


def ancestors(graph, node):
    found, todo = set(), list(graph.parents_of(node))
    while todo:
        p = todo.pop()
        if p not in found:
            found.add(p)
            todo.extend(graph.parents_of(p))
    return found


def paths_to_root(graph, node):
    """Every parent path from node up to a root, as the list of its edges."""
    ps = graph.parents_of(node)
    if not ps:
        return [[]]
    return [[(p, node)] + path for p in ps for path in paths_to_root(graph, p)]


class TestAgainstTheStopTestLoop:
    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_dags_bitwise(self, depth, seed):
        rng = np.random.default_rng(100 * depth + seed)
        g = random_dag(rng, depth)
        assert g._depth == depth
        decay = float(rng.uniform(0.05, 0.95))
        want, sweeps = reference_simrank(g, decay)
        assert sm.simrank(g, decay=decay).entries.tobytes() == want.tobytes()
        assert sweeps <= depth + 1  # the last of them confirms, changing nothing

    def test_random_dags_have_the_shapes_they_promise(self):
        for depth in range(1, 9):
            g = random_dag(np.random.default_rng(100 * depth), depth)
            roots = [node for node in g.nodes if not g.parents_of(node)]
            assert len(roots) >= 2
            assert max(map(len, map(g.parents_of, g.nodes))) <= 3
            above_leaves = set().union(*(ancestors(g, leaf) for leaf in g.leaves))
            assert "x" not in above_leaves and "x" not in g.leaves
            leaf_depths = {len(max(paths_to_root(g, leaf), key=len)) for leaf in g.leaves}
            assert leaf_depths >= {1, depth}

    def test_stop_test_loop_confirms_with_one_extra_sweep(self):
        g = sm.HierarchyGraph(edges=[("r", "m1"), ("r", "m2"), ("m1", "a"), ("m2", "b")],
                              leaves=["a", "b"])
        want, sweeps = reference_simrank(g, 0.8)
        assert (g._depth, sweeps) == (2, 3)
        assert sm.simrank(g, decay=0.8).entries.tobytes() == want.tobytes()

    def test_graph_settled_before_its_depth(self):
        # the root pair (r1, r2) stays 0, so S = I is already the fixed point
        g = sm.HierarchyGraph(edges=[("r1", "m1"), ("r2", "m2"), ("m1", "a"), ("m2", "b")],
                              leaves=["a", "b"])
        want, sweeps = reference_simrank(g, 0.8)
        assert (g._depth, sweeps) == (2, 1)
        assert sm.simrank(g, decay=0.8).entries.tobytes() == want.tobytes()


@pytest.mark.parametrize("edges, leaves, depth", [
    ([("r", "a")], ["a"], 1),
    ([("r", "a"), ("r", "b")], ["a", "b"], 1),
    ([("r", "m"), ("m", "a"), ("r", "a")], ["a"], 2),  # the longest path counts
    ([("r", "a"), ("r", "m"), ("m", "b")], ["a", "b"], 2),  # leaves at depths 1 and 2
    ([("m", "a"), ("r", "m"), ("q", "a")], ["a"], 2),  # a second, shallower root
    ([("r", "a"), ("r", "x"), ("x", "y"), ("y", "z")], ["a"], 3),  # no leaf below z
    ([("c", "d"), ("b", "c"), ("a", "b"), ("d", "e")], ["e"], 4),  # edges bottom up
])
def test_depth_of_hand_drawn_graphs(edges, leaves, depth):
    assert sm.HierarchyGraph(edges=edges, leaves=leaves)._depth == depth
