"""simrank computed to its exact fixed point on acyclic hierarchies, checked
against the pairwise loop it replaced, and cyclic hierarchies and repeated
edges rejected."""

import numpy as np
import pytest

from lcl import cli, similarity as sm


def reference_simrank(graph, decay):
    """The pairwise loop simrank used to run, iterated until a sweep changes
    nothing instead of until a tolerance: the leaf-by-leaf entries."""
    nodes = graph.nodes
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    parents = [np.array([index[p] for p in graph.parents_of(node)], dtype=int)
               for node in nodes]
    s = np.eye(n)
    while True:
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
        if np.array_equal(new, s):
            break
        s = new
    leaf_idx = [index[leaf] for leaf in graph.leaves]
    m = s[np.ix_(leaf_idx, leaf_idx)].copy()
    np.fill_diagonal(m, 1.0)
    m = np.triu(m, 1)
    return m + m.T + np.eye(len(leaf_idx))


def benchmark_like_taxonomy(seed):
    """20 roots, 100 mid nodes with one root parent each, 100 leaves with two
    distinct mid parents each: 220 nodes, depth 2."""
    rng = np.random.default_rng(seed)
    edges = [(f"r{i // 5}", f"m{i}") for i in range(100)]
    for leaf in range(100):
        edges += [(f"m{int(m)}", f"l{leaf}")
                  for m in rng.choice(100, size=2, replace=False)]
    return sm.HierarchyGraph(edges=edges, leaves=[f"l{i}" for i in range(100)])


def random_dag(rng, depth):
    """Layered DAG: 1-2 nodes per layer down to layer depth - 1, each taking
    1-3 parents from the layers above, one of them from the layer just above;
    then 8 leaves, each with one parent in layer depth - 1 and up to two more
    from anywhere above. The longest path is `depth` edges."""
    layers = [[f"n0_{i}" for i in range(int(rng.integers(1, 3)))]]
    edges = []
    for d in range(1, depth + 1):
        width = 8 if d == depth else int(rng.integers(1, 3))
        layer = [f"n{d}_{i}" for i in range(width)]
        above = [node for lay in layers for node in lay]
        for node in layer:
            ps = {layers[-1][int(rng.integers(len(layers[-1])))]}
            ps.update(above[int(k)] for k in rng.integers(len(above), size=rng.integers(0, 3)))
            edges += [(p, node) for p in sorted(ps)]
        layers.append(layer)
    return sm.HierarchyGraph(edges=edges, leaves=layers[-1])


class TestAgainstPairwiseLoop:
    def test_benchmark_like_taxonomy_bitwise(self):
        g = benchmark_like_taxonomy(0)
        assert np.array_equal(sm.simrank(g, decay=0.8).entries, reference_simrank(g, 0.8))

    def test_random_multi_parent_dags(self):
        rng = np.random.default_rng(3)
        for depth, decay in zip((1, 2, 5, 12, 30, 60), (0.5, 0.95, 0.8, 0.5, 0.95, 0.8)):
            g = random_dag(rng, depth)
            got = sm.simrank(g, decay=decay).entries
            np.testing.assert_allclose(got, reference_simrank(g, decay), rtol=1e-12, atol=0.0)

    def test_existing_test_graphs_bitwise(self):
        graphs = [
            sm.HierarchyGraph(edges=[("p", "a"), ("p", "b")], leaves=["a", "b"]),
            sm.HierarchyGraph(edges=[("p1", "a"), ("p2", "b")], leaves=["a", "b"]),
            sm.HierarchyGraph(edges=[("root", "p1"), ("root", "p2"), ("p1", "a"),
                                     ("p1", "b"), ("p2", "c"), ("p2", "d")],
                              leaves=["a", "b", "c", "d"]),
            sm.HierarchyGraph(edges=[("root", "p1"), ("root", "p2"), ("p1", "a"),
                                     ("p1", "b"), ("p2", "c")], leaves=["a", "b", "c"]),
        ]
        for g in graphs:
            assert np.array_equal(sm.simrank(g, decay=0.8).entries, reference_simrank(g, 0.8))


class TestExactFixedPoint:
    def test_deep_twin_chains_are_not_truncated(self):
        # root -> a1 -> ... -> a70 and root -> b1 -> ... -> b70: s(a1, b1) is
        # decay and each level down multiplies by decay, so the leaves end at
        # decay**70 (about 1.6e-7), below where a 1e-6 tolerance stops
        depth, decay = 70, 0.8
        edges = [("root", "a1"), ("root", "b1")]
        for k in range(1, depth):
            edges += [(f"a{k}", f"a{k + 1}"), (f"b{k}", f"b{k + 1}")]
        g = sm.HierarchyGraph(edges=edges, leaves=[f"a{depth}", f"b{depth}"])
        got = sm.simrank(g, decay=decay).entries[0, 1]
        assert got == pytest.approx(decay ** depth, rel=1e-12)

    def test_shared_parent_is_exact(self):
        g = benchmark_like_taxonomy(0)
        edges = list(g.edges) + [("m0", "x"), ("m5", "x"), ("m0", "y"), ("m5", "y")]
        g = sm.HierarchyGraph(edges=edges, leaves=list(g.leaves) + ["x", "y"])
        sim = sm.simrank(g, decay=0.8)
        # m0 and m5 have different roots, so s(x, y) = 0.8 * (1 + 0 + 0 + 1) / 4
        assert sim.entries[-2, -1] == 0.4


class TestCycles:
    @pytest.mark.parametrize("edges, cycle", [
        ([("r", "a"), ("a", "b"), ("b", "a"), ("b", "x")], "'a' -> 'b' -> 'a'"),
        ([("r", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "x")],
         "'a' -> 'b' -> 'c' -> 'a'"),
        ([("r", "x"), ("a", "a")], "'a' -> 'a'"),
    ])
    def test_cycle_rejected_and_named(self, edges, cycle):
        with pytest.raises(sm.SimilarityError, match=cycle):
            sm.HierarchyGraph(edges=edges, leaves=["x"])

    def test_acyclic_diamond_accepted(self):
        g = sm.HierarchyGraph(edges=[("r", "a"), ("r", "b"), ("a", "x"), ("b", "x")],
                              leaves=["x"])
        assert sm.simrank(g, decay=0.8).entries.tolist() == [[1.0]]

    def test_load_hierarchy_names_the_file(self, tmp_path):
        path = tmp_path / "cyclic.txt"
        path.write_text("r a\na b\nb a\nb x\n@leaves x\n")
        with pytest.raises(sm.SimilarityError, match=f"^{path}: cycle"):
            sm.load_hierarchy(path)

    def test_build_sim_on_cyclic_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cyclic.txt"
        path.write_text("r a\na b\nb c\nc a\nc x\nc y\n@leaves x y\n")
        code = cli.main(["build-sim", "--kind", "hierarchy", "--in", str(path),
                         "--out", str(tmp_path / "sim.csv")])
        assert code == cli.EXIT_USAGE
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()


class TestRepeatedEdge:
    EDGES = [("r", "p"), ("r", "q"), ("p", "a"), ("q", "a"), ("q", "b")]

    def test_parent_set_average(self):
        # s(p, q) = 0.8; s(a, b) = 0.8 * (s(p, q) + s(q, q)) / 2
        sim = sm.simrank(sm.HierarchyGraph(edges=self.EDGES, leaves=["a", "b"]), decay=0.8)
        assert sim.entries[0, 1] == pytest.approx(0.72, abs=1e-15)

    def test_repeated_edge_rejected_and_named(self):
        # counted twice, p would weigh 2/3 of a's parents: s(a, b) = 0.6933
        with pytest.raises(sm.SimilarityError, match="^repeated edge 'p' -> 'a'$"):
            sm.HierarchyGraph(edges=self.EDGES + [("p", "a")], leaves=["a", "b"])

    def test_build_sim_names_the_file_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("r p\nr q\np a\np a\nq a\nq b\n@leaves a b\n")
        code = cli.main(["build-sim", "--kind", "hierarchy", "--in", str(path),
                         "--out", str(tmp_path / "sim.csv")])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: repeated edge 'p' -> 'a'\n"
        assert not (tmp_path / "sim.csv").exists()


def test_build_sim_takes_no_tolerance_flags(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("p a\np b\n@leaves a b\n")
    argv = ["build-sim", "--kind", "hierarchy", "--in", str(path),
            "--out", str(tmp_path / "sim.csv")]
    for extra in (["--tol", "1e-6"], ["--max-iter", "100"]):
        assert cli.main(argv + extra) == cli.EXIT_USAGE
    assert cli.main(argv + ["--decay", "0.5"]) == cli.EXIT_OK
    assert sm.load_similarity(tmp_path / "sim.csv").entries[0, 1] == 0.5
