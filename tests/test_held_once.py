"""Each similarity function and text reader holds its matrix once: simrank's
traced peak is bounded in nodes squared, not edges squared; cosine's stays
below three C x C matrices; load_embeddings and the dataset's line-by-line
parser stay below twice the values they read plus a fixed cost per row."""

import tracemalloc

import numpy as np

from lcl import data, similarity as sm

ROW_OVERHEAD = 512  # bytes per row: a small array's header, its list slot, a label


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simrank_peak_grows_with_nodes_not_edges():
    # 250 nodes and 2,030 edges: 200 leaves with 10 of 30 mid nodes as
    # parents. Arrays indexed by pairs of edges would be ~2e6 entries each.
    rng = np.random.default_rng(0)
    edges = [(f"r{i % 20}", f"m{i}") for i in range(30)]
    for leaf in range(200):
        edges += [(f"m{int(m)}", f"l{leaf}") for m in rng.choice(30, size=10, replace=False)]
    g = sm.HierarchyGraph(edges=edges, leaves=[f"l{i}" for i in range(200)])
    n = len(g.nodes)
    sim, peak = traced_peak(lambda: sm.simrank(g))
    assert sim.num_classes == 200
    assert peak < 8 * 8 * (n + 1) ** 2  # eight (n+1) x (n+1) float matrices


def test_cosine_peak_below_three_matrices():
    c = 300
    table = sm.EmbeddingTable([f"c{i}" for i in range(c)],
                              np.random.default_rng(1).normal(size=(c, 40)))
    sim, peak = traced_peak(lambda: sm.build_cosine_similarity(table))
    assert sim.clamped_entries > 0
    assert peak < 3 * c * c * 8


def test_load_embeddings_holds_the_vectors_about_once(tmp_path):
    c, d = 400, 100
    table = sm.EmbeddingTable([f"c{i}" for i in range(c)],
                              np.random.default_rng(2).normal(size=(c, d)))
    path = tmp_path / "emb.txt"
    sm.save_embeddings(table, path)
    loaded, peak = traced_peak(lambda: sm.load_embeddings(path))
    assert loaded.vectors.tobytes() == table.vectors.tobytes()
    assert peak < 2 * table.vectors.nbytes + ROW_OVERHEAD * c


def test_python_dataset_parser_holds_the_features_about_once(tmp_path):
    # a `#` line between rows sends the file to the line-by-line parser
    n, d = 2000, 64
    feats = np.random.default_rng(3).normal(size=(n, d))
    path = tmp_path / "commented.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# classes=4 split=train\nlabel," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for i, row in enumerate(feats):
            fh.write(f"{i % 4}," + ",".join("%.17g" % v for v in row) + "\n# between rows\n")
    with open(path, encoding="utf-8") as fh:
        assert data._parse_fast(fh) is None
    ds, peak = traced_peak(lambda: data.load_dataset(path))
    assert ds.features.tobytes() == feats.tobytes()
    assert ds.labels.tolist() == [i % 4 for i in range(n)]
    assert peak < 2 * feats.nbytes + ROW_OVERHEAD * n
