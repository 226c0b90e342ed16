"""Unit tests for similarity construction, file I/O, and spectra."""

import numpy as np
import pytest

from lcl import similarity as sm


def table(vectors, names=None):
    vectors = np.asarray(vectors, dtype=float)
    if names is None:
        names = [f"c{i}" for i in range(vectors.shape[0])]
    return sm.EmbeddingTable(class_names=names, vectors=vectors)


class TestCosine:
    def test_oracle_45_degrees(self):
        # <(1,1),(1,0)> / (sqrt(2) * 1) = 1/sqrt(2)
        assert sm.cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            0.7071067811865475, abs=1e-15)

    def test_parallel_and_orthogonal(self):
        assert sm.cosine([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
        assert sm.cosine([1.0, 0.0], [0.0, 3.0]) == 0.0
        assert sm.cosine([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(sm.SimilarityError):
            sm.cosine([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("u, v, reason", [
        ([np.nan, 1.0], [1.0, 0.0], "non-finite"),
        ([1.0, 0.0], [np.inf, 1.0], "non-finite"),
        ([1.0, 1.0, 1.0], [1.0, 0.0], "one length"),
        ([[1.0, 1.0]], [[1.0, 0.0]], "one length"),
        ([1.0, 0.0], [0.0, 0.0], "zero vector for v"),
        ([3e-162, 4e-162], [4.0, 3.0], "for u underflows its norm"),
    ])
    def test_malformed_vectors_rejected(self, u, v, reason):
        """Checked before any arithmetic, so numpy neither warns nor raises
        an untyped error, and NaN is not returned."""
        with pytest.raises(sm.SimilarityError, match=reason):
            sm.cosine(u, v)


class TestEmbeddingTable:
    def test_invariants(self):
        t = table([[1.0, 0.0], [0.0, 1.0]])
        assert t.num_classes == 2 and t.dim == 2

    def test_zero_row_rejected(self):
        with pytest.raises(sm.SimilarityError):
            table([[1.0, 0.0], [0.0, 0.0]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(sm.SimilarityError):
            table([[1.0, 0.0], [0.0, 1.0]], names=["a", "a"])


class TestEntryMagnitude:
    """An entry whose square would overflow the norm is rejected, not turned
    into a zero cosine; the largest entry accepted keeps every norm finite."""

    def test_overflowing_entry_rejected(self):
        # [1e200, 1e200] and [1, 1] share a direction; the overflowing norm
        # used to give them cosine 0
        with pytest.raises(sm.SimilarityError, match="for class 'c0' overflows its norm"):
            table([[1e200, 1e200], [1.0, 1.0]])
        with pytest.raises(sm.SimilarityError, match="overflows its norm"):
            sm.cosine([1e200, 1e200], [1.0, 1.0])
        with pytest.raises(sm.SimilarityError, match="overflows its norm"):
            sm.cosine([1.0, 1.0], [-1.7976931348623157e308, 0.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 64, 12345])
    def test_largest_accepted_entry_keeps_norms_finite(self, d):
        limit = sm._largest_entry(d)
        vectors = np.full((2, d), limit)
        vectors[1, 0] = -limit
        sim = sm.build_cosine_similarity(table(vectors))  # warnings are errors
        assert np.isfinite(sim.entries).all()
        assert np.isfinite(sm.cosine(vectors[0], vectors[1]))
        vectors[1, -1] = np.nextafter(limit, np.inf)
        with pytest.raises(sm.SimilarityError, match="for class 'c1'"):
            table(vectors)

    def test_underflowing_entry_rejected(self):
        # the norm of [1e-200, 1e-200] underflows to 0; [3e-162, 4e-162]'s
        # is subnormal, so its cosine to [4, 3] came out 0.9657... for 0.96
        with pytest.raises(sm.SimilarityError, match="for class 'c0' underflows its norm"):
            table([[1e-200, 1e-200], [1.0, 0.0]])
        with pytest.raises(sm.SimilarityError, match="for class 'c1' underflows its norm"):
            table([[4.0, 3.0], [3e-162, 4e-162]])

    def test_smallest_accepted_peak_keeps_cosines_exact(self):
        peak = sm.SMALLEST_PEAK
        assert peak * peak == np.finfo(float).tiny
        assert sm.cosine([0.75 * peak, peak], [4.0, 3.0]) == pytest.approx(0.96, abs=1e-15)
        sim = sm.build_cosine_similarity(table([[0.75 * peak, peak], [4.0, 3.0]]))
        assert sim.entries[0, 1] == pytest.approx(0.96, abs=1e-15)
        with pytest.raises(sm.SimilarityError, match="for class 'c0' underflows"):
            table([[0.75 * peak, np.nextafter(peak, 0.0)], [4.0, 3.0]])

    def test_large_duplicate_directions_still_rejected(self):
        big = sm._largest_entry(2)
        with pytest.raises(sm.SimilarityError, match="duplicate directions"):
            sm.build_cosine_similarity(table([[big, big], [1.0, 1.0]]))


class TestBuildCosineSimilarity:
    def test_exact_symmetry_and_diagonal(self):
        rng = np.random.default_rng(3)
        t = table(rng.normal(size=(7, 5)))
        sim = sm.build_cosine_similarity(t)
        assert np.array_equal(sim.entries, sim.entries.T)
        assert np.all(np.diag(sim.entries) == 1.0)
        assert np.all(sim.entries >= 0.0) and np.all(sim.entries <= 1.0)

    def test_clamp_counts_negatives(self):
        t = table([[1.0, 0.0], [-1.0, 0.1], [0.0, -1.0]])
        sim = sm.build_cosine_similarity(t)
        assert sim.clamped_entries == 2  # pairs (0,1) and (1,2)
        assert sim.entries[0, 1] == 0.0
        assert sim.entries[1, 2] == 0.0

    def test_no_clamp_rejects_negatives(self):
        t = table([[1.0, 0.0], [-1.0, 0.1]])
        with pytest.raises(sm.SimilarityError):
            sm.build_cosine_similarity(t, clamp_negative=False)

    def test_duplicate_direction_rejected(self):
        t = table([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(sm.SimilarityError):
            sm.build_cosine_similarity(t)

    def test_matches_pairwise_cosine(self):
        rng = np.random.default_rng(11)
        vecs = np.abs(rng.normal(size=(5, 4))) + 0.1
        sim = sm.build_cosine_similarity(table(vecs))
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert sim.entries[i, j] == pytest.approx(
                        sm.cosine(vecs[i], vecs[j]), abs=1e-12)


class TestSimilarityMatrixInvariants:
    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(sm.SimilarityError):
            sm.SimilarityMatrix(entries=m, class_names=["a", "b"], source="t")

    def test_bad_diagonal_rejected(self):
        m = np.array([[0.9, 0.2], [0.2, 1.0]])
        with pytest.raises(sm.SimilarityError):
            sm.SimilarityMatrix(entries=m, class_names=["a", "b"], source="t")

    def test_off_diagonal_one_rejected(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(sm.SimilarityError):
            sm.SimilarityMatrix(entries=m, class_names=["a", "b"], source="t")

    def test_out_of_range_rejected(self):
        m = np.array([[1.0, -0.1], [-0.1, 1.0]])
        with pytest.raises(sm.SimilarityError):
            sm.SimilarityMatrix(entries=m, class_names=["a", "b"], source="t")


class TestFileIO:
    def test_embeddings_roundtrip(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("# comment\ncat 1.0 2.0\ndog 0.5 -0.25\n")
        t = sm.load_embeddings(path)
        assert t.class_names == ("cat", "dog")
        assert np.array_equal(t.vectors, [[1.0, 2.0], [0.5, -0.25]])

    def test_embeddings_dim_check(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1 2\ndog 3 4\n")
        with pytest.raises(sm.SimilarityError):
            sm.load_embeddings(path, expected_dim=3)

    def test_embeddings_ragged_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1 2\ndog 3\n")
        with pytest.raises(sm.SimilarityError):
            sm.load_embeddings(path)

    def test_embeddings_bad_number(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1 x\n")
        with pytest.raises(sm.SimilarityError):
            sm.load_embeddings(path)

    def test_similarity_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        sim = sm.build_cosine_similarity(table(np.abs(rng.normal(size=(6, 4))) + 0.1))
        path = tmp_path / "sim.csv"
        sm.save_similarity(sim, path)
        back = sm.load_similarity(path)
        assert back.class_names == sim.class_names
        assert np.array_equal(back.entries, sim.entries)

    def test_load_similarity_wrong_row_count(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("a,b\n1.0,0.5\n")
        with pytest.raises(sm.SimilarityError):
            sm.load_similarity(path)


class TestHierarchy:
    def test_load_and_parents(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("root p\np a\np b\n@leaves a b\n")
        g = sm.load_hierarchy(path)
        assert g.leaves == ("a", "b")
        assert g.parents_of("a") == ("p",)

    def test_missing_leaves_directive(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("p a\n")
        with pytest.raises(sm.SimilarityError):
            sm.load_hierarchy(path)

    def test_leaf_with_children_rejected(self):
        with pytest.raises(sm.SimilarityError):
            sm.HierarchyGraph(edges=[("p", "a"), ("a", "b")], leaves=["a", "b"])

    def test_orphan_leaf_rejected(self):
        with pytest.raises(sm.SimilarityError):
            sm.HierarchyGraph(edges=[("p", "a")], leaves=["a", "b"])

    def test_self_loop_rejected(self):
        with pytest.raises(sm.SimilarityError):
            sm.HierarchyGraph(edges=[("a", "a")], leaves=[])


class TestSimrank:
    def test_shared_parent_oracle(self):
        g = sm.HierarchyGraph(edges=[("p", "a"), ("p", "b")], leaves=["a", "b"])
        sim = sm.simrank(g, decay=0.8)
        assert sim.entries[0, 1] == pytest.approx(0.8, abs=1e-12)

    def test_disjoint_trees_zero(self):
        g = sm.HierarchyGraph(edges=[("p1", "a"), ("p2", "b")], leaves=["a", "b"])
        sim = sm.simrank(g, decay=0.8)
        assert sim.entries[0, 1] == 0.0

    def test_siblings_closer_than_cousins(self):
        edges = [("root", "p1"), ("root", "p2"),
                 ("p1", "a"), ("p1", "b"), ("p2", "c"), ("p2", "d")]
        g = sm.HierarchyGraph(edges=edges, leaves=["a", "b", "c", "d"])
        sim = sm.simrank(g, decay=0.8)
        assert sim.entries[0, 1] > sim.entries[0, 2] > 0.0
        assert np.array_equal(sim.entries, sim.entries.T)

    def test_decay_range(self):
        g = sm.HierarchyGraph(edges=[("p", "a"), ("p", "b")], leaves=["a", "b"])
        with pytest.raises(sm.SimilarityError):
            sm.simrank(g, decay=1.5)


class TestSpectral:
    def test_eigen_oracle_2x2(self):
        sim = sm.SimilarityMatrix(entries=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                  class_names=["a", "b"], source="t")
        vals = sm.eigenspectrum(sim)
        assert vals == pytest.approx([1.5, 0.5], abs=1e-12)

    def test_dissimilarity(self):
        sim = sm.identity_similarity(["a", "b", "c"])
        d = sm.dissimilarity(sim)
        assert np.array_equal(d, 1.0 - np.eye(3))

    def test_identity_similarity(self):
        sim = sm.identity_similarity(["a", "b"])
        assert np.array_equal(sim.entries, np.eye(2))
