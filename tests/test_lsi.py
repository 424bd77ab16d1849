from __future__ import annotations

import numpy as np
import pytest

from reqtrace.errors import DegenerateMatrixError, EmptyCorpusError, ParameterError
from reqtrace.fca import binarize
from reqtrace.lsi import (
    SimilarityMatrix,
    TermDocumentMatrix,
    TermQueryMatrix,
    Vocabulary,
    build_tdm,
    build_tqm,
    build_vocabulary,
    cosine_similarity_matrix,
    count_cosine_matrix,
    truncated_svd,
    write_count_matrix_csv,
    write_similarity_csv,
)
from reqtrace.textprep import TermBag


def bags(counts_by_name: dict[str, dict[str, int]]) -> list[TermBag]:
    return [TermBag(name=name, counts=counts) for name, counts in counts_by_name.items()]


# Shape of the drawing-sample count matrix: the three rows every document
# shares, as term -> per-document counts.
DS_STYLE_DOCS = {
    "DrawingShapes": {"draw": 1, "shape": 21},
    "MyLine": {"line": 6, "draw": 5, "shape": 4},
    "MyOval": {"draw": 3, "shape": 3, "oval": 4},
    "MyRectangle": {"draw": 3, "shape": 3, "rectangl": 4},
    "MyShape": {"draw": 2, "shape": 6},
    "PaintJPanel": {"line": 1, "draw": 2, "shape": 29},
}

DS_STYLE_QUERIES = {
    "Draw a line": {"draw": 7, "line": 7},
    "Draw oval": {"draw": 7, "oval": 7},
    "Draw rectangle": {"draw": 7, "rectangl": 7},
}


def matrices_for(doc_counts, query_counts):
    doc_bags = bags(doc_counts)
    vocab = build_vocabulary(doc_bags)
    return vocab, build_tdm(doc_bags, vocab), build_tqm(bags(query_counts), vocab)


def synthetic(cells: np.ndarray) -> TermDocumentMatrix:
    t, d = cells.shape
    vocab = Vocabulary(
        terms=tuple(f"t{i}" for i in range(t)),
        index={f"t{i}": i for i in range(t)},
    )
    return TermDocumentMatrix(
        vocab=vocab, doc_names=tuple(f"d{j}" for j in range(d)), cells=cells
    )


def random_counts(rng, t: int, d: int, q: int, trial: int):
    """Sparse seeded TDM and TQM; `trial` picks which edge cases to plant.

    Every third trial has an all-zero document column, every fifth a
    rank-deficient TDM (one column the sum of two others), every fourth an
    all-zero query.  Returns None when the TDM came out all zero.
    """
    cells = rng.randint(0, 9, size=(t, d)) * (rng.rand(t, d) < rng.uniform(0.2, 1))
    if d >= 2 and trial % 3 == 0:
        cells[:, rng.randint(d)] = 0
    if d >= 3 and trial % 5 == 0:
        cells[:, -1] = cells[:, 0] + cells[:, 1]
    if not cells.any():
        return None
    queries = rng.randint(0, 5, size=(t, q)) * (rng.rand(t, q) < 0.5)
    if trial % 4 == 0:
        queries[:, 0] = 0
    tdm = synthetic(cells)
    names = tuple(f"q{i}" for i in range(q))
    return tdm, TermQueryMatrix(vocab=tdm.vocab, query_names=names, cells=queries)


def svd_cosines(tdm: TermDocumentMatrix, tqm: TermQueryMatrix, k: int):
    """Rank-k LSI cosines straight from `np.linalg.svd`: the test oracle.

    Each query is compared with the rank-k reconstruction U_k S_k V_kᵀ of
    every document column.  A zero query, or a reconstruction whose norm is
    within the Gram route's rounding, sqrt(max(t, d) * eps) * s₁, gives 0.
    Returns all singular values and the q x d cosines.
    """
    docs = tdm.cells.astype(float)
    queries = tqm.cells.astype(float)
    u, s, vt = np.linalg.svd(docs, full_matrices=False)
    reconstruction = (u[:, :k] * s[:k]) @ vt[:k]
    doc_norms = np.linalg.norm(reconstruction, axis=0)
    doc_norms[doc_norms <= np.sqrt(max(docs.shape) * np.finfo(float).eps) * s[0]] = 0
    numerators = queries.T @ reconstruction
    denominators = np.outer(np.linalg.norm(queries, axis=0), doc_norms)
    cosines = np.divide(
        numerators, denominators, out=np.zeros_like(numerators), where=denominators > 0
    )
    return s, np.clip(cosines, -1.0, 1.0)


def full_rank_svd_cosines(tdm: TermDocumentMatrix, tqm: TermQueryMatrix):
    """The oracle's cosines at k = rank, as a similarity matrix."""
    _, values = svd_cosines(tdm, tqm, int(np.linalg.matrix_rank(tdm.cells)))
    return SimilarityMatrix(tqm.query_names, tdm.doc_names, values)


def raw_cosine(tdm_cells: np.ndarray, tqm_cells: np.ndarray) -> np.ndarray:
    docs = tdm_cells.astype(float)
    queries = tqm_cells.astype(float)
    numerators = queries.T @ docs
    denominators = np.outer(
        np.linalg.norm(queries, axis=0), np.linalg.norm(docs, axis=0)
    )
    return np.divide(
        numerators, denominators, out=np.zeros_like(numerators), where=denominators > 0
    )


class TestVocabulary:
    def test_sorted_union(self):
        vocab = build_vocabulary(bags({"a": {"zeta": 1, "alpha": 2}, "b": {"mid": 1}}))
        assert vocab.terms == ("alpha", "mid", "zeta")
        assert vocab.index == {"alpha": 0, "mid": 1, "zeta": 2}

    def test_single_bag(self):
        assert build_vocabulary(bags({"only": {"a": 1}})).terms == ("a",)

    def test_overlap_union_without_duplicates(self):
        vocab = build_vocabulary(bags({"x": {"a": 1, "b": 1}, "y": {"b": 2, "c": 1}}))
        assert vocab.terms == ("a", "b", "c")

    def test_ds_style_terms_present(self):
        vocab, _, _ = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)
        assert {"line", "draw", "shape"} <= set(vocab.terms)

    def test_all_empty_is_error(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary(bags({"a": {}, "b": {}}))


class TestCountMatrices:
    def test_tdm_cells(self):
        vocab, tdm, _ = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)

        def cell(term, doc):
            return tdm.cells[vocab.index[term], tdm.doc_names.index(doc)]

        assert cell("line", "MyLine") == 6
        assert cell("line", "PaintJPanel") == 1
        assert cell("line", "MyOval") == 0
        assert cell("shape", "DrawingShapes") == 21
        assert cell("shape", "PaintJPanel") == 29
        assert cell("draw", "MyLine") == 5

    def test_empty_bag_is_zero_column(self):
        doc_bags = bags({"full": {"a": 2}, "empty": {}})
        vocab = build_vocabulary(doc_bags)
        tdm = build_tdm(doc_bags, vocab)
        assert tdm.cells[:, 1].sum() == 0

    def test_tqm_cells_and_vocabulary_restriction(self):
        vocab, _, tqm = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)

        def cell(term, query):
            return tqm.cells[vocab.index[term], tqm.query_names.index(query)]

        for query in tqm.query_names:
            assert cell("draw", query) == 7
            assert cell("shape", query) == 0

    def test_query_only_terms_dropped(self):
        doc_bags = bags({"d": {"a": 1}})
        vocab = build_vocabulary(doc_bags)
        tqm = build_tqm(bags({"q": {"a": 2, "nowhere": 9}}), vocab)
        assert tqm.cells.shape == (1, 1)
        assert tqm.cells[0, 0] == 2

    def test_no_vocabulary_overlap_gives_zero_column(self):
        doc_bags = bags({"d": {"a": 1}})
        vocab = build_vocabulary(doc_bags)
        tqm = build_tqm(bags({"q": {"other": 3}}), vocab)
        assert tqm.cells[:, 0].sum() == 0


class TestTruncatedSvd:
    def test_rank_one_singular_value_is_frobenius_norm(self):
        cells = np.array([[2, 4], [1, 2], [3, 6]])
        space = truncated_svd(synthetic(cells), 1)
        assert space.singular_values[0] == pytest.approx(
            np.linalg.norm(cells.astype(float)), abs=1e-9
        )

    def test_diagonal_two_by_two(self):
        space = truncated_svd(synthetic(np.diag([3, 2])), 2)
        assert np.allclose(space.singular_values, [3.0, 2.0], atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.RandomState(11)
        cells = rng.randint(0, 10, size=(8, 5))
        space = truncated_svd(synthetic(cells), 5)
        approx = (space.left_vectors * space.singular_values) @ space.doc_coords.T
        assert np.abs(approx - cells).max() < 1e-6

    def test_orthonormal_columns(self):
        rng = np.random.RandomState(12)
        cells = rng.randint(0, 10, size=(9, 6))
        space = truncated_svd(synthetic(cells), 4)
        gram = space.left_vectors.T @ space.left_vectors
        assert np.abs(gram - np.eye(space.k)).max() < 1e-9

    def test_rank_k_optimality_against_sampled_competitors(self):
        rng = np.random.RandomState(13)
        cells = rng.randint(0, 8, size=(7, 6)).astype(float)
        k = 3
        space = truncated_svd(synthetic(cells.astype(int)), k)
        approx = (space.left_vectors * space.singular_values) @ space.doc_coords.T
        svd_error = np.linalg.norm(cells - approx)
        for _ in range(50):
            competitor = rng.normal(size=(7, k)) @ rng.normal(size=(k, 6))
            assert svd_error <= np.linalg.norm(cells - competitor) + 1e-9

    def test_singular_values_positive_nonincreasing(self):
        rng = np.random.RandomState(14)
        cells = rng.randint(0, 5, size=(10, 7))
        cells[:, -1] = cells[:, 0]  # force rank deficiency
        space = truncated_svd(synthetic(cells), 7)
        values = space.singular_values
        assert (values > 0).all()
        assert (np.diff(values) <= 1e-12).all()
        assert space.k <= np.linalg.matrix_rank(cells)

    @pytest.mark.parametrize("k", [0, 6])
    def test_k_out_of_range(self, k):
        with pytest.raises(ParameterError):
            truncated_svd(synthetic(np.ones((5, 4), dtype=int)), k)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateMatrixError):
            truncated_svd(synthetic(np.zeros((3, 3), dtype=int)), 1)

    @pytest.mark.parametrize(
        "t, d", [(12, 4), (4, 12), (7, 7), (30, 9), (9, 30), (1, 6), (6, 1)]
    )
    def test_equals_the_svd_oracle_at_every_k(self, t, d):
        rng = np.random.RandomState(200 * t + d)
        compared = skipped = 0
        for trial in range(60):
            pair = random_counts(rng, t, d, rng.randint(1, 5), trial)
            if pair is None:
                continue
            tdm, tqm = pair
            rank = np.linalg.matrix_rank(tdm.cells)
            for asked in range(1, min(t, d) + 1):
                space = truncated_svd(tdm, asked)
                k = min(asked, rank)  # topics of zero weight are dropped
                s, expected = svd_cosines(tdm, tqm, k)
                assert space.k == k
                assert np.abs(space.singular_values - s[:k]).max() <= 1e-9 * s[0]
                if k < len(s) and s[k - 1] - s[k] <= 1e-6 * s[0]:
                    skipped += 1  # s_k = s_k+1: the rank-k space is not unique
                    continue
                csm = cosine_similarity_matrix(space, tqm)
                assert np.abs(csm.values - expected).max() <= 1e-12
                oracle = SimilarityMatrix(tqm.query_names, tdm.doc_names, expected)
                for threshold in (0.15, 0.3, 0.7):
                    assert binarize(csm, threshold) == binarize(oracle, threshold)
                compared += 1
        assert compared > 20 * skipped


class TestFoldIn:
    def test_document_column_folds_to_its_coordinates(self):
        rng = np.random.RandomState(15)
        cells = rng.randint(0, 9, size=(8, 5))
        rank = np.linalg.matrix_rank(cells)
        space = truncated_svd(synthetic(cells), rank)
        for j in range(5):
            folded = cells[:, j] @ space.left_vectors / space.singular_values
            assert np.abs(folded - space.doc_coords[j]).max() < 1e-6


class TestSimilarityMatrix:
    def test_query_identical_to_document_scores_one(self):
        vocab, tdm, _ = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)
        space = truncated_svd(tdm, min(tdm.cells.shape))
        tqm = TermQueryMatrix(
            vocab=vocab, query_names=("copy",), cells=tdm.cells[:, [1]]
        )
        csm = cosine_similarity_matrix(space, tqm)
        assert csm.values[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_full_rank_equals_raw_vector_space_cosine(self):
        rng = np.random.RandomState(16)
        for trial in range(120):
            t = rng.randint(1, 11)
            d = rng.randint(1, 11)
            q = rng.randint(1, 5)
            cells = rng.randint(0, 6, size=(t, d))
            if not cells.any():
                continue
            if d >= 2 and trial % 4 == 0:
                cells[:, -1] = cells[:, 0]  # rank-deficient case
            queries = rng.randint(0, 6, size=(t, q))
            tdm = synthetic(cells)
            tqm = TermQueryMatrix(
                vocab=tdm.vocab,
                query_names=tuple(f"q{i}" for i in range(q)),
                cells=queries,
            )
            space = truncated_svd(tdm, int(np.linalg.matrix_rank(cells)))
            csm = cosine_similarity_matrix(space, tqm)
            assert np.abs(csm.values - raw_cosine(cells, queries)).max() < 1e-6

    def test_values_within_unit_interval(self):
        rng = np.random.RandomState(17)
        for _ in range(40):
            cells = rng.randint(0, 7, size=(rng.randint(2, 9), rng.randint(2, 7)))
            if not cells.any():
                continue
            queries = rng.randint(0, 7, size=(cells.shape[0], 3))
            tdm = synthetic(cells)
            tqm = TermQueryMatrix(tdm.vocab, ("a", "b", "c"), queries)
            for k in range(1, min(cells.shape) + 1):
                space = truncated_svd(tdm, k)
                values = cosine_similarity_matrix(space, tqm).values
                assert (values >= -1.0).all() and (values <= 1.0).all()

    def test_positive_scaling_leaves_row_unchanged(self):
        rng = np.random.RandomState(18)
        cells = rng.randint(0, 9, size=(10, 5))
        queries = rng.randint(0, 9, size=(10, 2))
        tdm = synthetic(cells)
        space = truncated_svd(tdm, 3)
        base = cosine_similarity_matrix(
            space, TermQueryMatrix(tdm.vocab, ("a", "b"), queries)
        ).values
        scaled = cosine_similarity_matrix(
            space, TermQueryMatrix(tdm.vocab, ("a", "b"), queries * 53)
        ).values
        assert np.abs(base - scaled).max() < 1e-9

    def test_zero_query_row_is_zero(self):
        tdm = synthetic(np.eye(3, dtype=int))
        space = truncated_svd(tdm, 3)
        tqm = TermQueryMatrix(tdm.vocab, ("empty",), np.zeros((3, 1), dtype=int))
        assert (cosine_similarity_matrix(space, tqm).values == 0).all()

    def test_documents_outside_the_kept_topics_score_zero(self):
        rng = np.random.RandomState(19)
        checked = 0
        for _ in range(2500):
            kept = rng.randint(3, 30, size=(rng.randint(2, 7), rng.randint(2, 7)))
            dropped = rng.randint(0, 3, size=(rng.randint(1, 5), rng.randint(1, 5)))
            if not dropped.any():
                continue
            k = int(np.linalg.matrix_rank(kept))
            if np.linalg.norm(dropped, 2) >= np.linalg.svd(kept, compute_uv=False)[k - 1]:
                continue  # the dropped block would hold a kept topic
            cells = np.zeros(np.add(kept.shape, dropped.shape), dtype=int)
            cells[: kept.shape[0], : kept.shape[1]] = kept
            cells[kept.shape[0] :, kept.shape[1] :] = dropped
            # Interleave the blocks, so that the SVD mixes them in rounding.
            rows = rng.permutation(cells.shape[0])
            columns = rng.permutation(cells.shape[1])
            tdm = synthetic(cells[rows][:, columns])
            queries = rng.randint(0, 4, size=(cells.shape[0], 3))
            tqm = TermQueryMatrix(tdm.vocab, ("a", "b", "c"), queries)
            values = cosine_similarity_matrix(truncated_svd(tdm, k), tqm).values
            assert (values[:, columns >= kept.shape[1]] == 0).all()
            checked += 1
        assert checked > 2000

    def test_dropped_document_with_norm_just_above_the_svd_tolerance(self):
        # Draw 337 above: kept block [[15, 26, 13], [20, 25, 14]], dropped
        # block [[2, 0], [1, 0], [1, 0]], rows and columns interleaved.  The
        # dropped document (column 2) reconstructs to a norm of about 6e-14,
        # just above max(t, d) * eps * s₁.
        cells = np.array(
            [
                [0, 0, 1, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 2, 0, 0],
                [14, 20, 0, 25, 0],
                [13, 15, 0, 26, 0],
            ]
        )
        queries = np.array([[3, 0, 1, 2, 3], [1, 0, 2, 0, 2], [1, 1, 0, 1, 1]]).T
        tdm = synthetic(cells)
        tqm = TermQueryMatrix(tdm.vocab, ("a", "b", "c"), queries)
        values = cosine_similarity_matrix(truncated_svd(tdm, 2), tqm).values
        assert (values[:, [2, 4]] == 0).all()

    def test_ds_style_binarization_shape(self):
        _, tdm, tqm = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)
        space = truncated_svd(tdm, min(tdm.cells.shape))
        csm = cosine_similarity_matrix(space, tqm)
        line_row = csm.values[list(csm.query_names).index("Draw a line")]
        by_doc = dict(zip(csm.doc_names, line_row))
        assert by_doc["MyLine"] >= 0.70
        assert by_doc["DrawingShapes"] < 0.70


class TestCountCosine:
    @pytest.mark.parametrize("t, d", [(12, 4), (4, 12), (7, 7), (1, 6), (6, 1)])
    def test_equals_the_full_rank_svd_path(self, t, d):
        rng = np.random.RandomState(100 * t + d)
        for trial in range(60):
            pair = random_counts(rng, t, d, rng.randint(1, 5), trial)
            if pair is None:
                continue
            tdm, tqm = pair
            fast = count_cosine_matrix(tdm, tqm)
            reference = full_rank_svd_cosines(tdm, tqm)
            assert fast.query_names == reference.query_names
            assert fast.doc_names == reference.doc_names
            assert np.abs(fast.values - reference.values).max() < 1e-12
            assert (fast.values >= 0).all() and (fast.values <= 1).all()
            assert (fast.values[:, ~tdm.cells.any(axis=0)] == 0).all()
            assert (fast.values[~tqm.cells.any(axis=0)] == 0).all()


class TestCsvDumps:
    def test_count_matrix_csv(self):
        _, tdm, _ = matrices_for({"DocA": {"x": 2}}, {})
        text = write_count_matrix_csv(tdm)
        assert text.splitlines() == ["term,DocA", "x,2"]

    def test_similarity_csv_has_nine_decimals(self):
        _, tdm, tqm = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)
        space = truncated_svd(tdm, 2)
        text = write_similarity_csv(cosine_similarity_matrix(space, tqm))
        first_value = text.splitlines()[1].split(",")[1]
        assert len(first_value.split(".")[1]) == 9
