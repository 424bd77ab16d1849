from __future__ import annotations

import csv
import io
import tracemalloc

import numpy as np
import pytest

from reqtrace.errors import DegenerateMatrixError, EmptyCorpusError, ParameterError
from reqtrace import lsi
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


def column_bags(
    cells: np.ndarray, terms: tuple[str, ...], prefix: str, names=None
) -> list[TermBag]:
    """One bag per column of `cells`, counting the term of each row."""
    if names is None:
        names = tuple(f"{prefix}{j}" for j in range(cells.shape[1]))
    return [
        TermBag(name, {terms[i]: int(c) for i, c in enumerate(column) if c})
        for name, column in zip(names, cells.T)
    ]


def synthetic(cells: np.ndarray) -> TermDocumentMatrix:
    """The TDM of `cells`, all-zero rows included, built from its columns."""
    terms = tuple(f"t{i}" for i in range(cells.shape[0]))
    vocab = Vocabulary(terms=terms, index={term: i for i, term in enumerate(terms)})
    return build_tdm(column_bags(cells, terms, "d"), vocab)


def query_matrix(tdm: TermDocumentMatrix, cells: np.ndarray, names=None):
    """The TQM of `cells` over the vocabulary of `tdm`, built from its columns."""
    return build_tqm(column_bags(cells, tdm.vocab.terms, "q", names), tdm.vocab)


def random_counts(rng, t: int, d: int, q: int, trial: int):
    """Sparse seeded TDM and TQM; `trial` picks which edge cases to plant.

    Every other trial has an all-zero term row, every third an all-zero
    document column, every fifth a rank-deficient TDM (one column the sum of
    two others), every fourth an all-zero query.  Returns None when the TDM
    came out all zero.
    """
    cells = rng.randint(0, 9, size=(t, d)) * (rng.rand(t, d) < rng.uniform(0.2, 1))
    if t >= 2 and trial % 2 == 1:
        cells[rng.randint(t)] = 0
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
    return tdm, query_matrix(tdm, queries)


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


def mixed_counts(rng, t: int, d: int, q: int):
    """Seeded TDM and TQM whose term rows range from empty to full.

    Counts are mostly small, with some up to 10⁵, so that dot products
    reach ~10¹¹.  An all-zero term row, document column and query are
    planted wherever the matrix has more than one of them.
    """
    density = rng.uniform(0, 1, size=(t, 1)) ** 3
    large = rng.rand(t, d) < 0.05
    counts = np.where(
        large, rng.randint(1, 100_000, size=(t, d)), rng.randint(1, 9, size=(t, d))
    )
    cells = counts * (rng.rand(t, d) < density)
    if t >= 2:
        cells[rng.randint(t)] = 0
    if d >= 2:
        cells[:, rng.randint(d)] = 0
    queries = rng.randint(0, 5, size=(t, q)) * (rng.rand(t, q) < 0.5)
    if q >= 2:
        queries[:, rng.randint(q)] = 0
    tdm = synthetic(cells)
    return tdm, query_matrix(tdm, queries)


def dense_count_cosine(tdm_cells: np.ndarray, tqm_cells: np.ndarray) -> np.ndarray:
    """The full-rank cosine as one dense product of the counts: the oracle."""
    docs = tdm_cells.astype(np.float64)
    queries = tqm_cells.astype(np.float64)
    numerators = queries.T @ docs
    denominators = np.outer(
        np.linalg.norm(queries, axis=0), np.linalg.norm(docs, axis=0)
    )
    values = np.divide(
        numerators, denominators, out=np.zeros_like(numerators), where=denominators > 0
    )
    return np.clip(values, -1.0, 1.0)


def dense_gram(tdm_cells: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix, AᵀA or AAᵀ, as one dense product: the oracle."""
    matrix = tdm_cells.astype(np.float64)
    side = matrix if matrix.shape[1] <= matrix.shape[0] else matrix.T
    return side.T @ side


def per_cell_csv(names: tuple[str, ...], terms: tuple[str, ...], cells) -> str:
    """A count matrix written one dense cell at a time: the oracle."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["term", *names])
    for i, term in enumerate(terms):
        writer.writerow([term, *(int(v) for v in cells[i])])
    return buffer.getvalue()


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def sparse_bag_corpus(seed: int, terms: int, docs: int, queries: int):
    """Seeded document and query bags over `terms` distinct words.

    Each document owns terms // docs words of its own, so every word is in
    the vocabulary, and draws 100 more from a Zipf-like law, so a few words
    are in most documents.  Each query draws 20.
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(terms)]
    weights = 1.0 / np.arange(1, terms + 1)
    weights /= weights.sum()
    own = terms // docs

    def bag(name: str, draws: int, owned: np.ndarray) -> TermBag:
        chosen = np.concatenate([rng.choice(terms, size=draws, p=weights), owned])
        ids, counts = np.unique(chosen, return_counts=True)
        return TermBag(name, {words[i]: int(c) for i, c in zip(ids, counts)})

    doc_bags = [
        bag(f"d{j}", 100, np.arange(j * own, (j + 1) * own)) for j in range(docs)
    ]
    query_bags = [bag(f"q{j}", 20, np.arange(0)) for j in range(queries)]
    return doc_bags, query_bags


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

    def test_no_bags_is_error(self):
        with pytest.raises(EmptyCorpusError, match="no term bags"):
            build_vocabulary([])


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
        _, tdm, _ = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)
        space = truncated_svd(tdm, min(tdm.shape))
        tqm = query_matrix(tdm, tdm.cells[:, [1]], ("copy",))
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
            tqm = query_matrix(tdm, queries)
            space = truncated_svd(tdm, int(np.linalg.matrix_rank(cells)))
            csm = cosine_similarity_matrix(space, tqm)
            expected = dense_count_cosine(cells, queries)
            assert np.abs(csm.values - expected).max() < 1e-6

    def test_values_within_unit_interval(self):
        rng = np.random.RandomState(17)
        for _ in range(40):
            cells = rng.randint(0, 7, size=(rng.randint(2, 9), rng.randint(2, 7)))
            if not cells.any():
                continue
            queries = rng.randint(0, 7, size=(cells.shape[0], 3))
            tdm = synthetic(cells)
            tqm = query_matrix(tdm, queries)
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
            space, query_matrix(tdm, queries)
        ).values
        scaled = cosine_similarity_matrix(
            space, query_matrix(tdm, queries * 53)
        ).values
        assert np.abs(base - scaled).max() < 1e-9

    def test_zero_query_row_is_zero(self):
        tdm = synthetic(np.eye(3, dtype=int))
        space = truncated_svd(tdm, 3)
        tqm = query_matrix(tdm, np.zeros((3, 1), dtype=int))
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
            tqm = query_matrix(tdm, queries)
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
        tqm = query_matrix(tdm, queries)
        values = cosine_similarity_matrix(truncated_svd(tdm, 2), tqm).values
        assert (values[:, [2, 4]] == 0).all()

    def test_ds_style_binarization_shape(self):
        _, tdm, tqm = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)
        space = truncated_svd(tdm, min(tdm.shape))
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
        text = b"".join(write_count_matrix_csv(tdm)).decode("utf-8")
        assert text.splitlines() == ["term,DocA", "x,2"]

    def test_similarity_csv_has_nine_decimals(self):
        _, tdm, tqm = matrices_for(DS_STYLE_DOCS, DS_STYLE_QUERIES)
        space = truncated_svd(tdm, 2)
        lines = write_similarity_csv(cosine_similarity_matrix(space, tqm))
        text = b"".join(lines).decode("utf-8")
        first_value = text.splitlines()[1].split(",")[1]
        assert len(first_value.split(".")[1]) == 9


MIXED_SHAPES = [
    (40, 12), (12, 40), (90, 30), (30, 90), (64, 64), (1, 30), (30, 1), (1, 1)
]


class TestAgainstDenseProducts:
    """The sparse routines give, bit for bit, what dense products of the
    counts give: every sum they make is an integer below 2⁵³."""

    @pytest.mark.parametrize("t, d", MIXED_SHAPES)
    def test_count_cosine(self, t, d):
        rng = np.random.RandomState(300 * t + d)
        for _ in range(25):
            tdm, tqm = mixed_counts(rng, t, d, rng.randint(1, 6))
            expected = dense_count_cosine(tdm.cells, tqm.cells)
            assert_bitwise(count_cosine_matrix(tdm, tqm).values, expected)

    @pytest.mark.parametrize("t, d", MIXED_SHAPES)
    def test_gram(self, t, d):
        rng = np.random.RandomState(400 * t + d)
        for _ in range(25):
            tdm, _ = mixed_counts(rng, t, d, 1)
            side = tdm.nonzeros if d <= t else tdm.nonzeros.transposed()
            assert_bitwise(lsi._gram(side), dense_gram(tdm.cells))

    @pytest.mark.parametrize("t, d", MIXED_SHAPES)
    def test_count_matrix_csv(self, t, d):
        rng = np.random.RandomState(500 * t + d)
        for _ in range(5):
            tdm, tqm = mixed_counts(rng, t, d, 2)
            tqm = query_matrix(tdm, tqm.cells, ("a,b", 'say "x"'))
            for matrix, names in ((tdm, tdm.doc_names), (tqm, tqm.query_names)):
                expected = per_cell_csv(names, tdm.vocab.terms, matrix.cells)
                assert b"".join(write_count_matrix_csv(matrix)) == expected.encode()


class TestMemory:
    def test_no_dense_term_by_document_array(self):
        t, d = 20_000, 2_000
        doc_bags, query_bags = sparse_bag_corpus(5, terms=t, docs=d, queries=200)
        vocab = build_vocabulary(doc_bags)
        assert len(vocab) == t
        quarter_dense = t * d * 8 // 4  # bytes of a quarter t x d float64 array
        tracemalloc.start()
        try:
            tdm = build_tdm(doc_bags, vocab)
            tqm = build_tqm(query_bags, vocab)
            count_cosine_matrix(tdm, tqm)
            full_rank_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            cosine_similarity_matrix(truncated_svd(tdm, 50), tqm)
            topics_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert full_rank_peak < quarter_dense
        assert topics_peak < quarter_dense
