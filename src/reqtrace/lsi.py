"""Latent semantic indexing over raw term-count matrices.

Builds the shared vocabulary, the term-document and term-query count
matrices, a truncated SVD of the TDM, and the query-by-document cosine
similarity matrix.  Weights are raw occurrence counts: no tf-idf and no
length normalization.

Similarity compares each query, in term space, against the rank-k
reconstruction of each document column.  At k = rank(TDM) this is exactly
the plain vector-space cosine of the raw count vectors, so full rank is
computed without an SVD by `count_cosine_matrix`; truncating k below the
rank (`truncated_svd` + `cosine_similarity_matrix`) smooths the documents
onto the dominant term associations.  Cosines are invariant to the
per-topic sign ambiguity of the SVD.

`truncated_svd` takes the SVD from an eigendecomposition of the smaller
Gram matrix, AᵀA or AAᵀ, not from a thin SVD of the t x d TDM.  The
price is resolution: a singular value s is seen through s², so values
below about sqrt(max(t, d) * eps) times the largest are rounding, both
in the rank cut and in the norm of a reconstructed document.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, EmptyCorpusError, ParameterError
from .textprep import TermBag

__all__ = [
    "Vocabulary",
    "TermDocumentMatrix",
    "TermQueryMatrix",
    "LsiSpace",
    "SimilarityMatrix",
    "build_vocabulary",
    "build_tdm",
    "build_tqm",
    "truncated_svd",
    "cosine_similarity_matrix",
    "count_cosine_matrix",
    "SIMILARITY_DECIMALS",
    "format_similarity",
    "write_count_matrix_csv",
    "write_similarity_csv",
]

SIMILARITY_DECIMALS = 9  # places of every cosine written to csm.csv


@dataclass(frozen=True)
class Vocabulary:
    """Unique corpus terms in lexicographic order; index maps term -> row."""

    terms: tuple[str, ...]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True, eq=False)
class TermDocumentMatrix:
    vocab: Vocabulary
    doc_names: tuple[str, ...]
    cells: np.ndarray  # t x d, nonnegative integers


@dataclass(frozen=True, eq=False)
class TermQueryMatrix:
    vocab: Vocabulary
    query_names: tuple[str, ...]
    cells: np.ndarray  # t x q; terms outside the vocabulary are dropped


@dataclass(frozen=True, eq=False)
class LsiSpace:
    """Rank-k topic space of a TDM.

    `left_vectors` holds orthonormal term-topic columns (t x k),
    `singular_values` the k strictly positive weights in nonincreasing
    order, and `doc_coords` one row per document (d x k): the right
    singular vectors, i.e. exactly what folding the document's own count
    column back in would produce.
    """

    k: int
    left_vectors: np.ndarray
    singular_values: np.ndarray
    doc_coords: np.ndarray
    doc_names: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    query_names: tuple[str, ...]
    doc_names: tuple[str, ...]
    values: np.ndarray  # q x d, all within [-1, 1]


def build_vocabulary(corpus: list[TermBag]) -> Vocabulary:
    """Sorted union of all bag terms."""
    if not corpus:
        raise EmptyCorpusError("no term bags supplied")
    terms = sorted(set().union(*(bag.counts.keys() for bag in corpus)))
    if not terms:
        raise EmptyCorpusError("all term bags are empty after preprocessing")
    return Vocabulary(terms=tuple(terms), index={t: i for i, t in enumerate(terms)})


def _count_matrix(bags: list[TermBag], vocab: Vocabulary) -> np.ndarray:
    cells = np.zeros((len(vocab), len(bags)), dtype=np.int64)
    for j, bag in enumerate(bags):
        for term, count in bag.counts.items():
            row = vocab.index.get(term)
            if row is not None:
                cells[row, j] = count
    return cells


def build_tdm(bags: list[TermBag], vocab: Vocabulary) -> TermDocumentMatrix:
    return TermDocumentMatrix(
        vocab=vocab,
        doc_names=tuple(bag.name for bag in bags),
        cells=_count_matrix(bags, vocab),
    )


def build_tqm(queries: list[TermBag], vocab: Vocabulary) -> TermQueryMatrix:
    return TermQueryMatrix(
        vocab=vocab,
        query_names=tuple(bag.name for bag in queries),
        cells=_count_matrix(queries, vocab),
    )


def truncated_svd(tdm: TermDocumentMatrix, k: int) -> LsiSpace:
    """Best rank-k factorization of the TDM, from its smaller Gram matrix.

    The eigendecomposition of AᵀA (d x d, when d <= t) or AAᵀ (t x t)
    gives the right or left singular vectors and the squared singular
    values; one product gives the other side, U = A V / s or V = Aᵀ U / s.
    Eigenvalues resolve singular values only down to about √eps times the
    largest, so a topic whose eigenvalue is within the Gram matrix's own
    rounding, λ <= max(t, d) * eps * λ₁, is discarded: the effective k
    never exceeds the numerical rank and every kept singular value is
    strictly positive.
    """
    t, d = tdm.cells.shape
    if not 1 <= k <= min(t, d):
        raise ParameterError(f"k={k} outside valid range 1..{min(t, d)}")
    if not tdm.cells.any():
        raise DegenerateMatrixError("term-document matrix is all zeros")
    matrix = tdm.cells.astype(np.float64)
    side = matrix if d <= t else matrix.T  # sideᵀ side is the smaller Gram
    eigenvalues, eigenvectors = np.linalg.eigh(side.T @ side)
    singular = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    effective = min(k, int(np.sum(singular > _rank_tolerance(t, d, singular[0]))))
    s = singular[:effective]
    vectors = eigenvectors[:, ::-1][:, :effective]
    other = side @ vectors / s
    u, v = (other, vectors) if d <= t else (vectors, other)
    # An all-zero column folds in to the origin, but the eigensolver can
    # leave rounding noise in its row of V; the empty document would then
    # get cosines of pure noise, up to 1.
    v[~matrix.any(axis=0)] = 0.0
    return LsiSpace(
        k=effective,
        left_vectors=u,
        singular_values=s,
        doc_coords=v,
        doc_names=tdm.doc_names,
    )


def _rank_tolerance(t: int, d: int, largest: float) -> float:
    """Singular value below which the Gram route cannot tell it from 0.

    The square root of `truncated_svd`'s eigenvalue cut for a t x d matrix
    whose largest singular value is `largest`.
    """
    return np.sqrt(max(t, d) * np.finfo(np.float64).eps) * largest


def _cosines(
    numerators: np.ndarray, query_norms: np.ndarray, doc_norms: np.ndarray
) -> np.ndarray:
    """Divide q x d dot products by the norms; a zero norm gives 0."""
    denominators = np.outer(query_norms, doc_norms)
    values = np.divide(
        numerators,
        denominators,
        out=np.zeros_like(numerators),
        where=denominators > 0,
    )
    np.clip(values, -1.0, 1.0, out=values)
    return values


def cosine_similarity_matrix(space: LsiSpace, tqm: TermQueryMatrix) -> SimilarityMatrix:
    """Cosine of every query against every rank-k reconstructed document.

    Rows are queries, columns are documents.  A zero query vector or a
    document whose reconstruction is zero yields similarity 0.  A
    document whose terms lie outside the k kept topics reconstructs to 0
    up to rounding; its norm is within `truncated_svd`'s rank tolerance
    and is taken as 0, since a cosine of that rounding noise can reach 1.
    """
    queries = tqm.cells.astype(np.float64)  # t x q
    doc_scaled = space.doc_coords * space.singular_values  # d x k rows
    projected = space.left_vectors.T @ queries  # k x q
    doc_norms = np.linalg.norm(doc_scaled, axis=1)
    tolerance = _rank_tolerance(
        len(space.left_vectors), len(space.doc_coords), space.singular_values[0]
    )
    doc_norms[doc_norms <= tolerance] = 0.0
    values = _cosines(
        projected.T @ doc_scaled.T,  # q x d
        np.linalg.norm(queries, axis=0),  # true term-space norms
        doc_norms,
    )
    return SimilarityMatrix(
        query_names=tqm.query_names,
        doc_names=space.doc_names,
        values=values,
    )


def count_cosine_matrix(
    tdm: TermDocumentMatrix, tqm: TermQueryMatrix
) -> SimilarityMatrix:
    """Full-rank similarity: the plain cosine of the raw count vectors.

    Equals `cosine_similarity_matrix(truncated_svd(tdm, rank), tqm)` up to
    rounding, without factorizing the TDM.  Counts are nonnegative, so
    every value lies in [0, 1]; a zero query or document column gives 0.
    """
    docs = tdm.cells.astype(np.float64)  # t x d
    queries = tqm.cells.astype(np.float64)  # t x q
    values = _cosines(
        queries.T @ docs,
        np.linalg.norm(queries, axis=0),
        np.linalg.norm(docs, axis=0),
    )
    return SimilarityMatrix(
        query_names=tqm.query_names,
        doc_names=tdm.doc_names,
        values=values,
    )


def write_count_matrix_csv(matrix: TermDocumentMatrix | TermQueryMatrix) -> str:
    """Render a count matrix as CSV: header of names, first column of terms."""
    names = (
        matrix.doc_names
        if isinstance(matrix, TermDocumentMatrix)
        else matrix.query_names
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["term", *names])
    for i, term in enumerate(matrix.vocab.terms):
        writer.writerow([term, *(int(v) for v in matrix.cells[i])])
    return buffer.getvalue()


def format_similarity(value: float) -> str:
    """A cosine as csm.csv shows it, with `SIMILARITY_DECIMALS` places."""
    return f"{value:.{SIMILARITY_DECIMALS}f}"


def write_similarity_csv(csm: SimilarityMatrix) -> str:
    """Render the similarity matrix as CSV with 9-decimal values."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["query", *csm.doc_names])
    for i, name in enumerate(csm.query_names):
        writer.writerow([name, *map(format_similarity, csm.values[i])])
    return buffer.getvalue()
