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

The count matrices are sparse: only their nonzero cells are held, sorted
by term, so that each term's cells form its posting list (Manning,
Raghavan & Schütze, *Introduction to IR*, ch. 6-7).  Nothing builds a
dense t x d or t x q array; `cells` makes one on demand for inspection.
Dot products are summed term at a time over the postings of the terms a
column actually holds.  Counts are integers, so every dot product and
squared norm is an integer, and float64 sums of integers below 2⁵³
(about 9e15, far beyond any corpus's counts) are exact in any order: the
full-rank cosines and the Gram matrix below equal, bit for bit, a dense
product of the counts.  Products with the singular vectors are not
integer sums, so they match a dense product only up to rounding.

`truncated_svd` takes the SVD from an eigendecomposition of the smaller
Gram matrix, AᵀA or AAᵀ, not from a thin SVD of the t x d TDM.  The
price is resolution: a singular value s is seen through s², so values
below about sqrt(max(t, d) * eps) times the largest are rounding, both
in the rank cut and in the norm of a reconstructed document.

numpy is bound lazily (`_lazy`): it is loaded when the first of its names
is read, not when this module is imported.  `extract` never computes with
it, and its import was half the start-up of every command.  A `trace`
loads it at its first LSI step; `fca` takes `np` from here.
"""

from __future__ import annotations

import csv
import importlib.util
import sys
from dataclasses import dataclass
from types import ModuleType, SimpleNamespace
from typing import Iterable, Iterator

from .errors import DegenerateMatrixError, EmptyCorpusError, ParameterError
from .textprep import TermBag


def _lazy(name: str) -> ModuleType:
    """Module `name`, loaded when one of its names is first read, or at
    once if it is loaded already; `ModuleNotFoundError` if it is missing."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")

__all__ = [
    "Vocabulary",
    "TermDocumentMatrix",
    "TermQueryMatrix",
    "LsiSpace",
    "SimilarityMatrix",
    "build_vocabulary",
    "build_tdm",
    "build_tqm",
    "check_topics",
    "truncated_svd",
    "cosine_similarity_matrix",
    "count_cosine_matrix",
    "SIMILARITY_DECIMALS",
    "format_similarity",
    "csv_lines",
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
class _Nonzeros:
    """The nonzero cells of a sparse integer matrix, sorted by row.

    Cell i holds `counts[i]` at (`rows[i]`, `columns[i]`); `rows` is
    nondecreasing and `columns` increases within a row, so the cells of a
    row are contiguous.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    columns: np.ndarray
    counts: np.ndarray  # int64, all nonzero

    def starts(self) -> np.ndarray:
        """Offset of each row's first cell, then the number of cells."""
        return np.searchsorted(self.rows, np.arange(self.shape[0] + 1))

    def transposed(self) -> _Nonzeros:
        order = np.argsort(self.columns, kind="stable")
        return _Nonzeros(
            shape=self.shape[::-1],
            rows=self.columns[order],
            columns=self.rows[order],
            counts=self.counts[order],
        )

    def column_norms(self) -> np.ndarray:
        squares = np.bincount(
            self.columns, weights=self.counts * self.counts, minlength=self.shape[1]
        )
        return np.sqrt(squares)

    def times(self, dense: np.ndarray) -> np.ndarray:
        """This matrix times `dense` (columns x k), one topic at a time."""
        by_topic = np.ascontiguousarray(dense.T)
        out = np.empty((self.shape[0], len(by_topic)))
        for c, column in enumerate(by_topic):
            out[:, c] = np.bincount(
                self.rows,
                weights=self.counts * column[self.columns],
                minlength=self.shape[0],
            )
        return out


class _CountMatrix:
    """Shape and dense view of a count matrix held as `nonzeros`."""

    @property
    def shape(self) -> tuple[int, int]:
        return self.nonzeros.shape

    @property
    def cells(self) -> np.ndarray:
        """A dense int64 copy, built on every call; for inspection only."""
        nonzeros = self.nonzeros
        cells = np.zeros(nonzeros.shape, dtype=np.int64)
        cells[nonzeros.rows, nonzeros.columns] = nonzeros.counts
        return cells


@dataclass(frozen=True, eq=False)
class TermDocumentMatrix(_CountMatrix):
    vocab: Vocabulary
    doc_names: tuple[str, ...]
    nonzeros: _Nonzeros  # t x d


@dataclass(frozen=True, eq=False)
class TermQueryMatrix(_CountMatrix):
    vocab: Vocabulary
    query_names: tuple[str, ...]
    nonzeros: _Nonzeros  # t x q; terms outside the vocabulary are dropped


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
    doc_names: tuple[str, ...]


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


def _count_nonzeros(bags: list[TermBag], vocab: Vocabulary) -> _Nonzeros:
    """Terms x bags counts; terms outside `vocab` and zero counts are dropped."""
    rows: list[int] = []
    columns: list[int] = []
    counts: list[int] = []
    for j, bag in enumerate(bags):
        for term, count in bag.counts.items():
            row = vocab.index.get(term)
            if row is not None and count:
                rows.append(row)
                columns.append(j)
                counts.append(count)
    by_row = np.array(rows, dtype=np.intp)
    order = np.argsort(by_row, kind="stable")
    return _Nonzeros(
        shape=(len(vocab), len(bags)),
        rows=by_row[order],
        columns=np.array(columns, dtype=np.intp)[order],
        counts=np.array(counts, dtype=np.int64)[order],
    )


def build_tdm(bags: list[TermBag], vocab: Vocabulary) -> TermDocumentMatrix:
    return TermDocumentMatrix(
        vocab=vocab,
        doc_names=tuple(bag.name for bag in bags),
        nonzeros=_count_nonzeros(bags, vocab),
    )


def build_tqm(queries: list[TermBag], vocab: Vocabulary) -> TermQueryMatrix:
    return TermQueryMatrix(
        vocab=vocab,
        query_names=tuple(bag.name for bag in queries),
        nonzeros=_count_nonzeros(queries, vocab),
    )


def _gather(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The ranges first[i]..last[i]-1, concatenated."""
    lengths = last - first
    shifts = np.repeat(first - np.cumsum(lengths) + lengths, lengths)
    return shifts + np.arange(len(shifts))


def _add_dots(docs: _Nonzeros, queries: _Nonzeros, out: np.ndarray) -> np.ndarray:
    """Add Qᵀ·D, q x d, to `out`, term at a time over D's postings.

    D and Q share their rows.  Each query gathers the postings of its own
    terms only, and one bincount sums them per document.
    """
    starts = docs.starts()
    by_query = queries.transposed()
    query_starts = by_query.starts()
    for j in range(by_query.shape[0]):
        cells = slice(query_starts[j], query_starts[j + 1])
        terms = by_query.columns[cells]
        first, last = starts[terms], starts[terms + 1]
        postings = _gather(first, last)
        weights = np.repeat(by_query.counts[cells], last - first)
        out[j] += np.bincount(
            docs.columns[postings],
            weights=weights * docs.counts[postings],
            minlength=docs.shape[1],
        )
    return out


def _gram(side: _Nonzeros) -> np.ndarray:
    """SᵀS of the sparse S, exactly.

    A row in more than an eighth of the columns (a common word) goes into
    one dense block, whose product adds its full outer product; at most
    8 * nnz / width rows qualify, so the block holds at most 8 * nnz cells.
    Every other row adds only the pairs of its own cells, through
    `_add_dots`.  Both sum integers, so the result is exact.
    """
    width = side.shape[1]
    frequency = np.diff(side.starts())
    heavy_rows = frequency > width / 8
    heavy = heavy_rows[side.rows]
    block = np.zeros((int(heavy_rows.sum()), width))
    block_row = np.cumsum(heavy_rows) - 1
    block[block_row[side.rows[heavy]], side.columns[heavy]] = side.counts[heavy]
    light = _Nonzeros(
        side.shape, side.rows[~heavy], side.columns[~heavy], side.counts[~heavy]
    )
    return _add_dots(light, light, block.T @ block)


def check_topics(k: int, rank: int | None = None) -> None:
    """Refuse a number of topics k outside 1..`rank`, where `rank` is the
    bound min(t, d) of a t x d TDM; before the TDM is known, only k < 1."""
    if k < 1 or rank is not None and k > rank:
        bound = "min(terms, documents)" if rank is None else rank
        raise ParameterError(f"topics {k} outside 1..{bound}")


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
    t, d = tdm.shape
    check_topics(k, min(t, d))
    matrix = tdm.nonzeros
    if not len(matrix.counts):
        raise DegenerateMatrixError("term-document matrix is all zeros")
    side = matrix if d <= t else matrix.transposed()  # sideᵀ side is the smaller Gram
    eigenvalues, eigenvectors = np.linalg.eigh(_gram(side))
    singular = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    effective = min(k, int(np.sum(singular > _rank_tolerance(t, d, singular[0]))))
    s = singular[:effective]
    vectors = np.ascontiguousarray(eigenvectors[:, ::-1][:, :effective])
    other = side.times(vectors) / s
    u, v = (other, vectors) if d <= t else (vectors, other)
    # An all-zero column folds in to the origin, but the eigensolver can
    # leave rounding noise in its row of V; the empty document would then
    # get cosines of pure noise, up to 1.
    v[np.bincount(matrix.columns, minlength=d) == 0] = 0.0
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
    queries = tqm.nonzeros  # t x q
    doc_scaled = space.doc_coords * space.singular_values  # d x k rows
    projected = queries.transposed().times(space.left_vectors)  # q x k
    doc_norms = np.linalg.norm(doc_scaled, axis=1)
    tolerance = _rank_tolerance(
        len(space.left_vectors), len(space.doc_coords), space.singular_values[0]
    )
    doc_norms[doc_norms <= tolerance] = 0.0
    values = _cosines(
        projected @ doc_scaled.T,  # q x d
        queries.column_norms(),  # true term-space norms
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
    docs, queries = tdm.nonzeros, tqm.nonzeros
    dots = np.zeros((queries.shape[1], docs.shape[1]))
    values = _cosines(
        _add_dots(docs, queries, dots),
        queries.column_norms(),
        docs.column_norms(),
    )
    return SimilarityMatrix(
        query_names=tqm.query_names,
        doc_names=tdm.doc_names,
        values=values,
    )


def csv_lines(rows: Iterable[Iterable]) -> Iterator[bytes]:
    """Each row as one line of CSV in UTF-8, rendered when it is asked for,
    so a caller that writes each line as it comes never holds the table."""
    line: list[str] = []
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")
    for row in rows:
        writer.writerow(row)
        yield "".join(line).encode("utf-8")
        line.clear()


def write_count_matrix_csv(
    matrix: TermDocumentMatrix | TermQueryMatrix,
) -> Iterator[bytes]:
    """Render a count matrix as CSV lines (`csv_lines`): header of names,
    first column of terms."""
    return csv_lines(_count_matrix_rows(matrix))


def _count_matrix_rows(
    matrix: TermDocumentMatrix | TermQueryMatrix,
) -> Iterator[list[str]]:
    names = (
        matrix.doc_names
        if isinstance(matrix, TermDocumentMatrix)
        else matrix.query_names
    )
    yield ["term", *names]
    # made at the first term, so only while the matrix is being written
    nonzeros = matrix.nonzeros
    starts = nonzeros.starts().tolist()
    columns = (nonzeros.columns + 1).tolist()  # + 1 skips the term
    counts = [str(count) for count in nonzeros.counts.tolist()]
    zeros = ["", *["0"] * len(names)]
    for i, term in enumerate(matrix.vocab.terms):
        row = zeros.copy()
        row[0] = term
        for cell in range(starts[i], starts[i + 1]):
            row[columns[cell]] = counts[cell]
        yield row


def format_similarity(value: float) -> str:
    """A cosine as csm.csv shows it, with `SIMILARITY_DECIMALS` places."""
    return f"{value:.{SIMILARITY_DECIMALS}f}"


def write_similarity_csv(csm: SimilarityMatrix) -> Iterator[bytes]:
    """Render the similarity matrix as CSV lines (`csv_lines`) with
    9-decimal values."""
    return csv_lines(_similarity_rows(csm))


def _similarity_rows(csm: SimilarityMatrix) -> Iterator[list[str]]:
    yield ["query", *csm.doc_names]
    for name, values in zip(csm.query_names, csm.values):
        yield [name, *map(format_similarity, values)]
