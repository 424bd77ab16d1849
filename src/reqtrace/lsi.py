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
Every product of two count matrices, the Gram matrix AᵀA or AAᵀ and the
query-document dots QᵀD, comes from one kernel, `_dots`: the few terms
in more than an eighth of the columns form a dense block multiplied by
BLAS, and every other term adds the products of its own pairs of cells,
a bounded chunk of pairs per bincount.  Counts are integers, so every dot
product and squared norm is an integer, and float64 sums of integers
below 2⁵³ (about 9e15, far beyond any corpus's counts) are exact in any
order: these products, and so the full-rank cosines, equal a dense
product of the counts bit for bit.  Products with the singular vectors
are not integer sums, so they match a dense product only up to rounding.
Under truncation, when d <= t, the query side goes through the exact QᵀA
and the right singular vectors V; the t x k left ones are made only when
read (`cosine_similarity_matrix`, `LsiSpace`).

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
from functools import cached_property
from itertools import chain, repeat
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
_CHUNK = 1 << 14  # cell pairs that `_dots` sums in one bincount


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
    """Rank-k topic space of a TDM A (t x d).

    `singular_values` holds the k strictly positive weights in
    nonincreasing order, and `doc_coords` one row per document (d x k): the
    right singular vectors V, i.e. exactly what folding the document's own
    count column back in would produce.  `left_vectors` holds the
    orthonormal term-topic columns U (t x k).  When d <= t no similarity
    needs them, so they are made on first read, as A V / s; when d > t the
    eigensolver gives them as `found_left`.
    """

    k: int
    singular_values: np.ndarray
    doc_coords: np.ndarray
    doc_names: tuple[str, ...]
    counts: _Nonzeros  # A, t x d
    found_left: np.ndarray | None = None

    @cached_property
    def left_vectors(self) -> np.ndarray:
        if self.found_left is not None:
            return self.found_left
        return self.counts.times(self.doc_coords) / self.singular_values


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
    lengths = [len(bag.counts) for bag in bags]
    cells = sum(lengths)
    terms = chain.from_iterable(bag.counts for bag in bags)
    rows = np.fromiter(
        map(vocab.index.get, terms, repeat(-1)),
        dtype=np.intp,
        count=cells,
    )
    counts = np.fromiter(
        chain.from_iterable(bag.counts.values() for bag in bags),
        dtype=np.int64,
        count=cells,
    )
    columns = np.repeat(np.arange(len(bags), dtype=np.intp), lengths)
    kept = (rows >= 0) & (counts != 0)
    rows = rows[kept]
    order = np.argsort(rows, kind="stable")
    return _Nonzeros(
        shape=(len(vocab), len(bags)),
        rows=rows[order],
        columns=columns[kept][order],
        counts=counts[kept][order],
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


def _dots(left: _Nonzeros, right: _Nonzeros) -> np.ndarray:
    """leftᵀ·right, a x b, of a t x a and a t x b count matrix, exactly.

    A row in more than an eighth of either side's columns (a common word)
    goes into one dense block per side, whose product gives its share of
    every cell; fewer than 8 * nnz / width rows qualify on each side.  The
    result starts as that product, and every other row adds only the pairs
    of its own cells: one bincount per chunk of at most `_CHUNK` pairs,
    into a slab of at most max(`_CHUNK`, b) cells, so that no second a x b
    array is made.  Both sum integers below 2⁵³, so the result equals a
    dense product of the counts bit for bit.
    """
    a, b = left.shape[1], right.shape[1]
    left_starts, right_starts = left.starts(), right.starts()
    heavy_rows = (np.diff(left_starts) > a / 8) | (np.diff(right_starts) > b / 8)
    block_row = np.cumsum(heavy_rows) - 1

    def block(side: _Nonzeros) -> np.ndarray:
        heavy = heavy_rows[side.rows]
        cells = np.zeros((int(heavy_rows.sum()), side.shape[1]))
        cells[block_row[side.rows[heavy]], side.columns[heavy]] = side.counts[heavy]
        return cells

    left_block = block(left)
    out = left_block.T @ (left_block if right is left else block(right))
    # Each light cell of `left`, by column, pairs with the cells of its row
    # in `right`; pair p belongs to cell `cell` when pair_at[cell] <= p.
    by_column = left.transposed()
    light = ~heavy_rows[by_column.columns]
    columns = by_column.rows[light]
    terms = by_column.columns[light]
    weights = by_column.counts[light]
    first = right_starts[terms]
    pair_at = np.concatenate(([0], np.cumsum(right_starts[terms + 1] - first)))
    column_pairs = pair_at[np.searchsorted(columns, np.arange(a + 1))]
    first -= pair_at[:-1]  # + pair index = the pair's cell in `right`
    pair = 0
    while pair < pair_at[-1]:
        top = int(np.searchsorted(column_pairs, pair, side="right")) - 1
        rows = min(max(1, _CHUNK // b), a - top)  # of `out`, in this slab
        stop = min(pair + _CHUNK, int(column_pairs[top + rows]))
        pairs = np.arange(pair, stop)
        cell = np.searchsorted(pair_at, pairs, side="right") - 1
        postings = first[cell] + pairs
        slab = np.bincount(
            (columns[cell] - top) * b + right.columns[postings],
            weights=weights[cell] * right.counts[postings],
            minlength=rows * b,
        )
        out[top : top + rows] += slab.reshape(rows, b)
        pair = stop
    return out


def check_topics(k: int, rank: int | None = None) -> None:
    """Refuse a number of topics k outside 1..`rank`, where `rank` is the
    bound min(t, d) of a t x d TDM; before the TDM is known, only k < 1."""
    if k < 1 or rank is not None and k > rank:
        bound = "min(terms, documents)" if rank is None else rank
        raise ParameterError(f"topics {k} outside 1..{bound}")


def truncated_svd(tdm: TermDocumentMatrix, k: int) -> LsiSpace:
    """Best rank-k factorization of the TDM, from its smaller Gram matrix.

    The eigendecomposition of AᵀA (d x d, when d <= t) or AAᵀ (t x t),
    both summed exactly by `_dots`, gives the right or left singular
    vectors and the squared singular values.  When d > t one product gives
    the right side, V = Aᵀ U / s; when d <= t the left side U = A V / s is
    left to `LsiSpace.left_vectors`, since the cosine takes its query side
    from QᵀA and V.  Eigenvalues resolve singular values only down to
    about √eps times the largest, so a topic whose eigenvalue is within the
    Gram matrix's own rounding, λ <= max(t, d) * eps * λ₁, is discarded:
    the effective k never exceeds the numerical rank and every kept
    singular value is strictly positive.
    """
    t, d = tdm.shape
    check_topics(k, min(t, d))
    matrix = tdm.nonzeros
    if not len(matrix.counts):
        raise DegenerateMatrixError("term-document matrix is all zeros")
    side = matrix if d <= t else matrix.transposed()  # sideᵀ side is the smaller Gram
    eigenvalues, eigenvectors = np.linalg.eigh(_dots(side, side))
    singular = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    effective = min(k, int(np.sum(singular > _rank_tolerance(t, d, singular[0]))))
    s = singular[:effective]
    vectors = np.ascontiguousarray(eigenvectors[:, ::-1][:, :effective])
    u, v = (None, vectors) if d <= t else (vectors, side.times(vectors) / s)
    # An all-zero column folds in to the origin, but the eigensolver can
    # leave rounding noise in its row of V; the empty document would then
    # get cosines of pure noise, up to 1.
    v[np.bincount(matrix.columns, minlength=d) == 0] = 0.0
    return LsiSpace(
        k=effective,
        singular_values=s,
        doc_coords=v,
        doc_names=tdm.doc_names,
        counts=matrix,
        found_left=u,
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

    Rows are queries, columns are documents.  The numerators are
    Qᵀ U S Vᵀ: when d <= t they are taken as (C V) Vᵀ from the exact
    C = QᵀA, which equals it in exact arithmetic since U = A V / s, and
    no t x k array is made; when d > t, U is at hand and Qᵀ U is taken
    first.  A zero query vector or a document whose reconstruction is zero
    yields similarity 0.  A document whose terms lie outside the k kept
    topics reconstructs to 0 up to rounding; its norm is within
    `truncated_svd`'s rank tolerance and is taken as 0, since a cosine of
    that rounding noise can reach 1.
    """
    queries = tqm.nonzeros  # t x q
    t, d = space.counts.shape
    v = space.doc_coords
    doc_scaled = v * space.singular_values  # d x k rows
    if d <= t:
        numerators = (_dots(queries, space.counts) @ v) @ v.T
    else:
        numerators = queries.transposed().times(space.left_vectors) @ doc_scaled.T
    doc_norms = np.linalg.norm(doc_scaled, axis=1)
    doc_norms[doc_norms <= _rank_tolerance(t, d, space.singular_values[0])] = 0.0
    values = _cosines(
        numerators,  # q x d
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
    values = _cosines(
        _dots(queries, docs),
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
