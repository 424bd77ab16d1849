"""reqtrace: requirement-to-code trace link recovery.

Pipeline: Java sources (or a code-facts XML file) become one text document
per class; requirement files become queries; both are normalized into term
bags; latent semantic indexing scores every query against every document;
a cosine threshold binarizes the scores into a formal context; formal
concept analysis groups the links into an AOC-poset; the links, lattice,
and an optional precision/recall report are written out.
"""

from .corpus import (
    DocumentCorpus,
    QueryCorpus,
    RawDocument,
    build_class_documents,
    load_requirement_documents,
)
from .errors import (
    ConfigurationError,
    DegenerateMatrixError,
    EmptyCorpusError,
    GoldCoverageError,
    ParameterError,
    ReqTraceError,
    XmlParseError,
    XmlSchemaError,
)
from .evaluation import (
    EvaluationReport,
    GoldLinks,
    evaluate,
    load_gold_links,
    precision,
    recall,
)
from .facts import (
    AttributeFact,
    ClassFact,
    CodeFacts,
    CommentFact,
    MethodFact,
    PackageFact,
    SoftwareMetrics,
    compute_metrics,
    load_facts_xml,
    save_facts_xml,
)
from .fca import (
    AOCPoset,
    FormalConcept,
    FormalContext,
    aoc_concepts,
    binarize,
    build_aoc_poset,
    enumerate_concepts,
)
from .javaparser import ParseDiagnostic, parse_compilation_unit, parse_source_tree
from .links import TraceLinkSet, assemble_links, emit_dot_poset, emit_dot_tracelinks
from .lsi import (
    LsiSpace,
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
)
from .porter import stem
from .textprep import (
    DEFAULT_STOP_WORDS,
    StopWordList,
    TermBag,
    load_stop_words,
    preprocess,
    split_camel_case,
)

__version__ = "0.1.0"
