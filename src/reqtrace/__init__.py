"""reqtrace: requirement-to-code trace link recovery.

Pipeline: Java sources (or a code-facts XML file) become one text document
per class; requirement files become queries; both are normalized into term
bags; latent semantic indexing scores every query against every document;
a cosine threshold binarizes the scores into a formal context; formal
concept analysis groups the links into an AOC-poset; the links, lattice,
and an optional precision/recall report are written out.
"""
