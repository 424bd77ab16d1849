"""What `extract` and `trace --dump-intermediates` hold, against the size of
what they write.

Each command writes its outputs chunk by chunk, so the Python memory it
holds at its peak (tracemalloc's count) stays within a small multiple of
the facts XML, and the CSV dumps add less than the largest of them.  Both
commands run once untraced first, so that lazy set-up (compiled patterns,
imports) is not counted.  The corpus is `perfbench/corpus_gen.py`'s, at
300 classes.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest

from reqtrace.cli import EXIT_OK, main

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import corpus_gen
    root = tmp_path_factory.mktemp("corpus")
    corpus_gen.generate(root, classes=300, requirements=30, seed=3)
    return root


def traced_peak(argv: list[str]) -> int:
    """Peak bytes that tracemalloc sees during `main(argv)`, after one
    untraced run of the same command."""
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_holds_less_than_twice_its_xml(tmp_path, corpus, capsys):
    out = tmp_path / "facts.xml"
    peak = traced_peak(["extract", "--src", str(corpus / "src"), "--out", str(out)])
    capsys.readouterr()
    assert peak < 2 * out.stat().st_size


def test_dumping_intermediates_adds_less_than_the_largest_csv(
    tmp_path, corpus, capsys
):
    argv = ["trace", "--src", str(corpus / "src"), "--reqs", str(corpus / "reqs")]
    argv += ["--threshold", "0.15"]
    without = traced_peak(argv + ["--out", str(tmp_path / "plain")])
    dumped = tmp_path / "dumped"
    peak = traced_peak(argv + ["--dump-intermediates", "--out", str(dumped)])
    capsys.readouterr()
    largest = max(path.stat().st_size for path in dumped.glob("*.csv"))
    assert peak - without < largest
