"""The error types: each crosses a process boundary unchanged."""

from __future__ import annotations

import pickle

import pytest

from reqtrace import errors

# One instance of every ReqTraceError class, each with its own arguments.
SAMPLES = [
    errors.ReqTraceError("base"),
    errors.ConfigurationError("source root x: gone"),
    errors.ParameterError("k out of range"),
    errors.XmlParseError("not well-formed", 3),
    errors.XmlParseError("no element found"),
    errors.XmlSchemaError("duplicate attribute 'x'", "attribute"),
    errors.EmptyCorpusError("no classes found"),
    errors.DegenerateMatrixError("all zero"),
    errors.GoldCoverageError("unknown class 'Z'"),
]


def subclasses(cls: type) -> set[type]:
    found = {cls}
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                pending.append(sub)
    return found


def test_every_error_class_has_a_sample():
    assert subclasses(errors.ReqTraceError) == {type(error) for error in SAMPLES}


@pytest.mark.parametrize("error", SAMPLES, ids=repr)
def test_an_error_survives_pickle(error):
    # A worker process hands whatever it raises to its parent pickled.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
