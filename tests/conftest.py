from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

# Property tests must not fail because the host is slow: no per-example
# deadline.  Tests keep their own `max_examples`.
settings.register_profile("default", deadline=None)
settings.load_profile("default")

FIXTURES = Path(__file__).parent / "fixtures"

# Requirement descriptions of the bundled sample application, one per file
# under fixtures/ds/requirements (kept in sync by test_corpus).
DS_LINE_DESCRIPTION = (
    "The software shall allow user to draw lines, and choose the right color"
    " of the drawn lines. Also, it shall allow end user to draw a single line"
    " or unlimited lines on the drawing zone. To draw a line, software shall"
    " provide a method like drawLine() to draw a line between two points."
)


@pytest.fixture(scope="session")
def ds_source() -> Path:
    return FIXTURES / "ds" / "src"


@pytest.fixture(scope="session")
def ds_requirements() -> Path:
    return FIXTURES / "ds" / "requirements"


@pytest.fixture(scope="session")
def ds_gold() -> Path:
    return FIXTURES / "ds" / "gold.json"
