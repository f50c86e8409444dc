"""Child interpreters started by the tests import tdiscrim from this checkout.

pytest's pythonpath setting puts src on sys.path of the test process only;
the tests that run the CLI, the demos or an import check in a fresh
interpreter get it through PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

from tdiscrim import continuation

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def fresh_table():
    """Empty the cache of the path's start tables before and after the test."""
    continuation._table.cache_clear()
    yield
    continuation._table.cache_clear()
